#pragma once
// Umbrella header for the observability subsystem: scoped spans +
// chrome-trace export (span.hpp), counters/gauges/histograms + Snapshot
// (metrics.hpp), progress tasks with rate/ETA (progress.hpp), the live
// telemetry stream (telemetry.hpp), and the JSON parser / validator
// (json_parse.hpp).
//
// See DESIGN.md "Observability" and "Telemetry & progress" for the span
// model, the metric naming scheme, and the overhead budget.

#include "src/obs/json_parse.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/progress.hpp"
#include "src/obs/span.hpp"
#include "src/obs/telemetry.hpp"
