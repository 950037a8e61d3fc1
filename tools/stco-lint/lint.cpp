#include "tools/stco-lint/lint.hpp"

#include <algorithm>
#include <cctype>
#include <map>
#include <regex>
#include <set>
#include <sstream>

#include "src/obs/keys.hpp"

namespace stco::lint {

namespace {

// --- scanner: split text into lines, strip comments, extract literals ----

struct ScannedLine {
  std::string code;     ///< comments removed, string/char contents blanked
  std::string comment;  ///< concatenated comment text on this line
  /// String literals on this line, in order: {content, column of opening "}.
  std::vector<std::pair<std::string, std::size_t>> strings;
};

bool is_word_char(char c) { return std::isalnum(static_cast<unsigned char>(c)) || c == '_'; }

/// Comment/string-aware line scanner. Tracks block comments and raw string
/// literals across lines.
std::vector<ScannedLine> scan(const std::string& text) {
  std::vector<ScannedLine> out;
  enum class Mode { kNormal, kBlockComment, kString, kChar, kRawString };
  Mode mode = Mode::kNormal;
  std::string raw_delim;  // for kRawString: ")delim" terminator

  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    ScannedLine sl;
    sl.code.reserve(line.size());
    std::string current_string;
    std::size_t string_col = 0;
    for (std::size_t i = 0; i < line.size();) {
      const char c = line[i];
      switch (mode) {
        case Mode::kBlockComment:
          if (c == '*' && i + 1 < line.size() && line[i + 1] == '/') {
            mode = Mode::kNormal;
            sl.code += "  ";
            i += 2;
          } else {
            sl.comment += c;
            sl.code += ' ';
            ++i;
          }
          break;
        case Mode::kString:
          if (c == '\\' && i + 1 < line.size()) {
            current_string += line.substr(i, 2);
            sl.code += "  ";
            i += 2;
          } else if (c == '"') {
            sl.strings.emplace_back(current_string, string_col);
            current_string.clear();
            mode = Mode::kNormal;
            sl.code += '"';
            ++i;
          } else {
            current_string += c;
            sl.code += ' ';
            ++i;
          }
          break;
        case Mode::kRawString: {
          const std::size_t end = line.find(raw_delim, i);
          if (end == std::string::npos) {
            current_string += line.substr(i);
            sl.code.append(line.size() - i, ' ');
            i = line.size();
          } else {
            current_string += line.substr(i, end - i);
            sl.strings.emplace_back(current_string, string_col);
            current_string.clear();
            sl.code.append(end - i + raw_delim.size(), ' ');
            sl.code.back() = '"';
            i = end + raw_delim.size();
            mode = Mode::kNormal;
          }
          break;
        }
        case Mode::kChar:
          if (c == '\\' && i + 1 < line.size()) {
            sl.code += "  ";
            i += 2;
          } else {
            sl.code += (c == '\'') ? '\'' : ' ';
            if (c == '\'') mode = Mode::kNormal;
            ++i;
          }
          break;
        case Mode::kNormal:
          if (c == '/' && i + 1 < line.size() && line[i + 1] == '/') {
            sl.comment += line.substr(i + 2);
            sl.code.append(line.size() - i, ' ');
            i = line.size();
          } else if (c == '/' && i + 1 < line.size() && line[i + 1] == '*') {
            mode = Mode::kBlockComment;
            sl.code += "  ";
            i += 2;
          } else if (c == '"') {
            // Raw string? R"delim( ... )delim"
            if (i > 0 && line[i - 1] == 'R' &&
                (i < 2 || !is_word_char(line[i - 2]))) {
              const std::size_t open = line.find('(', i + 1);
              if (open != std::string::npos) {
                raw_delim.assign(1, ')');
                raw_delim.append(line, i + 1, open - i - 1);
                raw_delim += '"';
                mode = Mode::kRawString;
                string_col = i;
                current_string.clear();
                sl.code.append(open - i + 1, ' ');
                sl.code[sl.code.size() - (open - i + 1)] = '"';
                i = open + 1;
                break;
              }
            }
            mode = Mode::kString;
            string_col = i;
            current_string.clear();
            sl.code += '"';
            ++i;
          } else if (c == '\'') {
            // Heuristic: a quote after an identifier/digit is a C++14 digit
            // separator (1'000), not a char literal.
            if (i > 0 && is_word_char(line[i - 1])) {
              sl.code += ' ';
              ++i;
            } else {
              mode = Mode::kChar;
              sl.code += '\'';
              ++i;
            }
          } else {
            sl.code += c;
            ++i;
          }
          break;
      }
    }
    // Unterminated normal string at EOL: close it (not valid C++ anyway).
    if (mode == Mode::kString) {
      sl.strings.emplace_back(current_string, string_col);
      current_string.clear();
      mode = Mode::kNormal;
    }
    if (mode == Mode::kChar) mode = Mode::kNormal;
    out.push_back(std::move(sl));
  }
  return out;
}

// --- suppression parsing --------------------------------------------------

struct Suppressions {
  std::set<std::string> file_rules;
  std::map<std::size_t, std::set<std::string>> line_rules;  ///< 0-based line

  bool allowed(std::size_t line, const std::string& rule) const {
    if (file_rules.count(rule) || file_rules.count("*")) return true;
    const auto it = line_rules.find(line);
    return it != line_rules.end() &&
           (it->second.count(rule) || it->second.count("*"));
  }
};

void parse_allow_list(const std::string& args, std::set<std::string>& into) {
  std::string id;
  for (const char c : args + ",") {
    if (c == ',' || c == ' ' || c == '\t') {
      if (!id.empty()) into.insert(id);
      id.clear();
    } else {
      id += c;
    }
  }
}

Suppressions collect_suppressions(const std::vector<ScannedLine>& lines) {
  Suppressions s;
  static const std::regex kAllow(R"(stco-lint:\s*(allow|allow-file)\(([^)]*)\))");
  for (std::size_t ln = 0; ln < lines.size(); ++ln) {
    const std::string& comment = lines[ln].comment;
    if (comment.find("stco-lint:") == std::string::npos) continue;
    std::smatch m;
    std::string rest = comment;
    while (std::regex_search(rest, m, kAllow)) {
      std::set<std::string> ids;
      parse_allow_list(m[2].str(), ids);
      if (m[1].str() == "allow-file") {
        s.file_rules.insert(ids.begin(), ids.end());
      } else {
        s.line_rules[ln].insert(ids.begin(), ids.end());
        // A comment-only line also covers the line after it.
        const std::string& code = lines[ln].code;
        const bool code_blank =
            std::all_of(code.begin(), code.end(),
                        [](char c) { return std::isspace(static_cast<unsigned char>(c)); });
        if (code_blank && ln + 1 < lines.size())
          s.line_rules[ln + 1].insert(ids.begin(), ids.end());
      }
      rest = m.suffix().str();
    }
  }
  return s;
}

// --- token helpers --------------------------------------------------------

/// Positions where `word` occurs as a whole word in `code`.
std::vector<std::size_t> find_word(const std::string& code, const std::string& word) {
  std::vector<std::size_t> hits;
  std::size_t pos = 0;
  while ((pos = code.find(word, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !is_word_char(code[pos - 1]);
    const std::size_t end = pos + word.size();
    const bool right_ok = end >= code.size() || !is_word_char(code[end]);
    if (left_ok && right_ok) hits.push_back(pos);
    pos = end;
  }
  return hits;
}

std::size_t skip_spaces(const std::string& s, std::size_t pos) {
  while (pos < s.size() && (s[pos] == ' ' || s[pos] == '\t')) ++pos;
  return pos;
}

/// True when `word` occurs as a whole word immediately followed by `(`.
bool has_call(const std::string& code, const std::string& word) {
  for (const std::size_t pos : find_word(code, word)) {
    const std::size_t after = skip_spaces(code, pos + word.size());
    if (after < code.size() && code[after] == '(') return true;
  }
  return false;
}

std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

// --- the linter -----------------------------------------------------------

class Linter {
 public:
  Linter(const std::string& text, const FileInfo& info)
      : info_(info), lines_(scan(text)), supp_(collect_suppressions(lines_)) {}

  std::vector<Diagnostic> run() {
    collect_unordered_decls();
    collect_relgat_mention();
    for (std::size_t ln = 0; ln < lines_.size(); ++ln) {
      const std::string& code = lines_[ln].code;
      if (info_.tree != Tree::kTests && !info_.in_gnn)
        rule_training_path_inference(ln, code);
      if (info_.tree == Tree::kSrc) {
        rule_nondet_rand(ln, code);
        rule_nondet_time(ln, code);
        if (!info_.in_obs) rule_nondet_clock_now(ln, code);
        rule_nondet_unordered_iter(ln, code);
        if (info_.is_header) {
          rule_include_iostream(ln, code);
          rule_missing_nodiscard(ln, code);
        }
      }
      if (info_.tree != Tree::kTests) {
        rule_discarded_status(ln, code);
        if (!info_.in_obs) {
          rule_obs_unknown_key(ln, code);
          rule_obs_unknown_span(ln, code);
        }
        if (!info_.in_persist) rule_raw_file_io(ln, code);
      }
      rule_assert_ban(ln, code);
    }
    std::sort(diags_.begin(), diags_.end(),
              [](const Diagnostic& a, const Diagnostic& b) { return a.line < b.line; });
    return std::move(diags_);
  }

 private:
  void report(std::size_t ln, const char* rule, std::string message) {
    if (supp_.allowed(ln, rule)) return;
    diags_.push_back({info_.display_path, static_cast<int>(ln + 1), rule,
                      std::move(message)});
  }

  // nondet-rand: std::rand / srand / std::random_device seed entropy makes
  // reruns non-reproducible; all randomness must flow from numeric::Rng.
  void rule_nondet_rand(std::size_t ln, const std::string& code) {
    for (const char* fn : {"rand", "srand"}) {
      if (has_call(code, fn))
        report(ln, "nondet-rand",
               std::string("banned nondeterminism source '") + fn +
                   "()'; derive randomness from numeric::Rng / stream_rng(seed, i)");
    }
    if (!find_word(code, "random_device").empty())
      report(ln, "nondet-rand",
             "banned nondeterminism source 'std::random_device'; derive randomness "
             "from numeric::Rng / stream_rng(seed, i)");
  }

  // nondet-time: wall-clock reads via C time APIs.
  void rule_nondet_time(std::size_t ln, const std::string& code) {
    for (const char* fn : {"time", "clock", "gettimeofday"}) {
      if (has_call(code, fn))
        report(ln, "nondet-time",
               std::string("banned wall-clock source '") + fn +
                   "()'; time belongs to src/obs (spans)");
    }
  }

  // nondet-clock-now: argless std::chrono::*::now() outside src/obs and
  // bench. Legitimate timing (span timestamps, latency histograms) is
  // either owned by obs or carries a suppression stating why.
  void rule_nondet_clock_now(std::size_t ln, const std::string& code) {
    for (const std::size_t pos : find_word(code, "now")) {
      const std::size_t after = skip_spaces(code, pos + 3);
      if (after + 1 < code.size() && code[after] == '(' &&
          code[skip_spaces(code, after + 1)] == ')') {
        report(ln, "nondet-clock-now",
               "argless clock read 'now()' outside src/obs; route timing through "
               "obs spans or suppress with a reason");
        return;
      }
    }
  }

  void collect_unordered_decls() {
    for (const auto& sl : lines_) {
      const std::string& code = sl.code;
      for (const char* marker : {"unordered_map<", "unordered_set<"}) {
        std::size_t pos = code.find(marker);
        while (pos != std::string::npos) {
          // Walk the template argument list to its closing '>'.
          std::size_t i = pos + std::string(marker).size() - 1;
          int depth = 0;
          for (; i < code.size(); ++i) {
            if (code[i] == '<') ++depth;
            if (code[i] == '>' && --depth == 0) break;
          }
          if (i < code.size()) {
            std::size_t p = skip_spaces(code, i + 1);
            if (p < code.size() && code[p] == '&') p = skip_spaces(code, p + 1);
            std::string name;
            while (p < code.size() && is_word_char(code[p])) name += code[p++];
            if (!name.empty()) unordered_names_.insert(name);
          }
          pos = code.find(marker, pos + 1);
        }
      }
    }
  }

  // nondet-unordered-iter: a range-for over an unordered container feeds
  // hash-order into whatever the loop body accumulates.
  void rule_nondet_unordered_iter(std::size_t ln, const std::string& code) {
    for (const std::size_t pos : find_word(code, "for")) {
      const std::size_t open = skip_spaces(code, pos + 3);
      if (open >= code.size() || code[open] != '(') continue;
      // Find the matching ')' (or take the rest of the line).
      int depth = 0;
      std::size_t close = open;
      for (; close < code.size(); ++close) {
        if (code[close] == '(') ++depth;
        if (code[close] == ')' && --depth == 0) break;
      }
      const std::string inner = code.substr(open + 1, close - open - 1);
      // Range-for separator: a ':' that is not part of '::'.
      std::size_t sep = std::string::npos;
      for (std::size_t i = 0; i < inner.size(); ++i) {
        if (inner[i] != ':') continue;
        if ((i + 1 < inner.size() && inner[i + 1] == ':') ||
            (i > 0 && inner[i - 1] == ':'))
          continue;
        sep = i;
        break;
      }
      if (sep == std::string::npos) continue;
      std::string range = trim(inner.substr(sep + 1));
      if (range.find("unordered_") != std::string::npos) {
        report(ln, "nondet-unordered-iter",
               "iteration over an unordered container; hash order is "
               "nondeterministic — iterate a sorted view instead");
        continue;
      }
      // Last identifier component of the range expression.
      std::string ident;
      for (const char c : range) {
        if (is_word_char(c)) {
          ident += c;
        } else if (c == '(' || c == ')') {
          // calls / parens end the simple-identifier heuristic
        } else {
          ident.clear();
        }
      }
      if (!ident.empty() && unordered_names_.count(ident))
        report(ln, "nondet-unordered-iter",
               "iteration over unordered container '" + ident +
                   "'; hash order is nondeterministic — iterate a sorted view instead");
    }
  }

  // discarded-status: a status-returning call as a bare statement throws
  // the SolveStatus away. ([[nodiscard]] + -Werror is the authoritative
  // compile-time net; this catches the single-line textual cases early.)
  void rule_discarded_status(std::size_t ln, const std::string& code) {
    static const std::regex kDiscard(
        R"(^(?:[A-Za-z_]\w*(?:::|\.|->))*()"
        R"(solve_bicgstab|solve_poisson|solve_drift_diffusion|)"
        R"(dc_operating_point|transient|transient_adaptive|levenberg_marquardt|)"
        R"(drain_current_ex|factor|snapshot|obs_snapshot|make_run_snapshot)"
        R"()\s*\(.*\)\s*;\s*$)");
    const std::string t = trim(code);
    // Continuation lines of a multi-line expression (e.g. a wrapped
    // argument list) close more parens than they open; skip them.
    int depth = 0;
    for (const char c : t) {
      if (c == '(') ++depth;
      if (c == ')' && --depth < 0) return;
    }
    std::smatch m;
    if (std::regex_match(t, m, kDiscard))
      report(ln, "discarded-status",
             "result of status-returning call '" + m[1].str() +
                 "(...)' is discarded; check SolveStatus (or cast through (void) "
                 "with a suppression)");
  }

  // missing-nodiscard: declarations returning a status-bearing or
  // snapshot type must carry [[nodiscard]].
  void rule_missing_nodiscard(std::size_t ln, const std::string& code) {
    static const std::vector<std::string> kTypes = {
        "SolveStatus",       "IterativeResult",
        "LmResult",          "DcResult",
        "TranResult",        "PoissonSolution",
        "DriftDiffusionSolution", "TransportResult",
        "Snapshot",          "LoadStatus",
        "optional<DenseLu>", "optional<BandLu>"};
    for (const auto& type : kTypes) {
      for (const std::size_t pos : find_word(code, type)) {
        // Return-type position: nothing but qualifiers / namespace
        // prefixes / attributes before the token on this line.
        const std::string prefix = trim(code.substr(0, pos));
        if (prefix.find('(') != std::string::npos) continue;  // parameter
        static const std::regex kQualifiers(
            R"(^(?:\[\[\w+\]\]\s*)?(?:(?:static|virtual|inline|constexpr|friend|extern|std::|\w+::)\s*)*$)");
        if (!std::regex_match(prefix, kQualifiers)) continue;
        // Followed by an identifier and '('.
        std::size_t p = skip_spaces(code, pos + type.size());
        std::string name;
        while (p < code.size() && is_word_char(code[p])) name += code[p++];
        p = skip_spaces(code, p);
        if (name.empty() || p >= code.size() || code[p] != '(') continue;
        const bool here = code.find("[[nodiscard]]") != std::string::npos;
        const bool above =
            ln > 0 && lines_[ln - 1].code.find("[[nodiscard]]") != std::string::npos;
        if (!here && !above)
          report(ln, "missing-nodiscard",
                 "'" + name + "' returns " + type +
                     " but is not [[nodiscard]]; a silently dropped status hides "
                     "solver failures");
      }
    }
  }

  /// First string literal at column > `col` on line `ln`, else the first
  /// literal on one of the next two lines (wrapped call arguments).
  const std::string* literal_after(std::size_t ln, std::size_t col,
                                   std::size_t* out_line) {
    for (const auto& [content, c] : lines_[ln].strings) {
      if (c > col) {
        *out_line = ln;
        return &content;
      }
    }
    for (std::size_t next = ln + 1; next < lines_.size() && next <= ln + 2; ++next) {
      if (!lines_[next].strings.empty()) {
        *out_line = next;
        return &lines_[next].strings.front().first;
      }
      if (!trim(lines_[next].code).empty()) break;  // code but no literal
    }
    return nullptr;
  }

  // obs-unknown-key: metric keys must come from the canonical registry in
  // src/obs/keys.hpp (shared with the runtime validation).
  void rule_obs_unknown_key(std::size_t ln, const std::string& code) {
    for (const char* fn :
         {"counter", "gauge", "histogram", "set_counter", "set_gauge",
          "progress"}) {
      for (const std::size_t pos : find_word(code, fn)) {
        const std::size_t after = skip_spaces(code, pos + std::string(fn).size());
        if (after >= code.size() || code[after] != '(') continue;
        std::size_t at_line = ln;
        const std::string* key = literal_after(ln, pos, &at_line);
        if (!key) continue;  // dynamic key: validated at runtime under STCO_CHECKS
        if (!obs::keys::is_canonical_metric_key(*key))
          report(at_line, "obs-unknown-key",
                 "metric key \"" + *key +
                     "\" is not in the canonical registry (src/obs/keys.hpp); "
                     "register it there first");
      }
    }
  }

  // obs-unknown-span: span names likewise.
  void rule_obs_unknown_span(std::size_t ln, const std::string& code) {
    for (const std::size_t pos : find_word(code, "Span")) {
      std::size_t at_line = ln;
      const std::string* name = literal_after(ln, pos, &at_line);
      if (!name) continue;
      if (!obs::keys::is_canonical_span_name(*name))
        report(at_line, "obs-unknown-span",
               "span name \"" + *name +
                   "\" is not in the canonical registry (src/obs/keys.hpp); "
                   "register it there first");
    }
  }

  // raw-file-io: direct write-side file I/O (std::ofstream, fopen/freopen,
  // POSIX open with write flags) outside src/persist bypasses the atomic
  // temp-file + fsync + rename + checksum discipline — a crash mid-write
  // leaves a torn file the readers cannot distinguish from a good one —
  // or, for append streams, the single-write-per-line framing of
  // persist::AppendWriter. Read-side I/O (ifstream, O_RDONLY open) is fine.
  void rule_raw_file_io(std::size_t ln, const std::string& code) {
    if (!find_word(code, "ofstream").empty())
      report(ln, "raw-file-io",
             "raw 'std::ofstream' outside src/persist; route writes through "
             "persist::Storage::write_atomic / persist::atomic_write_file so "
             "they are atomic and crash-safe");
    for (const char* fn : {"fopen", "freopen"}) {
      if (has_call(code, fn))
        report(ln, "raw-file-io",
               std::string("raw '") + fn +
                   "()' outside src/persist; route writes through "
                   "persist::Storage::write_atomic / persist::atomic_write_file");
    }
    // POSIX open() with any write-side flag. Plain O_RDONLY opens are
    // read-side and allowed.
    if (has_call(code, "open")) {
      for (const char* flag :
           {"O_WRONLY", "O_RDWR", "O_APPEND", "O_CREAT", "O_TRUNC"}) {
        if (!find_word(code, flag).empty()) {
          report(ln, "raw-file-io",
                 std::string("raw POSIX open() with ") + flag +
                     " outside src/persist; route writes through "
                     "persist::atomic_write_file or persist::AppendWriter");
          break;
        }
      }
    }
  }

  // include-iostream: <iostream> in a src header drags static iostream
  // constructors into every TU; keep I/O in .cpp files.
  void rule_include_iostream(std::size_t ln, const std::string& code) {
    static const std::regex kInc(R"(^\s*#\s*include\s*<iostream>)");
    if (std::regex_search(code, kInc))
      report(ln, "include-iostream",
             "#include <iostream> in a src/ header; include <ostream>/<iosfwd> "
             "or move the I/O into a .cpp");
  }

  // assert-ban: assert() is NDEBUG-stripped and records nothing; the
  // contract macros survive Release builds (gated by STCO_CHECKS alone)
  // and count violations through obs before aborting.
  void rule_assert_ban(std::size_t ln, const std::string& code) {
    if (has_call(code, "assert"))
      report(ln, "assert-ban",
             "assert() is banned; use STCO_REQUIRE/STCO_ENSURE "
             "(src/numeric/contract.hpp) — NDEBUG-immune and obs-counted");
    static const std::regex kInc(R"(^\s*#\s*include\s*<(cassert|assert\.h)>)");
    if (std::regex_search(code, kInc))
      report(ln, "assert-ban",
             "#include <" + std::string("cassert") +
                 "> is banned; use STCO_REQUIRE/STCO_ENSURE "
                 "(src/numeric/contract.hpp)");
  }

  void collect_relgat_mention() {
    for (const auto& sl : lines_)
      if (!find_word(sl.code, "RelGatModel").empty()) {
        mentions_relgat_ = true;
        return;
      }
  }

  // training-path-inference: the autograd forward (RelGatModel::forward,
  // forward_batched) builds a gradient graph per call — an order of
  // magnitude slower than the compiled engine and never what an inference
  // call site wants. Outside src/gnn (which owns both paths) and tests/,
  // inference must go through gnn::Predictor / infer::InferencePlan;
  // genuine gradient steps carry a suppression stating so.
  void rule_training_path_inference(std::size_t ln, const std::string& code) {
    if (has_call(code, "forward_batched"))
      report(ln, "training-path-inference",
             "'forward_batched' is the deprecated training-path batch forward; "
             "inference call sites use gnn::Predictor::predict "
             "(src/gnn/infer/predictor.hpp)");
    if (!mentions_relgat_) return;
    for (const std::size_t pos : find_word(code, "forward")) {
      const bool member =
          (pos >= 1 && code[pos - 1] == '.') ||
          (pos >= 2 && code[pos - 2] == '-' && code[pos - 1] == '>');
      if (!member) continue;
      const std::size_t after = skip_spaces(code, pos + 7);
      if (after < code.size() && code[after] == '(') {
        report(ln, "training-path-inference",
               "autograd 'forward()' in a RelGatModel context; inference runs "
               "the compiled plan (gnn::Predictor) — gradient steps suppress "
               "with a reason");
        return;
      }
    }
  }

  FileInfo info_;
  std::vector<ScannedLine> lines_;
  Suppressions supp_;
  std::set<std::string> unordered_names_;
  bool mentions_relgat_ = false;
  std::vector<Diagnostic> diags_;
};

}  // namespace

std::string Diagnostic::format() const {
  return file + ":" + std::to_string(line) + ": " + rule + ": " + message;
}

const std::vector<RuleInfo>& rules() {
  static const std::vector<RuleInfo> kRules = {
      {"nondet-rand", "std::rand/srand/std::random_device banned in src/"},
      {"nondet-time", "C wall-clock reads (time/clock/gettimeofday) banned in src/"},
      {"nondet-clock-now", "argless chrono ::now() outside src/obs needs a reason"},
      {"nondet-unordered-iter", "no iteration over unordered containers in src/"},
      {"discarded-status", "status-returning call used as a bare statement"},
      {"missing-nodiscard", "status/snapshot-returning API lacks [[nodiscard]]"},
      {"obs-unknown-key", "metric key not in the canonical registry (keys.hpp)"},
      {"obs-unknown-span", "span name not in the canonical registry (keys.hpp)"},
      {"include-iostream", "<iostream> banned in src/ headers"},
      {"assert-ban", "assert()/<cassert> banned; use STCO_REQUIRE/STCO_ENSURE"},
      {"raw-file-io",
       "std::ofstream/fopen/write-mode open() outside src/persist; use the "
       "atomic or append writer"},
      {"training-path-inference",
       "autograd forward (forward_batched / RelGatModel::forward) outside "
       "src/gnn; inference goes through gnn::Predictor"},
  };
  return kRules;
}

std::vector<Diagnostic> lint_text(const std::string& text, const FileInfo& info) {
  return Linter(text, info).run();
}

FileInfo classify_path(const std::string& rel_path) {
  FileInfo info;
  info.display_path = rel_path;
  if (rel_path.rfind("bench/", 0) == 0) {
    info.tree = Tree::kBench;
  } else if (rel_path.rfind("tests/", 0) == 0) {
    info.tree = Tree::kTests;
  } else {
    info.tree = Tree::kSrc;
  }
  info.is_header = rel_path.size() >= 4 &&
                   rel_path.compare(rel_path.size() - 4, 4, ".hpp") == 0;
  info.in_obs = rel_path.rfind("src/obs/", 0) == 0;
  info.in_persist = rel_path.rfind("src/persist/", 0) == 0;
  info.in_gnn = rel_path.rfind("src/gnn/", 0) == 0;
  return info;
}

bool should_scan(const std::string& rel_path) {
  const bool ext_ok =
      (rel_path.size() >= 4 &&
       (rel_path.compare(rel_path.size() - 4, 4, ".hpp") == 0 ||
        rel_path.compare(rel_path.size() - 4, 4, ".cpp") == 0));
  if (!ext_ok) return false;
  const bool tree_ok = rel_path.rfind("src/", 0) == 0 ||
                       rel_path.rfind("bench/", 0) == 0 ||
                       rel_path.rfind("tests/", 0) == 0;
  if (!tree_ok) return false;
  return rel_path.rfind("tests/lint/fixtures/", 0) != 0;
}

}  // namespace stco::lint
