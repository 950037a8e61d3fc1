#include "src/exec/context.hpp"

#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <sstream>
#include <thread>

#include "src/obs/obs.hpp"

namespace stco::exec {

namespace {

// Completion state of one parallel_for region. Tasks are tagged with their
// region so a waiting thread can restrict the tasks it helps with to its own
// region — helping arbitrary tasks would let unrelated regions nest on the
// waiter's stack without bound.
struct Region {
  std::mutex m;
  std::condition_variable cv;
  std::size_t outstanding = 0;       ///< submitted and not yet finished
  std::exception_ptr error;          ///< first task exception
  std::atomic<bool> abort{false};    ///< set with `error`; skips later bodies
};

struct Task {
  std::shared_ptr<Region> region;
  std::function<void()> fn;
  obs::SpanContext span;         ///< submitter's span, restored in the worker
  std::uint64_t submit_ns = 0;   ///< for the queue-latency histogram (0 = off)
};

// Queue latency is only sampled while tracing is on (now_ns() costs two
// clock reads per task otherwise); the histogram itself is always
// registered so snapshots have a stable shape.
obs::Histogram& queue_latency_hist() {
  static obs::Histogram& h = obs::histogram(
      "exec.queue_latency_seconds",
      {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0});
  return h;
}

struct Queue {
  std::mutex m;
  std::deque<Task> q;
};

void atomic_max(std::atomic<std::size_t>& target, std::size_t v) {
  std::size_t cur = target.load(std::memory_order_relaxed);
  while (cur < v &&
         !target.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

struct Context::Impl {
  std::vector<std::unique_ptr<Queue>> queues;  ///< one deque per worker
  std::vector<std::thread> workers;
  std::mutex wake_m;
  std::condition_variable wake_cv;
  std::atomic<bool> shutdown{false};
  std::atomic<std::size_t> pending{0};  ///< tasks sitting in queues
  std::atomic<std::size_t> rr{0};       ///< round-robin cursor for pushes

  // Stats (mutable through const Context&: counters only).
  std::atomic<std::size_t> tasks_run{0};
  std::atomic<std::size_t> steals{0};
  std::atomic<std::size_t> max_depth{0};
  std::atomic<std::size_t> regions{0};

  void push(std::size_t qi, Task t) {
    {
      std::lock_guard<std::mutex> lk(queues[qi]->m);
      queues[qi]->q.push_back(std::move(t));
      atomic_max(max_depth, queues[qi]->q.size());
    }
    pending.fetch_add(1, std::memory_order_release);
    {
      // Pairing the notify with the wake mutex closes the race against a
      // worker that just saw pending == 0 and is about to sleep.
      std::lock_guard<std::mutex> lk(wake_m);
    }
    wake_cv.notify_one();
  }

  bool pop_own(std::size_t qi, Task& out) {
    std::lock_guard<std::mutex> lk(queues[qi]->m);
    if (queues[qi]->q.empty()) return false;
    out = std::move(queues[qi]->q.back());
    queues[qi]->q.pop_back();
    pending.fetch_sub(1, std::memory_order_relaxed);
    return true;
  }

  bool steal_from(std::size_t qi, Task& out) {
    std::lock_guard<std::mutex> lk(queues[qi]->m);
    if (queues[qi]->q.empty()) return false;
    out = std::move(queues[qi]->q.front());
    queues[qi]->q.pop_front();
    pending.fetch_sub(1, std::memory_order_relaxed);
    steals.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  /// Worker i: own deque LIFO first, then steal FIFO from the others.
  bool take_any(std::size_t self, Task& out) {
    if (pop_own(self, out)) return true;
    for (std::size_t k = 1; k < queues.size(); ++k) {
      if (steal_from((self + k) % queues.size(), out)) return true;
    }
    return false;
  }

  /// Take one queued task belonging to `r` (used by waiting threads, which
  /// only help their own region).
  bool take_region(const Region* r, Task& out) {
    for (auto& qp : queues) {
      std::lock_guard<std::mutex> lk(qp->m);
      for (auto it = qp->q.begin(); it != qp->q.end(); ++it) {
        if (it->region.get() == r) {
          out = std::move(*it);
          qp->q.erase(it);
          pending.fetch_sub(1, std::memory_order_relaxed);
          steals.fetch_add(1, std::memory_order_relaxed);
          return true;
        }
      }
    }
    return false;
  }

  void run_task(Task& t) {
    Region& r = *t.region;
    // Restore the submitter's span as this thread's current span so spans
    // opened inside the task body parent correctly across the pool hop.
    obs::TaskScope span_scope(t.span);
    if (t.submit_ns != 0) {
      queue_latency_hist().observe(
          static_cast<double>(obs::now_ns() - t.submit_ns) * 1e-9);
    }
    if (!r.abort.load(std::memory_order_relaxed)) {
      try {
        t.fn();
        tasks_run.fetch_add(1, std::memory_order_relaxed);
      } catch (...) {
        std::lock_guard<std::mutex> lk(r.m);
        if (!r.error) r.error = std::current_exception();
        r.abort.store(true, std::memory_order_relaxed);
      }
    }
    std::lock_guard<std::mutex> lk(r.m);
    if (--r.outstanding == 0) r.cv.notify_all();
  }

  void worker_main(std::size_t index) {
    Task t;
    while (true) {
      if (take_any(index, t)) {
        run_task(t);
        t = Task{};  // release the region before idling
        continue;
      }
      std::unique_lock<std::mutex> lk(wake_m);
      wake_cv.wait(lk, [&] {
        return shutdown.load(std::memory_order_relaxed) ||
               pending.load(std::memory_order_acquire) > 0;
      });
      if (shutdown.load(std::memory_order_relaxed) &&
          pending.load(std::memory_order_acquire) == 0) {
        return;
      }
    }
  }

  void submit(std::shared_ptr<Region> r, std::function<void()> fn) {
    {
      std::lock_guard<std::mutex> lk(r->m);
      ++r->outstanding;
    }
    Task t{std::move(r), std::move(fn), {}, 0};
    if (obs::tracing_enabled()) {
      t.span = obs::current_context();  // reparent across the pool hop
      t.submit_ns = obs::now_ns();
    }
    const std::size_t qi = rr.fetch_add(1, std::memory_order_relaxed) % queues.size();
    push(qi, std::move(t));
  }

  /// Block until region `r` drains, executing its queued tasks meanwhile.
  void wait_region(const std::shared_ptr<Region>& r) {
    Task t;
    while (true) {
      {
        std::lock_guard<std::mutex> lk(r->m);
        if (r->outstanding == 0) break;
      }
      if (take_region(r.get(), t)) {
        run_task(t);
        t = Task{};
        continue;
      }
      std::unique_lock<std::mutex> lk(r->m);
      r->cv.wait(lk, [&] { return r->outstanding == 0; });
      break;
    }
  }
};

const Context& Context::serial() {
  static const Context ctx(0);
  return ctx;
}

Context::Context(std::size_t threads) : impl_(std::make_unique<Impl>()) {
  impl_->queues.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    impl_->queues.push_back(std::make_unique<Queue>());
  impl_->workers.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    impl_->workers.emplace_back([this, i] { impl_->worker_main(i); });
}

Context::~Context() {
  impl_->shutdown.store(true, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lk(impl_->wake_m);
  }
  impl_->wake_cv.notify_all();
  for (auto& w : impl_->workers) w.join();
}

std::size_t Context::threads() const { return impl_->workers.size(); }

void Context::parallel_for(std::size_t n,
                           const std::function<void(std::size_t)>& body) const {
  if (n == 0) return;
  Impl& im = *impl_;
  im.regions.fetch_add(1, std::memory_order_relaxed);
  // Region span; submitted tasks capture it as their parent (see submit()).
  obs::Span region_span("exec.parallel_for");

  if (im.queues.empty()) {
    // Inline serial path: index order, immediate exception propagation.
    for (std::size_t i = 0; i < n; ++i) {
      body(i);
      im.tasks_run.fetch_add(1, std::memory_order_relaxed);
    }
    return;
  }

  // Index ranges are carved into chunks sized for ~4 chunks per lane so the
  // stealing has slack to balance uneven task costs. Chunking depends only
  // on (n, thread count) — never on timing — so the slot a result lands in
  // is deterministic.
  const std::size_t lanes = im.queues.size() + 1;
  const std::size_t chunk = std::max<std::size_t>(1, n / (lanes * 4));
  auto r = std::make_shared<Region>();
  for (std::size_t lo = 0; lo < n; lo += chunk) {
    const std::size_t hi = std::min(n, lo + chunk);
    im.submit(r, [&body, r_raw = r.get(), lo, hi] {
      for (std::size_t i = lo; i < hi; ++i) {
        if (r_raw->abort.load(std::memory_order_relaxed)) return;
        body(i);
      }
    });
  }
  im.wait_region(r);
  if (r->error) std::rethrow_exception(r->error);
}

ContextStats Context::stats() const {
  ContextStats s;
  s.threads = impl_->workers.size();
  s.tasks_run = impl_->tasks_run.load(std::memory_order_relaxed);
  s.steals = impl_->steals.load(std::memory_order_relaxed);
  s.max_queue_depth = impl_->max_depth.load(std::memory_order_relaxed);
  s.parallel_regions = impl_->regions.load(std::memory_order_relaxed);
  return s;
}

void Context::reset_stats() const {
  impl_->tasks_run.store(0, std::memory_order_relaxed);
  impl_->steals.store(0, std::memory_order_relaxed);
  impl_->max_depth.store(0, std::memory_order_relaxed);
  impl_->regions.store(0, std::memory_order_relaxed);
}

std::string ContextStats::summary() const {
  std::ostringstream ss;
  if (threads == 0) {
    ss << "serial inline, " << tasks_run << " tasks over " << parallel_regions
       << " regions";
  } else {
    ss << threads << " worker threads, " << tasks_run << " tasks over "
       << parallel_regions << " regions, " << steals << " steals, max queue depth "
       << max_queue_depth;
  }
  return ss.str();
}

}  // namespace stco::exec
