#include "src/exec/context.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace stco::exec {
namespace {

TEST(Context, SerialRunsInlineInIndexOrder) {
  const Context& ctx = Context::serial();
  EXPECT_EQ(ctx.threads(), 0u);
  EXPECT_EQ(ctx.concurrency(), 1u);
  std::vector<std::size_t> order;
  const std::size_t ran = ctx.parallel_for(5, [&](std::size_t i) {
    order.push_back(i);
  });
  EXPECT_EQ(ran, 5u);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(Context, PoolStartupAndShutdown) {
  // Construct / destruct repeatedly: no deadlock, no leaked work.
  for (int round = 0; round < 3; ++round) {
    Context ctx(4);
    EXPECT_EQ(ctx.threads(), 4u);
    EXPECT_EQ(ctx.concurrency(), 4u);
    std::atomic<std::size_t> sum{0};
    ctx.parallel_for(100, [&](std::size_t i) { sum += i; });
    EXPECT_EQ(sum.load(), 4950u);
  }
  // A pool that never ran work must also shut down cleanly.
  Context idle(2);
}

TEST(Context, MapWritesIndexAddressedSlots) {
  Context ctx(3);
  const auto out = ctx.map(64, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 64u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(Context, ExceptionPropagatesToSubmitter) {
  Context ctx(2);
  EXPECT_THROW(ctx.parallel_for(32,
                                [&](std::size_t i) {
                                  if (i == 7) throw std::runtime_error("task 7");
                                }),
               std::runtime_error);
  // The pool survives a failed region and accepts new work.
  std::atomic<std::size_t> ran{0};
  ctx.parallel_for(8, [&](std::size_t) { ++ran; });
  EXPECT_EQ(ran.load(), 8u);
}

TEST(Context, ExceptionPropagatesOnSerialContext) {
  const Context& ctx = Context::serial();
  EXPECT_THROW(
      ctx.parallel_for(4, [](std::size_t) { throw std::invalid_argument("x"); }),
      std::invalid_argument);
}

TEST(Context, NestedSubmissionDoesNotDeadlock) {
  Context ctx(2);
  // Outer region fans out inner regions on the same context; blocked waiters
  // help execute their own group's tasks, so 2 workers suffice.
  std::atomic<std::size_t> total{0};
  ctx.parallel_for(8, [&](std::size_t) {
    ctx.parallel_for(16, [&](std::size_t) { ++total; });
  });
  EXPECT_EQ(total.load(), 8u * 16u);
}

TEST(Context, NestedMapIsDeterministic) {
  Context ctx(4);
  const auto outer = ctx.map(6, [&](std::size_t i) {
    const auto inner = ctx.map(10, [&](std::size_t j) { return i * 100 + j; });
    return std::accumulate(inner.begin(), inner.end(), std::size_t{0});
  });
  for (std::size_t i = 0; i < outer.size(); ++i)
    EXPECT_EQ(outer[i], i * 1000 + 45);
}

TEST(Context, RequestCancelSkipsUnstartedIterations) {
  Context ctx(2);
  std::atomic<std::size_t> ran{0};
  const std::size_t n = 10000;
  const std::size_t executed = ctx.parallel_for(n, [&](std::size_t i) {
    if (i == 0) ctx.request_cancel();
    ++ran;
  });
  EXPECT_LT(executed, n);  // the tail was skipped
  EXPECT_EQ(executed, ran.load());
  EXPECT_TRUE(ctx.cancel_requested());
  ctx.reset_cancel();
  EXPECT_FALSE(ctx.cancel_requested());
  // After reset the context runs full regions again.
  EXPECT_EQ(ctx.parallel_for(32, [](std::size_t) {}), 32u);
}

TEST(Context, ExhaustedBudgetReadsAsCancellationMidLadder) {
  Context ctx(2);
  numeric::SolveBudget budget(/*max_iterations=*/8);
  std::atomic<std::size_t> ran{0};
  {
    BudgetScope scope(ctx, budget);
    // Each iteration charges the shared budget the way a solver retry
    // ladder does; once it exhausts, unstarted iterations are skipped.
    const std::size_t executed = ctx.parallel_for(10000, [&](std::size_t) {
      budget.charge(1);
      ++ran;
    });
    EXPECT_LT(executed, 10000u);
    EXPECT_TRUE(ctx.cancel_requested());
  }
  // Scope detached the budget: the context is usable again.
  EXPECT_FALSE(ctx.cancel_requested());
  EXPECT_EQ(ctx.parallel_for(16, [](std::size_t) {}), 16u);
}

TEST(Context, StatsCountTasksAndRegions) {
  Context ctx(2);
  ctx.reset_stats();
  ctx.parallel_for(50, [](std::size_t) {});
  ctx.parallel_for(50, [](std::size_t) {});
  const auto st = ctx.stats();
  EXPECT_EQ(st.threads, 2u);
  EXPECT_EQ(st.parallel_regions, 2u);
  EXPECT_GT(st.tasks_run, 0u);
  EXPECT_FALSE(st.summary().empty());
  ctx.reset_stats();
  EXPECT_EQ(ctx.stats().parallel_regions, 0u);
}

TEST(TaskGroup, RunsIrregularWorkAndRethrows) {
  Context ctx(2);
  std::atomic<int> hits{0};
  {
    TaskGroup group(ctx);
    for (int i = 0; i < 20; ++i) group.run([&] { ++hits; });
    group.wait();
  }
  EXPECT_EQ(hits.load(), 20);

  TaskGroup failing(ctx);
  failing.run([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(failing.wait(), std::runtime_error);
}

TEST(TaskGroup, SerialContextRunsImmediately) {
  const Context& ctx = Context::serial();
  int hits = 0;
  TaskGroup group(ctx);
  group.run([&] { ++hits; });
  EXPECT_EQ(hits, 1);  // already ran, before wait()
  group.wait();
}

}  // namespace
}  // namespace stco::exec
