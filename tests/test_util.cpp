#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/args.hpp"
#include "util/env.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/vec3.hpp"
#include "util/watchdog.hpp"

namespace tme {
namespace {

TEST(Vec3, BasicArithmetic) {
  const Vec3 a{1.0, 2.0, 3.0};
  const Vec3 b{-4.0, 0.5, 2.0};
  EXPECT_EQ((a + b).x, -3.0);
  EXPECT_EQ((a - b).y, 1.5);
  EXPECT_EQ((2.0 * a).z, 6.0);
  EXPECT_NEAR(dot(a, b), -4.0 + 1.0 + 6.0, 1e-15);
  EXPECT_NEAR(norm(Vec3{3.0, 4.0, 0.0}), 5.0, 1e-15);
}

TEST(Vec3, CrossProductIsOrthogonal) {
  const Vec3 a{1.0, 2.0, 3.0};
  const Vec3 b{-4.0, 0.5, 2.0};
  const Vec3 c = cross(a, b);
  EXPECT_NEAR(dot(a, c), 0.0, 1e-12);
  EXPECT_NEAR(dot(b, c), 0.0, 1e-12);
}

TEST(Box, WrapPutsCoordinatesInBox) {
  const Box box{{2.0, 3.0, 4.0}};
  const Vec3 w = box.wrap({-0.5, 3.5, 9.0});
  EXPECT_NEAR(w.x, 1.5, 1e-12);
  EXPECT_NEAR(w.y, 0.5, 1e-12);
  EXPECT_NEAR(w.z, 1.0, 1e-12);
}

TEST(Box, MinImageDisplacementIsShortest) {
  const Box box{{10.0, 10.0, 10.0}};
  const Vec3 d = box.min_image_disp({9.5, 0.0, 0.0}, {0.5, 0.0, 0.0});
  EXPECT_NEAR(d.x, -1.0, 1e-12);
  EXPECT_LE(std::abs(d.x), 5.0);
}

TEST(Box, MinImageHalfBoxBoundary) {
  const Box box{{10.0, 10.0, 10.0}};
  const Vec3 d = box.min_image_disp({7.5, 0.0, 0.0}, {2.5, 0.0, 0.0});
  EXPECT_NEAR(std::abs(d.x), 5.0, 1e-12);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(0, hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  bool called = false;
  parallel_for(5, 5, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, RepeatedInvocationsAreStable) {
  for (int round = 0; round < 50; ++round) {
    std::atomic<long> sum{0};
    parallel_for(0, 257, [&](std::size_t i) { sum += static_cast<long>(i); });
    EXPECT_EQ(sum.load(), 257L * 256L / 2L);
  }
}

TEST(ThreadPool, RangesPartitionIsDisjointAndComplete) {
  std::mutex m;
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  parallel_for_ranges(0, 1003, [&](std::size_t b, std::size_t e) {
    std::lock_guard lock(m);
    ranges.emplace_back(b, e);
  });
  std::vector<int> cover(1003, 0);
  for (const auto& [b, e] : ranges) {
    for (std::size_t i = b; i < e; ++i) ++cover[i];
  }
  for (const int c : cover) EXPECT_EQ(c, 1);
}

TEST(ThreadPool, ZeroWorkerPoolRunsSeriallyOnCaller) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.concurrency(), 1u);
  const auto caller = std::this_thread::get_id();
  std::vector<int> hits(100, 0);  // plain ints: no other thread may touch them
  pool.parallel_for_blocks(0, hits.size(), [&](std::size_t b, std::size_t e) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    for (std::size_t i = b; i < e; ++i) ++hits[i];
  });
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, OversubscribedPoolStillCoversRangeExactlyOnce) {
  // Far more threads than cores (and than work blocks): the dispatch must
  // not lose or duplicate blocks when most workers find nothing to do.
  ThreadPool pool(64);
  EXPECT_EQ(pool.concurrency(), 65u);
  for (int round = 0; round < 20; ++round) {
    std::vector<std::atomic<int>> hits(257);
    pool.parallel_for_blocks(0, hits.size(), [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, NestedParallelForRunsSeriallyWithoutDeadlock) {
  EXPECT_FALSE(ThreadPool::in_parallel_region());
  std::atomic<long> sum{0};
  std::atomic<int> nested_parallel{0};
  parallel_for(0, 16, [&](std::size_t) {
    EXPECT_TRUE(ThreadPool::in_parallel_region());
    // The inner call must not re-enter the pool: it runs as one serial
    // block on this thread.  If it re-entered the in-flight dispatch this
    // would deadlock or corrupt the outer loop's bookkeeping.
    parallel_for_ranges(0, 100, [&](std::size_t b, std::size_t e) {
      if (b != 0 || e != 100) nested_parallel.fetch_add(1);
      for (std::size_t i = b; i < e; ++i) sum += static_cast<long>(i);
    });
  });
  EXPECT_FALSE(ThreadPool::in_parallel_region());
  EXPECT_EQ(nested_parallel.load(), 0);
  EXPECT_EQ(sum.load(), 16L * (99L * 100L / 2L));
}

TEST(ThreadPool, RegionFlagRestoredAfterNestedCall) {
  parallel_for(0, 4, [&](std::size_t) {
    parallel_for(0, 2, [](std::size_t) {});
    // A sloppy guard would clear the flag when the nested call returned.
    EXPECT_TRUE(ThreadPool::in_parallel_region());
  });
}

TEST(ThreadPool, ExceptionPropagatesAndOtherBlocksStillRun) {
  std::vector<std::atomic<int>> hits(1000);
  try {
    parallel_for(0, hits.size(), [&](std::size_t i) {
      hits[i].fetch_add(1);
      if (i == 137) throw std::runtime_error("block 137 failed");
    });
    FAIL() << "expected parallel_for to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "block 137 failed");
  }
  // Every index before the throwing one in its block — and every other
  // block — still ran: only the throwing block stops early.  (On a
  // single-core pool the whole range is one block, so only the prefix up
  // to the throw runs.)
  int covered = 0;
  for (const auto& h : hits) covered += h.load();
  if (global_pool().concurrency() > 1) {
    const std::size_t chunk =
        (hits.size() + global_pool().concurrency() - 1) /
        global_pool().concurrency();
    EXPECT_GE(covered, static_cast<int>(hits.size() - chunk));
  } else {
    EXPECT_EQ(covered, 138);
  }
}

TEST(ThreadPool, PoolRemainsUsableAfterException) {
  EXPECT_THROW(
      parallel_for(0, 64, [](std::size_t i) {
        if (i % 2 == 0) throw std::logic_error("boom");
      }),
      std::logic_error);
  // Same global pool, next dispatch must be clean (no stale error, no lost
  // workers).
  for (int round = 0; round < 5; ++round) {
    std::atomic<long> sum{0};
    parallel_for(0, 1000, [&](std::size_t i) { sum += static_cast<long>(i); });
    EXPECT_EQ(sum.load(), 999L * 1000L / 2L);
  }
}

TEST(ThreadPool, ExceptionInNestedSerialCallPropagates) {
  EXPECT_THROW(parallel_for(0, 8,
                            [&](std::size_t) {
                              parallel_for(0, 4, [](std::size_t j) {
                                if (j == 2) throw std::runtime_error("nested");
                              });
                            }),
               std::runtime_error);
  // And the pool still works.
  std::atomic<int> n{0};
  parallel_for(0, 100, [&](std::size_t) { n.fetch_add(1); });
  EXPECT_EQ(n.load(), 100);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  double mean = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    mean += u;
  }
  EXPECT_NEAR(mean / n, 0.5, 5e-3);
}

TEST(Rng, NormalHasUnitVariance) {
  Rng rng(9);
  double sum = 0.0, sum2 = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.01);
  EXPECT_NEAR(sum2 / n, 1.0, 0.02);
}

TEST(Args, ParsesKeyValueForms) {
  const char* argv[] = {"prog", "--alpha", "3.5", "--grid=32", "--full"};
  const Args args(5, argv);
  EXPECT_NEAR(args.get_double("alpha", 0.0), 3.5, 1e-15);
  EXPECT_EQ(args.get_int("grid", 0), 32);
  EXPECT_TRUE(args.get_flag("full"));
  EXPECT_FALSE(args.get_flag("absent"));
  EXPECT_EQ(args.get("missing", "dflt"), "dflt");
}

TEST(Args, TracksUnusedKeys) {
  const char* argv[] = {"prog", "--used=1", "--typo=2"};
  const Args args(3, argv);
  (void)args.get_int("used", 0);
  const auto unused = args.unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

TEST(Args, RejectsPositionalArguments) {
  const char* argv[] = {"prog", "stray"};
  EXPECT_THROW(Args(2, argv), std::invalid_argument);
}

// RAII environment variable override for the env-helper tests.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() { ::unsetenv(name_); }

 private:
  const char* name_;
};

TEST(Env, StrictParsersRejectPartialInput) {
  EXPECT_EQ(env::parse_u64("42"), 42u);
  EXPECT_FALSE(env::parse_u64("42x").has_value());
  EXPECT_FALSE(env::parse_u64(" 42").has_value());
  EXPECT_FALSE(env::parse_u64("-1").has_value());
  EXPECT_EQ(env::parse_long("-7"), -7);
  EXPECT_FALSE(env::parse_long("7.5").has_value());
  EXPECT_FALSE(env::parse_long("").has_value());
}

TEST(Env, UnsetAndEmptyFallBackSilently) {
  ScopedEnv unset("TME_TEST_ENV_KNOB", nullptr);
  EXPECT_FALSE(env::raw("TME_TEST_ENV_KNOB").has_value());
  EXPECT_EQ(env::u64_or("TME_TEST_ENV_KNOB", 9), 9u);
  ScopedEnv empty("TME_TEST_ENV_KNOB", "");
  EXPECT_FALSE(env::raw("TME_TEST_ENV_KNOB").has_value());
  EXPECT_EQ(env::u64_or("TME_TEST_ENV_KNOB", 9), 9u);
}

TEST(Env, MalformedValuesKeepTheFallback) {
  ScopedEnv bad("TME_TEST_ENV_KNOB", "banana");
  EXPECT_EQ(env::u64_or("TME_TEST_ENV_KNOB", 3), 3u);
  EXPECT_EQ(env::bounded_long_or("TME_TEST_ENV_KNOB", 2, 0, 8), 2);
}

TEST(Env, RangeViolationsKeepTheFallback) {
  {
    ScopedEnv negative("TME_TEST_ENV_KNOB", "-2");
    EXPECT_EQ(env::bounded_long_or("TME_TEST_ENV_KNOB", 1, 0, 8), 1);
  }
  {
    ScopedEnv over("TME_TEST_ENV_KNOB", "9");
    EXPECT_EQ(env::bounded_long_or("TME_TEST_ENV_KNOB", 1, 0, 8), 1);
  }
  {
    ScopedEnv good("TME_TEST_ENV_KNOB", "8");
    EXPECT_EQ(env::bounded_long_or("TME_TEST_ENV_KNOB", 1, 0, 8), 8);
  }
}

TEST(Env, ChoiceMatchesExactlyOrKeepsFallback) {
  const std::vector<std::string> ladder = {"warn", "recompute", "recover",
                                           "abort"};
  {
    ScopedEnv e("TME_TEST_ENV_KNOB", "recover");
    EXPECT_EQ(env::choice_or("TME_TEST_ENV_KNOB", ladder, 0), 2u);
  }
  {
    ScopedEnv e("TME_TEST_ENV_KNOB", "Recover");  // case-sensitive
    EXPECT_EQ(env::choice_or("TME_TEST_ENV_KNOB", ladder, 1), 1u);
  }
  {
    ScopedEnv e("TME_TEST_ENV_KNOB", nullptr);
    EXPECT_EQ(env::choice_or("TME_TEST_ENV_KNOB", ladder, 3), 3u);
  }
}

TEST(Watchdog, FiresOnStallAndRearmsOnPet) {
  std::atomic<int> fired{0};
  Watchdog wd(0.05, [&fired] { ++fired; });
  // Stall long enough for one firing (the callback fires once per stall,
  // not repeatedly).
  for (int i = 0; i < 200 && fired.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(fired.load(), 1);
  EXPECT_TRUE(wd.fired());
  EXPECT_EQ(wd.firings(), 1u);

  // A pet re-arms it; a second stall fires again.
  wd.pet();
  for (int i = 0; i < 200 && fired.load() < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(fired.load(), 2);
  EXPECT_EQ(wd.firings(), 2u);
}

TEST(Watchdog, StaysQuietWhilePetted) {
  std::atomic<int> fired{0};
  Watchdog wd(0.25, [&fired] { ++fired; });
  for (int i = 0; i < 20; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    wd.pet();
  }
  EXPECT_EQ(fired.load(), 0);
  EXPECT_FALSE(wd.fired());
  EXPECT_THROW(Watchdog(0.0, [] {}), std::invalid_argument);
}

}  // namespace
}  // namespace tme
