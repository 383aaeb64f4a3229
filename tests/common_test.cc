#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>

#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "tests/test_util.h"

namespace hql {
namespace {

TEST(StatusTest, OkAndErrors) {
  EXPECT_TRUE(Status::OK().ok());
  EXPECT_EQ(Status::OK().ToString(), "OK");
  Status s = Status::NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NotFound: missing thing");
}

TEST(StatusTest, AllCodeNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInvalidArgument),
               "InvalidArgument");
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotFound), "NotFound");
  EXPECT_STREQ(StatusCodeName(StatusCode::kAlreadyExists), "AlreadyExists");
  EXPECT_STREQ(StatusCodeName(StatusCode::kTypeError), "TypeError");
  EXPECT_STREQ(StatusCodeName(StatusCode::kUnimplemented), "Unimplemented");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInternal), "Internal");
  EXPECT_STREQ(StatusCodeName(StatusCode::kCancelled), "Cancelled");
  EXPECT_STREQ(StatusCodeName(StatusCode::kResourceExhausted),
               "ResourceExhausted");
}

TEST(StatusTest, GovernorFactories) {
  Status c = Status::Cancelled("stopped");
  EXPECT_EQ(c.code(), StatusCode::kCancelled);
  EXPECT_EQ(c.ToString(), "Cancelled: stopped");
  Status r = Status::ResourceExhausted("over budget");
  EXPECT_EQ(r.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(r.ToString(), "ResourceExhausted: over budget");
}

Result<int> Half(int v) {
  if (v % 2 != 0) return Status::InvalidArgument("odd");
  return v / 2;
}

Result<int> Quarter(int v) {
  HQL_ASSIGN_OR_RETURN(int h, Half(v));
  return Half(h);
}

TEST(ResultTest, ValueAndError) {
  Result<int> ok = Half(4);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 2);
  EXPECT_EQ(*ok, 2);

  Result<int> bad = Half(3);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(Quarter(8).value(), 2);
  EXPECT_FALSE(Quarter(6).ok());  // inner Half(3) fails
  EXPECT_FALSE(Quarter(5).ok());
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
  Rng c(43);
  EXPECT_NE(Rng(42).Next(), c.Next());
}

TEST(RngTest, UniformBounds) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.Uniform(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(RngTest, BernoulliEdges) {
  Rng rng(9);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
  int heads = 0;
  for (int i = 0; i < 10000; ++i) heads += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(heads / 10000.0, 0.3, 0.03);
}

TEST(RngTest, ZipfSkewsTowardLowRanks) {
  Rng rng(11);
  int low = 0;
  for (int i = 0; i < 5000; ++i) {
    if (rng.Zipf(100, 1.2) < 10) ++low;
  }
  // With s=1.2 the first 10 ranks carry well over half the mass.
  EXPECT_GT(low, 2500);
  // s=0 degrades to uniform.
  low = 0;
  for (int i = 0; i < 5000; ++i) {
    if (rng.Zipf(100, 0.0) < 10) ++low;
  }
  EXPECT_NEAR(low / 5000.0, 0.1, 0.03);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(13);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

TEST(StringsTest, Join) {
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"a"}, ","), "a");
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%zu", static_cast<size_t>(3)), "3");
  EXPECT_EQ(StrFormat("plain"), "plain");
}

TEST(ThreadPoolTest, RunsPlainTasksToCompletion) {
  ThreadPool pool(4);
  std::atomic<int> done{0};
  for (int i = 0; i < 64; ++i) {
    pool.Submit([&done] { done.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(done.load(), 64);
}

TEST(ThreadPoolTest, ThrowingTaskLeavesPoolUsable) {
  // A single worker: the throwing task and every later one share it, so
  // the later tasks run only if the worker survived the throw.
  ThreadPool pool(1);
  std::atomic<int> done{0};
  pool.Submit([] { throw std::runtime_error("kaboom"); });
  pool.Submit([] { throw 42; });  // non-std exceptions too
  for (int i = 0; i < 8; ++i) {
    pool.Submit([&done] { done.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(done.load(), 8);
  // Work submitted after Wait() returns runs normally as well.
  pool.Submit([&done] { done.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(done.load(), 9);
}

TEST(ThreadPoolTest, DestructorJoinsWithPendingFailedBatch) {
  // Destroying a pool with throwing tasks still queued must not deadlock
  // or terminate.
  ThreadPool pool(2);
  for (int i = 0; i < 16; ++i) {
    pool.Submit([] { throw std::runtime_error("boom"); });
  }
  // No Wait: the destructor drains and joins.
}

TEST(StringsTest, Hashing) {
  EXPECT_EQ(HashString("abc"), HashString("abc"));
  EXPECT_NE(HashString("abc"), HashString("abd"));
  EXPECT_NE(HashString(""), HashString("a"));
  EXPECT_NE(HashCombine(1, 2), HashCombine(2, 1));
}

}  // namespace
}  // namespace hql
