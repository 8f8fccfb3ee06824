// Tests for the lockdep validator itself (src/util/lockdep.h): rank-order
// violations abort with both sites, TryLock is exempt, CondVar waits keep
// the held stack consistent, same-rank locks order by address, and a
// cycle split across two runs — invisible to any single run's checks — is
// caught by the offline graph checker (tools/lockdep_report.py).
//
// The whole suite is a no-op unless built with -DAAC_LOCKDEP=ON (the
// asan and tsan gates of tools/check.sh): without the instrumentation
// there is nothing to validate, so the tests skip.

#include "util/lockdep.h"
#include "util/mutex.h"

#include <gtest/gtest.h>

#if defined(AAC_LOCKDEP)
#include <sys/wait.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <thread>
#endif

namespace aac {
namespace {

#if !defined(AAC_LOCKDEP)

TEST(LockdepTest, SkippedWithoutInstrumentation) {
  GTEST_SKIP() << "built without -DAAC_LOCKDEP=ON; nothing to validate";
}

#else  // defined(AAC_LOCKDEP)

TEST(LockdepTest, InOrderAcquisitionIsCleanAndRecordsEdges) {
  lockdep::ResetGraphForTest();
  Mutex outer{LockRank::kAdmission, "t.order.outer"};
  Mutex mid{LockRank::kCacheShard, "t.order.mid"};
  Mutex inner{LockRank::kStrategy, "t.order.inner"};
  {
    MutexLock a(outer);
    MutexLock b(mid);
    MutexLock c(inner);
    EXPECT_EQ(lockdep::HeldCount(), 3);
  }
  EXPECT_EQ(lockdep::HeldCount(), 0);
  // Every held lock feeds an edge to the new one, not just the innermost.
  EXPECT_TRUE(lockdep::HasEdge("t.order.outer", "t.order.mid"));
  EXPECT_TRUE(lockdep::HasEdge("t.order.outer", "t.order.inner"));
  EXPECT_TRUE(lockdep::HasEdge("t.order.mid", "t.order.inner"));
  EXPECT_FALSE(lockdep::HasEdge("t.order.inner", "t.order.mid"));
}

TEST(LockdepDeathTest, AbbaInversionAborts) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex shard{LockRank::kCacheShard, "t.abba.shard"};
  Mutex strategy{LockRank::kStrategy, "t.abba.strategy"};
  // shard → strategy is the declared order; taking them inverted must die
  // with both names and both acquisition sites in the report.
  EXPECT_DEATH(
      {
        MutexLock a(strategy);
        MutexLock b(shard);
      },
      "lockdep: lock-order violation.*t\\.abba\\.shard.*t\\.abba\\.strategy");
}

TEST(LockdepDeathTest, RecursiveAcquisitionAborts) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex mu{LockRank::kCacheShard, "t.recursive"};
  EXPECT_DEATH(
      {
        MutexLock a(mu);
        mu.Lock();
      },
      "lockdep: recursive acquisition");
}

TEST(LockdepTest, TryLockIsExemptFromOrdering) {
  Mutex high{LockRank::kStrategy, "t.try.high"};
  Mutex low{LockRank::kCacheShard, "t.try.low"};
  MutexLock lock(high);
  // Rank-inverted, but TryLock cannot block, so it can never be the
  // waiting side of a deadlock — no validation, no death.
  ASSERT_TRUE(low.TryLock());
  EXPECT_EQ(lockdep::HeldCount(), 2);
  low.Unlock();
  EXPECT_EQ(lockdep::HeldCount(), 1);
}

TEST(LockdepTest, TryLockContentionStillReturnsFalse) {
  Mutex mu{LockRank::kCacheShard, "t.try.contended"};
  mu.Lock();
  std::atomic<bool> tried{false};
  std::atomic<bool> got{true};
  std::thread other([&] {
    got = mu.TryLock();
    tried = true;
  });
  other.join();
  EXPECT_TRUE(tried.load());
  EXPECT_FALSE(got.load());
  mu.Unlock();
}

TEST(LockdepDeathTest, BlockingUnderTryAcquiredLockStillValidates) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex high{LockRank::kStrategy, "t.tryheld.high"};
  Mutex low{LockRank::kCacheShard, "t.tryheld.low"};
  // A try-acquired lock is exempt at its own acquisition but stays on the
  // held stack: block-acquiring below it is a real ABBA half (another
  // thread may block-acquire the pair in declared order) and must die.
  EXPECT_DEATH(
      {
        if (high.TryLock()) {
          MutexLock b(low);
        }
      },
      "lockdep: lock-order violation");
}

TEST(LockdepTest, SameRankNestsInAddressOrder) {
  // Two locks of one class (cache shards): nesting is legal in increasing
  // address order only. Placement-new pins the address relation.
  alignas(Mutex) unsigned char buf[2 * sizeof(Mutex)];
  Mutex* lo = new (buf) Mutex(LockRank::kCacheShard, "t.samerank.lo");
  Mutex* hi =
      new (buf + sizeof(Mutex)) Mutex(LockRank::kCacheShard, "t.samerank.hi");
  {
    MutexLock a(*lo);
    MutexLock b(*hi);
    EXPECT_EQ(lockdep::HeldCount(), 2);
  }
  lo->~Mutex();
  hi->~Mutex();
}

TEST(LockdepDeathTest, SameRankAddressInversionAborts) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  alignas(Mutex) static unsigned char buf[2 * sizeof(Mutex)];
  Mutex* lo = new (buf) Mutex(LockRank::kCacheShard, "t.samerank.inv.lo");
  Mutex* hi = new (buf + sizeof(Mutex))
      Mutex(LockRank::kCacheShard, "t.samerank.inv.hi");
  EXPECT_DEATH(
      {
        MutexLock a(*hi);
        MutexLock b(*lo);
      },
      "lockdep: lock-order violation");
  lo->~Mutex();
  hi->~Mutex();
}

TEST(LockdepTest, CondVarWaitKeepsHeldStackConsistent) {
  Mutex mu{LockRank::kCacheShard, "t.cv"};
  CondVar cv;
  MutexLock lock(mu);
  EXPECT_EQ(lockdep::HeldCount(), 1);
  // The timed wait releases and reacquires the raw mutex below the
  // wrappers; the held stack must be untouched, and the reacquire must not
  // re-validate (the caller's view is "held throughout").
  EXPECT_FALSE(cv.WaitForNanos(mu, 1'000'000));
  EXPECT_EQ(lockdep::HeldCount(), 1);
  // Ordering still works against the reacquired lock.
  Mutex inner{LockRank::kStrategy, "t.cv.inner"};
  {
    MutexLock l2(inner);
    EXPECT_EQ(lockdep::HeldCount(), 2);
  }
  EXPECT_EQ(lockdep::HeldCount(), 1);
}

TEST(LockdepTest, CondVarNotifiedWaitReacquiresCleanly) {
  Mutex mu{LockRank::kBackend, "t.cv.notify"};
  CondVar cv;
  bool done = false;
  std::thread notifier([&] {
    MutexLock lock(mu);
    done = true;
    cv.NotifyOne();
  });
  {
    MutexLock lock(mu);
    while (!done) cv.Wait(mu);
    EXPECT_EQ(lockdep::HeldCount(), 1);
  }
  notifier.join();
  EXPECT_EQ(lockdep::HeldCount(), 0);
}

TEST(LockdepDeathTest, CondVarWaitOnNonInnermostLockAborts) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex outer{LockRank::kCacheShard, "t.cv.outer"};
  Mutex inner{LockRank::kStrategy, "t.cv.noninner"};
  CondVar cv;
  // Waiting on `outer` while `inner` was acquired after it: the wait's
  // reacquire of `outer` would run under `inner` — an inversion.
  EXPECT_DEATH(
      {
        MutexLock a(outer);
        MutexLock b(inner);
        cv.WaitForNanos(outer, 1000);
      },
      "lockdep: CondVar wait on non-innermost lock");
}

TEST(LockdepTest, SharedMutexParticipatesInOrdering) {
  lockdep::ResetGraphForTest();
  Mutex shard{LockRank::kCacheShard, "t.shared.shard"};
  SharedMutex strategy{LockRank::kStrategy, "t.shared.strategy"};
  {
    MutexLock a(shard);
    ReaderMutexLock b(strategy);  // shard → strategy readers: declared order
    EXPECT_EQ(lockdep::HeldCount(), 2);
  }
  {
    MutexLock a(shard);
    WriterMutexLock b(strategy);
    EXPECT_EQ(lockdep::HeldCount(), 2);
  }
  EXPECT_TRUE(lockdep::HasEdge("t.shared.shard", "t.shared.strategy"));
}

TEST(LockdepDeathTest, SharedLockInversionAborts) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex shard{LockRank::kCacheShard, "t.sharedinv.shard"};
  SharedMutex strategy{LockRank::kStrategy, "t.sharedinv.strategy"};
  // Reader/writer inversions deadlock like exclusive ones; shared
  // acquisitions are validated identically.
  EXPECT_DEATH(
      {
        ReaderMutexLock a(strategy);
        MutexLock b(shard);
      },
      "lockdep: lock-order violation");
}

// ---------------------------------------------------------------------------
// The cross-run cycle: two same-rank locks, each run nests them in
// increasing ADDRESS order (so the runtime validator is satisfied), but the
// by-NAME order inverts between the runs — the shape of a code path that
// nests same-class locks in identity order rather than sorting by address.
// No single run can see it; the union of the two edge dumps can.
// ---------------------------------------------------------------------------

class CrossRunFixture : public ::testing::Test {
 protected:
  // Locks `first` then `second` (placement-new at increasing addresses, so
  // the runtime check passes), recording the name edge first→second, and
  // dumps the graph to `path`.
  static void RunAndDump(const char* first_name, const char* second_name,
                         const std::string& path) {
    lockdep::ResetGraphForTest();
    alignas(Mutex) unsigned char buf[2 * sizeof(Mutex)];
    Mutex* lo = new (buf) Mutex(LockRank::kCacheShard, first_name);
    Mutex* hi =
        new (buf + sizeof(Mutex)) Mutex(LockRank::kCacheShard, second_name);
    {
      MutexLock a(*lo);
      MutexLock b(*hi);
    }
    ASSERT_TRUE(lockdep::HasEdge(first_name, second_name));
    lockdep::DumpEdges(path);
    lo->~Mutex();
    hi->~Mutex();
    lockdep::ResetGraphForTest();
  }

  static int RunChecker(const std::string& args) {
    const std::string cmd = std::string("python3 ") + AAC_REPO_ROOT +
                            "/tools/lockdep_report.py " + args +
                            " >/dev/null 2>&1";
    const int status = std::system(cmd.c_str());
    return WEXITSTATUS(status);
  }

  static bool HavePython() {
    return std::system("python3 --version >/dev/null 2>&1") == 0;
  }
};

TEST_F(CrossRunFixture, TwoRunCycleOnlyTheGraphCheckerCatches) {
  if (!HavePython()) GTEST_SKIP() << "python3 not on PATH";
  const std::string dir = ::testing::TempDir();
  const std::string run1 = dir + "/aac_lockdep_run1.tsv";
  const std::string run2 = dir + "/aac_lockdep_run2.tsv";
  std::remove(run1.c_str());
  std::remove(run2.c_str());

  // Run 1 nests cyc.A under cyc.B; run 2 the reverse. Both satisfied the
  // runtime's address-order rule, so neither run aborted.
  RunAndDump("t.cyc.A", "t.cyc.B", run1);
  RunAndDump("t.cyc.B", "t.cyc.A", run2);

  // Each run's own dump is clean...
  EXPECT_EQ(RunChecker(run1), 0);
  EXPECT_EQ(RunChecker(run2), 0);
  // ...but the union is an ABBA: exit 1.
  EXPECT_EQ(RunChecker(run1 + " " + run2), 1);

  std::remove(run1.c_str());
  std::remove(run2.c_str());
}

#endif  // defined(AAC_LOCKDEP)

}  // namespace
}  // namespace aac
