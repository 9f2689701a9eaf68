// Fixture tests for sciolint (tools/sciolint): every rule is exercised with
// at least one firing case, one clean case, and one annotation-suppression
// case, all through the Analysis library API with in-memory sources. The
// fake paths matter: D1 is scoped to src/, and the taxonomy rules key off
// charge_category.h / kernel_stats.h basenames.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "tools/sciolint/analysis.h"

namespace scio::lint {
namespace {

std::vector<Finding> RunOn(const std::string& path, const std::string& source) {
  Analysis analysis;
  analysis.AddFile(path, source);
  return analysis.Run();
}

// Counts active findings (neither annotation-suppressed nor baselined);
// `include_suppressed` counts every finding of the rule regardless.
int CountRule(const std::vector<Finding>& findings, const std::string& rule,
              bool include_suppressed = false) {
  int n = 0;
  for (const Finding& f : findings) {
    if (f.rule == rule && (include_suppressed || (!f.suppressed && !f.baselined))) {
      ++n;
    }
  }
  return n;
}

const Finding* FindRule(const std::vector<Finding>& findings, const std::string& rule) {
  for (const Finding& f : findings) {
    if (f.rule == rule) {
      return &f;
    }
  }
  return nullptr;
}

// A minimal ChargeCat + KernelStats universe so single-fixture tests don't
// trip the taxonomy rules by accident.
constexpr char kCleanTaxonomy[] = R"(
#define SCIO_CHARGE_CATEGORIES(X) \
  X(kOther, other)
)";

// --- D1: nondeterminism sources in src/ -------------------------------------------

TEST(SciolintD1, FlagsWallClockAndRandInSrc) {
  const auto findings = RunOn("src/core/engine.cc", R"(
    #include <cstdlib>
    int Jitter() { return std::rand(); }
    long Now() { return time(nullptr); }
  )");
  EXPECT_EQ(CountRule(findings, "D1"), 2);
}

TEST(SciolintD1, IgnoresFilesOutsideSrc) {
  const auto findings = RunOn("bench/bench_setup.cc", R"(
    long Now() { return time(nullptr); }
  )");
  EXPECT_EQ(CountRule(findings, "D1"), 0)
      << "bench/ and tests/ may read the wall clock";
}

TEST(SciolintD1, CleanSimTimeCodeDoesNotFire) {
  const auto findings = RunOn("src/core/engine.cc", R"(
    long Now(const Kernel& kernel) { return kernel.now(); }
  )");
  EXPECT_EQ(CountRule(findings, "D1"), 0);
}

TEST(SciolintD1, MemberNamedTimeDoesNotFire) {
  const auto findings = RunOn("src/core/engine.cc", R"(
    long Now(const Trace& t) { return t.time(); }
  )");
  EXPECT_EQ(CountRule(findings, "D1"), 0) << "member access is not ::time()";
}

TEST(SciolintD1, AnnotationSuppresses) {
  const auto findings = RunOn("src/core/engine.cc", R"(
    // sciolint: allow(D1) -- one-time startup stamp, never enters sim state
    long Stamp() { return time(nullptr); }
  )");
  EXPECT_EQ(CountRule(findings, "D1"), 0);
  EXPECT_EQ(CountRule(findings, "D1", /*include_suppressed=*/true), 1)
      << "suppressed findings stay visible for auditing";
}

// --- D2: iteration over unordered containers --------------------------------------

constexpr char kUnorderedMember[] = R"(
    #include <unordered_map>
    class Table {
      std::unordered_map<int, int> entries_;
)";

TEST(SciolintD2, FlagsRangeForOverUnorderedMember) {
  const auto findings =
      RunOn("src/core/table.h", std::string(kUnorderedMember) + R"(
      int Sum() {
        int total = 0;
        for (const auto& [k, v] : entries_) { total += v; }
        return total;
      }
    };
  )");
  ASSERT_EQ(CountRule(findings, "D2"), 1);
  EXPECT_NE(FindRule(findings, "D2")->message.find("entries_"), std::string::npos);
}

TEST(SciolintD2, FlagsExplicitBeginIteration) {
  const auto findings =
      RunOn("src/core/table.h", std::string(kUnorderedMember) + R"(
      auto First() { return entries_.begin(); }
    };
  )");
  EXPECT_EQ(CountRule(findings, "D2"), 1);
}

TEST(SciolintD2, OrderedMapIterationIsClean) {
  const auto findings = RunOn("src/core/table.h", R"(
    #include <map>
    class Table {
      std::map<int, int> entries_;
      int Sum() {
        int total = 0;
        for (const auto& [k, v] : entries_) { total += v; }
        return total;
      }
    };
  )");
  EXPECT_EQ(CountRule(findings, "D2"), 0);
}

TEST(SciolintD2, LookupWithoutIterationIsClean) {
  const auto findings =
      RunOn("src/core/table.h", std::string(kUnorderedMember) + R"(
      bool Has(int k) const { return entries_.find(k) != entries_.end(); }
    };
  )");
  EXPECT_EQ(CountRule(findings, "D2"), 0)
      << "point lookups are order-independent; only iteration is flagged";
}

TEST(SciolintD2, AnnotationSuppresses) {
  const auto findings =
      RunOn("src/core/table.h", std::string(kUnorderedMember) + R"(
      size_t Count() {
        size_t n = 0;
        // sciolint: allow(D2) -- order-insensitive fold (count only)
        for (const auto& [k, v] : entries_) { ++n; }
        return n;
      }
    };
  )");
  EXPECT_EQ(CountRule(findings, "D2"), 0);
  EXPECT_EQ(CountRule(findings, "D2", /*include_suppressed=*/true), 1);
}

// --- E1: discarded [[nodiscard]] syscall-wrapper returns --------------------------

constexpr char kSysDecl[] = R"(
    class Sys {
     public:
      [[nodiscard]] int Close(int fd);
      [[nodiscard]] long Write(int fd, Chunk chunk);
    };
)";

TEST(SciolintE1, FlagsDiscardedWrapperReturn) {
  Analysis analysis;
  analysis.AddFile("src/core/sys.h", kSysDecl);
  analysis.AddFile("src/servers/server.cc", R"(
    void Teardown(Sys* sys_, int fd) {
      sys_->Close(fd);
    }
  )");
  const auto findings = analysis.Run();
  ASSERT_EQ(CountRule(findings, "E1"), 1);
  EXPECT_NE(FindRule(findings, "E1")->message.find("Close"), std::string::npos);
}

TEST(SciolintE1, CheckedReturnIsClean) {
  Analysis analysis;
  analysis.AddFile("src/core/sys.h", kSysDecl);
  analysis.AddFile("src/servers/server.cc", R"(
    bool Teardown(Sys* sys_, int fd) {
      return sys_->Close(fd) == 0;
    }
  )");
  EXPECT_EQ(CountRule(analysis.Run(), "E1"), 0);
}

TEST(SciolintE1, UnrelatedClassWithSameMethodNameIsClean) {
  Analysis analysis;
  analysis.AddFile("src/core/sys.h", kSysDecl);
  analysis.AddFile("src/net/socket.cc", R"(
    void Drop(Socket* socket, int fd) {
      socket->Close(fd);
    }
  )");
  EXPECT_EQ(CountRule(analysis.Run(), "E1"), 0)
      << "receiver `socket` does not name the wrapper class Sys";
}

TEST(SciolintE1, VoidCastAloneDoesNotSuppress) {
  Analysis analysis;
  analysis.AddFile("src/core/sys.h", kSysDecl);
  analysis.AddFile("src/servers/server.cc", R"(
    void Teardown(Sys* sys_, int fd) {
      (void)sys_->Close(fd);
    }
  )");
  EXPECT_EQ(CountRule(analysis.Run(), "E1"), 1)
      << "a bare (void) silences the compiler but still needs a reason";
}

TEST(SciolintE1, AnnotationSuppresses) {
  Analysis analysis;
  analysis.AddFile("src/core/sys.h", kSysDecl);
  analysis.AddFile("src/servers/server.cc", R"(
    void Teardown(Sys* sys_, int fd) {
      // sciolint: allow(E1) -- EBADF tolerated during teardown
      (void)sys_->Close(fd);
    }
  )");
  const auto findings = analysis.Run();
  EXPECT_EQ(CountRule(findings, "E1"), 0);
  EXPECT_EQ(CountRule(findings, "E1", /*include_suppressed=*/true), 1);
}

// --- C1: attribution coverage -----------------------------------------------------

TEST(SciolintC1, FlagsUntaggedCharge) {
  const auto findings = RunOn("src/core/engine.cc", R"(
    void Tick(Kernel& kernel) {
      kernel.Charge(cost);
    }
  )");
  EXPECT_EQ(CountRule(findings, "C1"), 1);
}

TEST(SciolintC1, TaggedChargeAndChargeDebtAreClean) {
  const auto findings = RunOn("src/core/engine.cc", R"(
    void Tick(Kernel& kernel) {
      kernel.Charge(cost, ChargeCat::kSyscallEntry);
      kernel.ChargeDebt(cost, ChargeCat::kInterrupt);
    }
  )");
  EXPECT_EQ(CountRule(findings, "C1"), 0);
}

TEST(SciolintC1, FlagsOrphanCategory) {
  Analysis analysis;
  analysis.AddFile("src/trace/charge_category.h", R"(
#define SCIO_CHARGE_CATEGORIES(X) \
  X(kSyscallEntry, syscall_entry) \
  X(kNeverCharged, never_charged)
  )");
  analysis.AddFile("src/core/engine.cc", R"(
    void Tick(Kernel& kernel) {
      kernel.Charge(cost, ChargeCat::kSyscallEntry);
    }
  )");
  const auto findings = analysis.Run();
  ASSERT_EQ(CountRule(findings, "C1"), 1);
  const Finding* f = FindRule(findings, "C1");
  EXPECT_NE(f->message.find("kNeverCharged"), std::string::npos);
  EXPECT_EQ(f->path, "src/trace/charge_category.h")
      << "orphans are reported at the taxonomy declaration";
}

TEST(SciolintC1, FullyReferencedTaxonomyIsClean) {
  Analysis analysis;
  analysis.AddFile("src/trace/charge_category.h", R"(
#define SCIO_CHARGE_CATEGORIES(X) \
  X(kSyscallEntry, syscall_entry)
  )");
  analysis.AddFile("src/core/engine.cc", R"(
    void Tick(Kernel& kernel) {
      kernel.Charge(cost, ChargeCat::kSyscallEntry);
    }
  )");
  EXPECT_EQ(CountRule(analysis.Run(), "C1"), 0);
}

TEST(SciolintC1, AnnotationSuppressesUntaggedCharge) {
  const auto findings = RunOn("src/core/engine.cc", R"(
    void Tick(Kernel& kernel) {
      // sciolint: allow(C1) -- category threaded through the charge vector
      kernel.Charge(items);
    }
  )");
  EXPECT_EQ(CountRule(findings, "C1"), 0);
  EXPECT_EQ(CountRule(findings, "C1", /*include_suppressed=*/true), 1);
}

TEST(SciolintC1, ReferenceOutsideChargeCallDoesNotCoverOrphan) {
  // A category that only appears in a ledger lookup (or a comparison, or a
  // report row) is never actually charged: it must still be an orphan.
  Analysis analysis;
  analysis.AddFile("src/trace/charge_category.h", R"(
#define SCIO_CHARGE_CATEGORIES(X) \
  X(kOnlyLookedUp, only_looked_up)
  )");
  analysis.AddFile("src/core/engine.cc", R"(
    SimDuration Spent(const Kernel& kernel) {
      return kernel.attribution()[ChargeCat::kOnlyLookedUp];
    }
  )");
  const auto findings = analysis.Run();
  ASSERT_EQ(CountRule(findings, "C1"), 1);
  EXPECT_NE(FindRule(findings, "C1")->message.find("kOnlyLookedUp"),
            std::string::npos);
}

TEST(SciolintC1, ReferenceInsideChargeCallCoversOrphan) {
  Analysis analysis;
  analysis.AddFile("src/trace/charge_category.h", R"(
#define SCIO_CHARGE_CATEGORIES(X) \
  X(kDebtCharged, debt_charged)
  )");
  analysis.AddFile("src/core/engine.cc", R"(
    void Tick(Kernel& kernel) {
      kernel.ChargeDebt(kernel.cost().interrupt_per_packet * n,
                        ChargeCat::kDebtCharged);
    }
  )");
  EXPECT_EQ(CountRule(analysis.Run(), "C1"), 0);
}

TEST(SciolintC1, SuccessorCoreCategoriesCoveredByBothChargeForms) {
  // The epoll/kqueue cores charge their categories from process context
  // (Charge, including the multi-item initializer-list form) and interrupt
  // context (ChargeDebt): every successor category referenced either way
  // counts as charged, so a fully-wired taxonomy is orphan-free.
  Analysis analysis;
  analysis.AddFile("src/trace/charge_category.h", R"(
#define SCIO_CHARGE_CATEGORIES(X) \
  X(kEpollCtl, epoll_ctl) \
  X(kEpollReady, epoll_ready) \
  X(kEpollWait, epoll_wait) \
  X(kKqRegister, kq_register) \
  X(kKqFilter, kq_filter)
  )");
  analysis.AddFile("src/core/epoll_core.cc", R"(
    void Ctl(Kernel& kernel) {
      kernel.Charge({{ChargeCat::kEpollCtl, kernel.cost().epoll_ctl_extra}});
      kernel.Charge(kernel.cost().epoll_wait_per_event, ChargeCat::kEpollWait);
      kernel.ChargeDebt(kernel.cost().epoll_ready_enqueue, ChargeCat::kEpollReady);
    }
  )");
  analysis.AddFile("src/core/kqueue_core.cc", R"(
    void Apply(Kernel& kernel) {
      kernel.Charge(kernel.cost().kq_change_per_entry, ChargeCat::kKqRegister);
      kernel.ChargeDebt(kernel.cost().kq_knote_activate, ChargeCat::kKqFilter);
    }
  )");
  EXPECT_EQ(CountRule(analysis.Run(), "C1"), 0);
}

TEST(SciolintC1, SuccessorCategoryChargedNowhereIsOrphan) {
  // Dropping the one ChargeDebt site for the driver-side category must
  // resurface it as an orphan — the coverage is per category, not per file.
  Analysis analysis;
  analysis.AddFile("src/trace/charge_category.h", R"(
#define SCIO_CHARGE_CATEGORIES(X) \
  X(kEpollCtl, epoll_ctl) \
  X(kEpollReady, epoll_ready)
  )");
  analysis.AddFile("src/core/epoll_core.cc", R"(
    void Ctl(Kernel& kernel) {
      kernel.Charge(kernel.cost().epoll_ctl_extra, ChargeCat::kEpollCtl);
    }
  )");
  const auto findings = analysis.Run();
  ASSERT_EQ(CountRule(findings, "C1"), 1);
  EXPECT_NE(FindRule(findings, "C1")->message.find("kEpollReady"),
            std::string::npos);
}

TEST(SciolintC1, FlagsUntaggedChargeRepeated) {
  // A charge run is n charges: it must name its category like one.
  const auto findings = RunOn("src/core/engine.cc", R"(
    void Scan(Kernel& kernel) {
      kernel.ChargeRepeated(cost.scan_per_entry, run);
    }
  )");
  EXPECT_EQ(CountRule(findings, "C1"), 1);
}

TEST(SciolintC1, TaggedChargeRepeatedIsClean) {
  const auto findings = RunOn("src/core/engine.cc", R"(
    void Scan(Kernel* kernel) {
      kernel->ChargeRepeated(cost.scan_per_entry, ChargeCat::kDevpollScan,
                             run + 1);
    }
  )");
  EXPECT_EQ(CountRule(findings, "C1"), 0);
}

TEST(SciolintC1, ChargeRepeatedCoversItsCategory) {
  // A category charged only through runs is charged, not an orphan.
  Analysis analysis;
  analysis.AddFile("src/trace/charge_category.h", R"(
#define SCIO_CHARGE_CATEGORIES(X) \
  X(kDevpollScan, devpoll_scan)
  )");
  analysis.AddFile("src/core/devpoll.cc", R"(
    void Scan(Kernel* kernel) {
      kernel->ChargeRepeated(cost.devpoll_scan_per_interest,
                             ChargeCat::kDevpollScan, run);
    }
  )");
  EXPECT_EQ(CountRule(analysis.Run(), "C1"), 0);
}

TEST(SciolintC1, FlagsUntaggedChargeLocal) {
  // ChargeLocal is the SMP scheduler's plain-call charge helper: no member
  // access, but the category requirement is the same.
  const auto findings = RunOn("src/smp/smp_scheduler.cc", R"(
    void Switch(Ctx& ctx) {
      ChargeLocal(ctx, cost);
    }
  )");
  EXPECT_EQ(CountRule(findings, "C1"), 1);
}

TEST(SciolintC1, TaggedChargeLocalIsClean) {
  const auto findings = RunOn("src/smp/smp_scheduler.cc", R"(
    void Switch(Ctx& ctx) {
      ChargeLocal(ctx, ChargeCat::kSyscallEntry, cost);
    }
  )");
  EXPECT_EQ(CountRule(findings, "C1"), 0);
}

// --- S1: SMP code must name its wake semantics -------------------------------------

TEST(SciolintS1, FlagsBareWakeInSmp) {
  const auto findings = RunOn("src/smp/smp_scheduler.cc", R"(
    void Kick(WaitQueue& q) {
      q.Wake();
    }
  )");
  ASSERT_EQ(CountRule(findings, "S1"), 1);
  const Finding* f = FindRule(findings, "S1");
  EXPECT_NE(f->message.find("WakeOne"), std::string::npos);
}

TEST(SciolintS1, FlagsBareWakeInServers) {
  const auto findings = RunOn("src/servers/worker_pool.cc", R"(
    void Kick(File* file) {
      file->poll_wait()->Wake();
    }
  )");
  EXPECT_EQ(CountRule(findings, "S1"), 1);
}

TEST(SciolintS1, WakeOneAndWakeAllAreClean) {
  const auto findings = RunOn("src/smp/smp_scheduler.cc", R"(
    void Kick(WaitQueue& q) {
      q.WakeOne();
      q.WakeAll();
    }
  )");
  EXPECT_EQ(CountRule(findings, "S1"), 0);
}

TEST(SciolintS1, IgnoresWakeOutsideSmpLayers) {
  // Process::Wake (a single process's wake flag) is legitimate kernel-layer
  // vocabulary; the rule is scoped to the SMP worker paths.
  const auto findings = RunOn("src/kernel/sim_kernel.cc", R"(
    void Deliver(Process& proc) {
      proc.Wake();
    }
  )");
  EXPECT_EQ(CountRule(findings, "S1"), 0);
}

TEST(SciolintS1, AnnotationSuppressesBareWake) {
  const auto findings = RunOn("src/smp/smp_scheduler.cc", R"(
    void Kick(Process& proc) {
      // sciolint: allow(S1) -- single-process wake flag, not a wait queue
      proc.Wake();
    }
  )");
  EXPECT_EQ(CountRule(findings, "S1"), 0);
  EXPECT_EQ(CountRule(findings, "S1", /*include_suppressed=*/true), 1);
}

// --- P1: fd-keyed node maps in per-connection layers ------------------------------

TEST(SciolintP1, FlagsFdKeyedMapInServers) {
  const auto findings = RunOn("src/servers/server_base.h", R"(
    #include <map>
    class ServerBase {
      std::map<int, Conn> conns_;
    };
  )");
  ASSERT_EQ(CountRule(findings, "P1"), 1);
  const Finding* f = FindRule(findings, "P1");
  EXPECT_NE(f->message.find("paged slab"), std::string::npos);
}

TEST(SciolintP1, FlagsFdKeyedUnorderedMapInPosix) {
  const auto findings = RunOn("src/posix/poll_backend.h", R"(
    std::unordered_map<int, size_t> index_;
  )");
  EXPECT_EQ(CountRule(findings, "P1"), 1);
}

TEST(SciolintP1, NonIntKeysAndOtherLayersAreClean) {
  // String-keyed maps in scope, and int-keyed maps outside the
  // per-connection layers (tools/, bench/, src/http), are not P1's business.
  const auto in_scope = RunOn("src/kernel/process.h", R"(
    std::map<std::string, int> by_name_;
  )");
  EXPECT_EQ(CountRule(in_scope, "P1"), 0);
  const auto out_of_scope = RunOn("tools/report/tables.cc", R"(
    std::map<int, Row> rows_by_figure_;
  )");
  EXPECT_EQ(CountRule(out_of_scope, "P1"), 0);
}

TEST(SciolintP1, FlagsFdKeyedMapInSuccessorCores) {
  // The successor cores live in src/core and their per-fd state must ride
  // the paged slabs: an fd-keyed node map in an epoll/kqueue path is exactly
  // the scalability bug P1 exists to catch.
  const auto epoll = RunOn("src/core/epoll_core.h", R"(
    #include <map>
    class EpollDevice {
      std::map<int, EpollItem> items_;
    };
  )");
  ASSERT_EQ(CountRule(epoll, "P1"), 1);
  EXPECT_NE(FindRule(epoll, "P1")->message.find("paged slab"), std::string::npos);
  const auto kqueue = RunOn("src/core/kqueue_core.cc", R"(
    std::unordered_map<int, KnoteSlot> slots_;
  )");
  EXPECT_EQ(CountRule(kqueue, "P1"), 1);
}

TEST(SciolintP1, FlagsFdKeyedMapInTransport) {
  // The transport plane carries per-connection TCP state and sits squarely
  // in P1's scope: cold/hot blocks belong on the paged slabs, and a
  // connection-keyed node map there is the same scalability bug as in the
  // event cores.
  const auto findings = RunOn("src/transport/transport_plane.h", R"(
    #include <map>
    class TransportPlane {
      std::map<int, TcpConn> conns_;
    };
  )");
  ASSERT_EQ(CountRule(findings, "P1"), 1);
  EXPECT_NE(FindRule(findings, "P1")->message.find("paged slab"), std::string::npos);
}

TEST(SciolintP1, AnnotationSuppressesNonFdIntKey) {
  const auto findings = RunOn("src/servers/defense.h", R"(
    // sciolint: allow(P1) -- keyed by traffic band, not by fd
    std::map<int, BandRule> band_rules_;
  )");
  EXPECT_EQ(CountRule(findings, "P1"), 0);
  EXPECT_EQ(CountRule(findings, "P1", /*include_suppressed=*/true), 1);
}

// --- M1: KernelStats counter naming -----------------------------------------------

TEST(SciolintM1, FlagsBareRowName) {
  const auto findings = RunOn("src/kernel/kernel_stats.h", R"(
#define SCIO_KERNEL_STATS_FIELDS(X) \
  X(syscalls, "syscalls") \
  X(poll_calls, "poll.calls")
  )");
  ASSERT_EQ(CountRule(findings, "M1"), 1);
  EXPECT_NE(FindRule(findings, "M1")->message.find("syscalls"), std::string::npos);
}

TEST(SciolintM1, FlagsDuplicateRowName) {
  const auto findings = RunOn("src/kernel/kernel_stats.h", R"(
#define SCIO_KERNEL_STATS_FIELDS(X) \
  X(poll_calls, "poll.calls") \
  X(poll_calls_again, "poll.calls")
  )");
  EXPECT_GE(CountRule(findings, "M1"), 1);
}

TEST(SciolintM1, ConventionalRowsAreClean) {
  const auto findings = RunOn("src/kernel/kernel_stats.h", R"(
#define SCIO_KERNEL_STATS_FIELDS(X) \
  X(syscalls, "sys.syscalls") \
  X(poll_calls, "poll.calls") \
  X(devpoll_scan_stale_fd, "devpoll.scan_stale_fd")
  )");
  EXPECT_EQ(CountRule(findings, "M1"), 0);
}

TEST(SciolintM1, AnnotationSuppresses) {
  const auto findings = RunOn("src/kernel/kernel_stats.h", R"(
#define SCIO_KERNEL_STATS_FIELDS(X) \
  // sciolint: allow(M1) -- legacy row name pinned by external dashboards
  X(syscalls, "syscalls")
  )");
  EXPECT_EQ(CountRule(findings, "M1"), 0);
  EXPECT_EQ(CountRule(findings, "M1", /*include_suppressed=*/true), 1);
}

// --- ANN: annotation hygiene ------------------------------------------------------

TEST(SciolintAnn, MalformedAnnotationIsItselfAFinding) {
  const auto findings = RunOn("src/core/engine.cc", R"(
    // sciolint: allow(D1)
    long Stamp() { return time(nullptr); }
  )");
  EXPECT_EQ(CountRule(findings, "ANN"), 1) << "missing `-- reason`";
  EXPECT_EQ(CountRule(findings, "D1"), 1)
      << "a malformed annotation must not suppress anything";
}

TEST(SciolintAnn, UnknownRuleIdIsFlagged) {
  const auto findings = RunOn("src/core/engine.cc", R"(
    // sciolint: allow(Z9) -- no such rule
    int x = 0;
  )");
  EXPECT_EQ(CountRule(findings, "ANN"), 1);
}

TEST(SciolintAnn, WellFormedAnnotationIsClean) {
  const auto findings = RunOn("src/core/engine.cc", R"(
    // sciolint: allow(D1) -- startup stamp only
    long Stamp() { return time(nullptr); }
  )");
  EXPECT_EQ(CountRule(findings, "ANN"), 0);
}

// --- baseline suppression ---------------------------------------------------------

TEST(SciolintBaseline, FingerprintSuppressesButKeepsFindingVisible) {
  const std::string source = R"(
    long Stamp() { return time(nullptr); }
  )";
  Analysis first;
  first.AddFile("src/core/engine.cc", source);
  const auto initial = first.Run();
  ASSERT_EQ(CountRule(initial, "D1"), 1);
  const std::string fingerprint = Fingerprint(*FindRule(initial, "D1"));

  Analysis second;
  second.AddFile("src/core/engine.cc", source);
  second.LoadBaseline("# comment line\n" + fingerprint + "\n");
  const auto baselined = second.Run();
  EXPECT_EQ(CountRule(baselined, "D1"), 0);
  ASSERT_EQ(baselined.size(), 1u);
  EXPECT_TRUE(baselined[0].baselined);
}

TEST(SciolintBaseline, FingerprintSurvivesLineDrift) {
  Analysis first;
  first.AddFile("src/core/engine.cc", "long Stamp() { return time(nullptr); }\n");
  Analysis second;
  second.AddFile("src/core/engine.cc",
                 "// new leading comment\n\nlong Stamp() { return time(nullptr); }\n");
  const auto a = first.Run();
  const auto b = second.Run();
  ASSERT_EQ(CountRule(a, "D1"), 1);
  ASSERT_EQ(CountRule(b, "D1"), 1);
  EXPECT_EQ(Fingerprint(*FindRule(a, "D1")), Fingerprint(*FindRule(b, "D1")))
      << "the fingerprint keys on content, not line numbers";
}

// The clean-taxonomy helper is referenced so the fixture stays honest if a
// future test needs it.
TEST(SciolintFixture, CleanTaxonomyParses) {
  const auto findings = RunOn("src/trace/other_header.h", kCleanTaxonomy);
  EXPECT_TRUE(findings.empty());
}

// --- F1: use-after-close (flow-sensitive) -----------------------------------------

TEST(SciolintF1, FlagsStraightLineUseAfterClose) {
  const auto findings = RunOn("src/servers/conn.cc", R"(
    void Teardown(Sys* sys_, int fd) {
      sys_->Close(fd);
      sys_->Write(fd, "x", 1);
    }
  )");
  EXPECT_EQ(CountRule(findings, "F1"), 1);
}

TEST(SciolintF1, FlagsCloseOnOneBranchOnly) {
  // May-analysis: closed on any incoming path taints the join.
  const auto findings = RunOn("src/servers/conn.cc", R"(
    void Maybe(Sys* sys, int fd, bool teardown) {
      if (teardown) {
        sys->Close(fd);
      }
      sys->Read(fd, 1);
    }
  )");
  EXPECT_EQ(CountRule(findings, "F1"), 1);
}

TEST(SciolintF1, ReassignmentRevivesTheFd) {
  const auto findings = RunOn("src/servers/conn.cc", R"(
    void Recycle(Sys* sys, int fd) {
      sys->Close(fd);
      fd = sys->Accept(0);
      sys->Read(fd, 1);
    }
  )");
  EXPECT_EQ(CountRule(findings, "F1"), 0);
}

TEST(SciolintF1, NonSyscallReceiverCloseIsNotAClose) {
  // conns_.Close(fd) is connection bookkeeping, not the kernel close — the
  // server teardown order `conns_.Close(fd); sys_->Close(fd);` is legal.
  const auto findings = RunOn("src/servers/conn.cc", R"(
    void CloseConn(Sys* sys_, Table& conns_, int fd) {
      conns_.Close(fd);
      (void)sys_->Close(fd);
    }
  )");
  EXPECT_EQ(CountRule(findings, "F1"), 0);
}

TEST(SciolintF1, FlagsSlabUseAfterRelease) {
  const auto findings = RunOn("src/kernel/store.cc", R"(
    void Drop(Store& slots_, size_t idx) {
      slots_.ReleaseAt(idx);
      slots_.At(idx).reset();
    }
  )");
  EXPECT_EQ(CountRule(findings, "F1"), 1);
}

TEST(SciolintF1, EmplaceRearmsTheSlabIndex) {
  const auto findings = RunOn("src/kernel/store.cc", R"(
    void Recycle(Store& slots_, size_t idx) {
      slots_.ReleaseAt(idx);
      slots_.EmplaceAt(idx);
      slots_.At(idx).reset();
    }
  )");
  EXPECT_EQ(CountRule(findings, "F1"), 0);
}

TEST(SciolintF1, AnnotationSuppresses) {
  const auto findings = RunOn("src/servers/conn.cc", R"(
    void Teardown(Sys* sys_, int fd) {
      sys_->Close(fd);
      // sciolint: allow(F1) -- double-shutdown probe, the second is expected
      sys_->Write(fd, "x", 1);
    }
  )");
  EXPECT_EQ(CountRule(findings, "F1"), 0);
  EXPECT_EQ(CountRule(findings, "F1", /*include_suppressed=*/true), 1);
}

// --- W1: waiter pairing (flow-sensitive) ------------------------------------------

TEST(SciolintW1, FlagsEarlyReturnWithWaiterStillQueued) {
  const auto findings = RunOn("src/core/waiters.cc", R"(
    int Wait(File* file, Waiter* w, bool abort) {
      file->poll_wait().Add(w);
      if (abort) {
        return -1;
      }
      w->Detach();
      return 0;
    }
  )");
  EXPECT_EQ(CountRule(findings, "W1"), 1) << "the abort path leaks the waiter";
}

TEST(SciolintW1, DetachOnEveryPathIsClean) {
  const auto findings = RunOn("src/core/waiters.cc", R"(
    int Wait(File* file, Waiter* w, bool abort) {
      file->poll_wait().AddExclusive(w);
      if (abort) {
        w->Detach();
        return -1;
      }
      w->Detach();
      return 0;
    }
  )");
  EXPECT_EQ(CountRule(findings, "W1"), 0);
}

TEST(SciolintW1, PooledDetachLoopIsClean) {
  // The devpoll/poll shape: register across a loop, detach across a loop.
  // The clear-wins merge keeps the loop-exit edge from false-positiving.
  const auto findings = RunOn("src/core/waiters.cc", R"(
    void WaitAll(std::vector<File*>& files, Waiter* w) {
      for (File* f : files) {
        f->poll_wait().Add(w);
      }
      for (File* f : files) {
        w->Detach();
      }
    }
  )");
  EXPECT_EQ(CountRule(findings, "W1"), 0);
}

TEST(SciolintW1, EarlyReturnInsideLoopIsFlagged) {
  // CFG edge case: the return exits through the loop body, not the loop exit.
  const auto findings = RunOn("src/core/waiters.cc", R"(
    int Scan(File* f, Waiter* w, int n) {
      f->poll_wait().Add(w);
      for (int i = 0; i < n; ++i) {
        if (i == 7) {
          return -1;
        }
      }
      w->Detach();
      return 0;
    }
  )");
  EXPECT_EQ(CountRule(findings, "W1"), 1);
}

TEST(SciolintW1, RegistrationAndDetachInSeparateLambdasPair) {
  // The SimKernel::WaitFor shape: a core registers its waiter in an arm
  // lambda and detaches it in a disarm lambda of the same function.
  const auto findings = RunOn("src/core/waiters.cc", R"(
    int Wait(SimKernel* kernel, Process& proc, File* file, Waiter* w) {
      auto arm = [&] { file->poll_wait().AddExclusive(w); };
      auto disarm = [&] { w->Detach(); };
      return kernel->WaitFor(proc, 10, [] { return 0; }, arm, disarm);
    }
  )");
  EXPECT_EQ(CountRule(findings, "W1"), 0);
}

TEST(SciolintW1, LambdaRegistrationWithoutDetachIsFlagged) {
  const auto findings = RunOn("src/core/waiters.cc", R"(
    int Wait(SimKernel* kernel, Process& proc, File* file, Waiter* w) {
      auto arm = [&] { file->poll_wait().AddExclusive(w); };
      auto disarm = [&] {};
      return kernel->WaitFor(proc, 10, [] { return 0; }, arm, disarm);
    }
  )");
  EXPECT_EQ(CountRule(findings, "W1"), 1);
}

TEST(SciolintW1, OutOfScopeLayersAreIgnored) {
  const auto findings = RunOn("src/load/driver.cc", R"(
    int Wait(File* file, Waiter* w) {
      file->poll_wait().Add(w);
      return -1;
    }
  )");
  EXPECT_EQ(CountRule(findings, "W1"), 0) << "W1 is scoped to kernel/core/smp";
}

TEST(SciolintW1, AnnotationSuppresses) {
  const auto findings = RunOn("src/core/waiters.cc", R"(
    int Park(File* file, Waiter* w) {
      file->poll_wait().Add(w);
      // sciolint: allow(W1) -- waiter intentionally stays parked until wake
      return 0;
    }
  )");
  EXPECT_EQ(CountRule(findings, "W1"), 0);
  EXPECT_EQ(CountRule(findings, "W1", /*include_suppressed=*/true), 1);
}

// --- H1: hot-path allocation ban --------------------------------------------------

TEST(SciolintH1, HotpathAnnotationBansAllocation) {
  const auto findings = RunOn("src/core/fast.cc", R"(
    // sciolint: hotpath
    void Harvest() {
      auto w = std::make_unique<int>(3);
    }
  )");
  EXPECT_EQ(CountRule(findings, "H1"), 1);
}

TEST(SciolintH1, AnnotatedMemberTemplateInAHeaderBansAllocation) {
  // SimKernel::WaitFor's shape: the annotation sits above the template
  // header of an inline member template.
  const auto findings = RunOn("src/kernel/waits.h", R"(
    class Kernel {
     public:
      // sciolint: hotpath
      template <typename Scan>
      int WaitFor(Scan&& scan) {
        std::function<int()> boxed = scan;
        return boxed();
      }
    };
  )");
  EXPECT_EQ(CountRule(findings, "H1"), 1);
}

TEST(SciolintH1, BuiltinHotLoopNeedsNoAnnotation) {
  const auto findings = RunOn("src/core/poll_syscall.cc", R"(
    int PollSyscall::ScanOnce(int n) {
      int* p = new int[n];
      return p[0];
    }
  )");
  EXPECT_EQ(CountRule(findings, "H1"), 1)
      << "the six cores' harvest/wait loops are hot by default";
}

TEST(SciolintH1, StdFunctionConstructionIsFlagged) {
  const auto findings = RunOn("src/core/fast.cc", R"(
    // sciolint: hotpath
    void Harvest(int x) {
      std::function<void()> cb = [x] { Use(x); };
      cb();
    }
  )");
  EXPECT_EQ(CountRule(findings, "H1"), 1);
}

TEST(SciolintH1, ColdFunctionsMayAllocate) {
  const auto findings = RunOn("src/core/fast.cc", R"(
    void Setup() {
      auto w = std::make_unique<int>(3);
    }
  )");
  EXPECT_EQ(CountRule(findings, "H1"), 0);
}

TEST(SciolintH1, AnnotationSuppressesPoolGrowth) {
  const auto findings = RunOn("src/core/fast.cc", R"(
    // sciolint: hotpath
    void Harvest(std::vector<std::unique_ptr<int>>& pool, size_t used) {
      if (used == pool.size()) {
        // sciolint: allow(H1) -- bounded one-time pool growth
        pool.push_back(std::make_unique<int>(3));
      }
    }
  )");
  EXPECT_EQ(CountRule(findings, "H1"), 0);
  EXPECT_EQ(CountRule(findings, "H1", /*include_suppressed=*/true), 1);
}

TEST(SciolintH1, TransportAckPathHotpathBansAllocation) {
  // The transport plane's per-ACK path is annotated hot in the real tree;
  // this fixture pins that the annotation carries the allocation ban into
  // src/transport the same way it does in the cores.
  const auto findings = RunOn("src/transport/ack_path.cc", R"(
    // sciolint: hotpath
    void OnAckPacket(int ci) {
      auto scratch = std::make_unique<int>(ci);
    }
  )");
  EXPECT_EQ(CountRule(findings, "H1"), 1);
}

TEST(SciolintH1, MalformedHotpathDirectiveIsAnnFinding) {
  const auto findings = RunOn("src/core/fast.cc", R"(
    // sciolint: hotpath because it is fast
    void Harvest() {}
  )");
  EXPECT_EQ(CountRule(findings, "ANN"), 1) << "freeform tail needs `--`";
}

// --- E2: errno discipline ---------------------------------------------------------

TEST(SciolintE2, FlagsBareMinusOneReturn) {
  const auto findings = RunOn("src/kernel/thing.cc", R"(
    int Open(int fd) {
      if (fd < 0) {
        return -1;
      }
      return 0;
    }
  )");
  EXPECT_EQ(CountRule(findings, "E2"), 1);
}

TEST(SciolintE2, ErrnoAssignmentOnThePathIsClean) {
  const auto findings = RunOn("src/kernel/thing.cc", R"(
    int Open(int fd) {
      if (fd < 0) {
        errno = 9;
        return -1;
      }
      return 0;
    }
  )");
  EXPECT_EQ(CountRule(findings, "E2"), 0);
}

TEST(SciolintE2, AssignmentMustDominateTheReturn) {
  // errno set on only one incoming path is not discipline (must-analysis).
  const auto findings = RunOn("src/kernel/thing.cc", R"(
    int Op(int fd) {
      if (fd > 9) {
        errno = 22;
      }
      if (fd < 0) {
        return -1;
      }
      return 0;
    }
  )");
  EXPECT_EQ(CountRule(findings, "E2"), 1);
}

TEST(SciolintE2, NestedBranchesBothAssigningAreClean) {
  // CFG edge case: the assignment arrives through two different inner arms.
  const auto findings = RunOn("src/kernel/thing.cc", R"(
    int Nested(int a, int b) {
      if (a) {
        if (b) {
          errno = 1;
        } else {
          errno = 2;
        }
        return -1;
      }
      return 0;
    }
  )");
  EXPECT_EQ(CountRule(findings, "E2"), 0);
}

TEST(SciolintE2, NamedCodesAndArithmeticAreNotErrorExits) {
  const auto findings = RunOn("src/kernel/thing.cc", R"(
    int Shapes(int a) {
      if (a == 1) {
        return kErrBadF;
      }
      if (a == 2) {
        return a - 1;
      }
      return 0;
    }
  )");
  EXPECT_EQ(CountRule(findings, "E2"), 0)
      << "only a literal `return -N;` is an undisciplined error exit";
}

TEST(SciolintE2, ErrnoComparisonDoesNotCount) {
  const auto findings = RunOn("src/kernel/thing.cc", R"(
    int Op(int fd) {
      if (errno == 4) {
        return -1;
      }
      return 0;
    }
  )");
  EXPECT_EQ(CountRule(findings, "E2"), 1) << "reading errno is not assigning it";
}

TEST(SciolintE2, OutOfScopeLayersAreIgnored) {
  const auto findings = RunOn("src/servers/loop.cc", R"(
    int Op(int fd) {
      if (fd < 0) {
        return -1;
      }
      return 0;
    }
  )");
  EXPECT_EQ(CountRule(findings, "E2"), 0) << "E2 is scoped to kernel/posix";
}

TEST(SciolintE2, AnnotationSuppresses) {
  const auto findings = RunOn("src/kernel/thing.cc", R"(
    int Open(int fd) {
      if (fd < 0) {
        // sciolint: allow(E2) -- pinned -1 API, caller owns the errno code
        return -1;
      }
      return 0;
    }
  )");
  EXPECT_EQ(CountRule(findings, "E2"), 0);
  EXPECT_EQ(CountRule(findings, "E2", /*include_suppressed=*/true), 1);
}

// --- X1: exhaustive switch over taxonomy enums ------------------------------------

constexpr char kThreeCatTaxonomy[] = R"(
#define SCIO_CHARGE_CATEGORIES(X) \
  X(kAlpha, alpha) \
  X(kBeta, beta) \
  X(kGamma, gamma)
)";

std::vector<Finding> RunOnPair(const std::string& path, const std::string& source) {
  Analysis analysis;
  analysis.AddFile("src/trace/charge_category.h", kThreeCatTaxonomy);
  analysis.AddFile(path, source);
  return analysis.Run();
}

TEST(SciolintX1, FlagsMissingEnumerator) {
  const auto findings = RunOnPair("src/core/use.cc", R"(
    int Name(ChargeCat c) {
      switch (c) {
        case ChargeCat::kAlpha: return 1;
        case ChargeCat::kBeta: return 2;
      }
      return 0;
    }
  )");
  ASSERT_EQ(CountRule(findings, "X1"), 1);
  EXPECT_NE(FindRule(findings, "X1")->message.find("kGamma"), std::string::npos);
}

TEST(SciolintX1, FullCoverageIsClean) {
  const auto findings = RunOnPair("src/core/use.cc", R"(
    int Name(ChargeCat c) {
      switch (c) {
        case ChargeCat::kAlpha: return 1;
        case ChargeCat::kBeta: return 2;
        case ChargeCat::kGamma: return 3;
      }
      return 0;
    }
  )");
  EXPECT_EQ(CountRule(findings, "X1"), 0);
}

TEST(SciolintX1, AnnotatedDefaultEscapes) {
  const auto findings = RunOnPair("src/core/use.cc", R"(
    int Name(ChargeCat c) {
      switch (c) {
        case ChargeCat::kAlpha: return 1;
        // sciolint: allow(X1) -- only kAlpha is special-cased here
        default: return 0;
      }
    }
  )");
  EXPECT_EQ(CountRule(findings, "X1"), 0);
  EXPECT_EQ(CountRule(findings, "X1", /*include_suppressed=*/true), 1);
}

TEST(SciolintX1, MacroGeneratedSwitchIsExhaustiveByConstruction) {
  const auto findings = RunOnPair("src/trace/names.cc", R"(
    const char* Name(ChargeCat c) {
      switch (c) {
    #define X(name, str) case ChargeCat::name: return #str;
        SCIO_CHARGE_CATEGORIES(X)
    #undef X
      }
      return "unknown";
    }
  )");
  EXPECT_EQ(CountRule(findings, "X1"), 0);
}

TEST(SciolintX1, CoversMemSysTaxonomy) {
  Analysis analysis;
  analysis.AddFile("src/trace/mem_ledger.h", R"(
#define SCIO_MEM_SUBSYSTEMS(X) \
  X(kFdTable, fd_table) \
  X(kConns, conns)
)");
  analysis.AddFile("src/trace/report.cc", R"(
    int Bytes(MemSys sys) {
      switch (sys) {
        case MemSys::kFdTable: return 1;
      }
      return 0;
    }
  )");
  const auto findings = analysis.Run();
  ASSERT_EQ(CountRule(findings, "X1"), 1);
  EXPECT_NE(FindRule(findings, "X1")->message.find("kConns"), std::string::npos);
}

TEST(SciolintX1, GrownTcpChargeTaxonomyKeepsSwitchesHonest) {
  // The transport plane grew the charge taxonomy by four categories; a
  // switch that enumerates only the old world must name the newcomer.
  Analysis analysis;
  analysis.AddFile("src/trace/charge_category.h", R"(
#define SCIO_CHARGE_CATEGORIES(X) \
  X(kInterrupt, interrupt) \
  X(kTcpSegment, t_tcp_segment) \
  X(kTcpAck, t_tcp_ack) \
  X(kTcpRetransmit, t_tcp_retransmit) \
  X(kTcpPacing, t_tcp_pacing)
)");
  analysis.AddFile("src/transport/report.cc", R"(
    int Weigh(ChargeCat c) {
      switch (c) {
        case ChargeCat::kInterrupt: return 1;
        case ChargeCat::kTcpSegment: return 2;
        case ChargeCat::kTcpAck: return 3;
        case ChargeCat::kTcpRetransmit: return 4;
      }
      return 0;
    }
  )");
  const auto findings = analysis.Run();
  ASSERT_EQ(CountRule(findings, "X1"), 1);
  EXPECT_NE(FindRule(findings, "X1")->message.find("kTcpPacing"), std::string::npos);
}

TEST(SciolintX1, GrownMemSysTaxonomyWithTransportRowIsClean) {
  Analysis analysis;
  analysis.AddFile("src/trace/mem_ledger.h", R"(
#define SCIO_MEM_SUBSYSTEMS(X) \
  X(kConns, conns) \
  X(kTransport, transport)
)");
  analysis.AddFile("src/trace/report.cc", R"(
    int Bytes(MemSys sys) {
      switch (sys) {
        case MemSys::kConns: return 1;
        case MemSys::kTransport: return 2;
      }
      return 0;
    }
  )");
  EXPECT_EQ(CountRule(analysis.Run(), "X1"), 0);
}

// --- CFG edge cases shared by the flow rules --------------------------------------

TEST(SciolintFlowCfg, GotoFreeSwitchFallthroughCarriesState) {
  // case 0 falls through into case 1: the close reaches the read.
  const auto findings = RunOn("src/servers/conn.cc", R"(
    void Dispatch(Sys* sys, int fd, int op) {
      switch (op) {
        case 0:
          sys->Close(fd);
        case 1:
          sys->Read(fd, 1);
          break;
      }
    }
  )");
  EXPECT_EQ(CountRule(findings, "F1"), 1);
}

TEST(SciolintFlowCfg, BreakSeversTheFallthroughEdge) {
  const auto findings = RunOn("src/servers/conn.cc", R"(
    void Dispatch(Sys* sys, int fd, int op) {
      switch (op) {
        case 0:
          sys->Close(fd);
          break;
        case 1:
          sys->Read(fd, 1);
          break;
      }
    }
  )");
  EXPECT_EQ(CountRule(findings, "F1"), 0);
}

TEST(SciolintFlowCfg, InfiniteLoopReturnsAreTheOnlyExits) {
  // `while (true)` has no natural exit edge; the waiter is detached before
  // every return inside the loop, so the pairing holds.
  const auto findings = RunOn("src/core/waiters.cc", R"(
    int Wait(File* file, Waiter* w) {
      while (true) {
        file->poll_wait().AddExclusive(w);
        Block();
        w->Detach();
        if (Done()) {
          return 0;
        }
      }
    }
  )");
  EXPECT_EQ(CountRule(findings, "W1"), 0);
}

// --- baseline machinery across the flow rules -------------------------------------

TEST(SciolintFlowBaseline, E2FingerprintSurvivesLineDrift) {
  const std::string body = R"(
    int Open(int fd) {
      if (fd < 0) {
        return -1;
      }
      return 0;
    }
  )";
  Analysis first;
  first.AddFile("src/kernel/thing.cc", body);
  Analysis second;
  second.AddFile("src/kernel/thing.cc", "// new leading comment\n" + body);
  const auto a = first.Run();
  const auto b = second.Run();
  ASSERT_EQ(CountRule(a, "E2"), 1);
  ASSERT_EQ(CountRule(b, "E2"), 1);
  EXPECT_EQ(Fingerprint(*FindRule(a, "E2")), Fingerprint(*FindRule(b, "E2")));
}

TEST(SciolintFlowBaseline, BaselineSuppressesFlowFinding) {
  const std::string body = R"(
    void Teardown(Sys* sys_, int fd) {
      sys_->Close(fd);
      sys_->Write(fd, "x", 1);
    }
  )";
  Analysis first;
  first.AddFile("src/servers/conn.cc", body);
  const auto initial = first.Run();
  ASSERT_EQ(CountRule(initial, "F1"), 1);

  Analysis second;
  second.AddFile("src/servers/conn.cc", body);
  second.LoadBaseline(Fingerprint(*FindRule(initial, "F1")) + "\n");
  const auto baselined = second.Run();
  EXPECT_EQ(CountRule(baselined, "F1"), 0);
  EXPECT_EQ(CountRule(baselined, "F1", /*include_suppressed=*/true), 1);
}

}  // namespace
}  // namespace scio::lint
