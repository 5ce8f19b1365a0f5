// Deterministic fault-injection tests: the util::fault harness itself,
// and every recovery policy it exists to exercise — the netflow
// candidate-escalation retry, the assignment fallback chain, the
// cost-driven-skew and incremental-placement fallbacks, deadline
// abandonment at the best-so-far snapshot, between-stage guards, and
// observer shielding. With a fault armed at each site (one at a time) the
// full flow must still complete with a valid FlowResult and record the
// recovery in both the result and the JSON trace; with nothing armed the
// instrumented flow must be bit-identical to a guard-free run.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/flow.hpp"
#include "core/guards.hpp"
#include "core/pipeline.hpp"
#include "core/stages.hpp"
#include "core/trace.hpp"
#include "netlist/generator.hpp"
#include "netlist/placement_io.hpp"
#include "serve/design_cache.hpp"
#include "serve/job.hpp"
#include "serve/metrics.hpp"
#include "serve/scheduler.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/parallel.hpp"

namespace rotclk::core {
namespace {

namespace fault = util::fault;

netlist::Design small_circuit(std::uint64_t seed = 42) {
  netlist::GeneratorConfig cfg;
  cfg.num_gates = 368;
  cfg.num_flip_flops = 32;
  cfg.num_primary_inputs = 12;
  cfg.num_primary_outputs = 12;
  cfg.seed = seed;
  return netlist::generate_circuit(cfg);
}

FlowConfig small_config() {
  FlowConfig cfg;
  cfg.ring_config.rings = 4;
  cfg.max_iterations = 3;
  return cfg;
}

int count_kind(const std::vector<util::RecoveryEvent>& events,
               util::RecoveryEvent::Kind kind) {
  return static_cast<int>(
      std::count_if(events.begin(), events.end(),
                    [&](const util::RecoveryEvent& e) {
                      return e.kind == kind;
                    }));
}

/// Every fault test leaves the registry clean even on assertion failure.
struct FaultTest : ::testing::Test {
  void SetUp() override { fault::disarm_all(); }
  void TearDown() override { fault::disarm_all(); }
};

// --- The harness itself -------------------------------------------------

TEST_F(FaultTest, UnarmedPointIsANoop) {
  EXPECT_NO_THROW(fault::point("some.site"));
  EXPECT_FALSE(fault::armed("some.site"));
  EXPECT_EQ(fault::hits("some.site"), 0);
  EXPECT_TRUE(fault::armed_sites().empty());
}

TEST_F(FaultTest, ArmedSiteFailsExactlyInItsWindow) {
  fault::arm("a.b", /*trigger=*/2, /*count=*/2);
  EXPECT_TRUE(fault::armed("a.b"));
  EXPECT_NO_THROW(fault::point("a.b"));            // hit 1
  EXPECT_THROW(fault::point("a.b"), FaultError);   // hit 2
  EXPECT_THROW(fault::point("a.b"), FaultError);   // hit 3
  EXPECT_NO_THROW(fault::point("a.b"));            // hit 4: window passed
  EXPECT_EQ(fault::hits("a.b"), 4);
  EXPECT_TRUE(fault::armed("a.b"));  // armed until disarmed, hits keep counting
}

TEST_F(FaultTest, OnlyTheNamedSiteFires) {
  fault::arm("x.y");
  EXPECT_NO_THROW(fault::point("x.z"));
  EXPECT_EQ(fault::hits("x.z"), 0);
  EXPECT_THROW(fault::point("x.y"), FaultError);
}

TEST_F(FaultTest, ErrorClassFollowsTheArmedCode) {
  fault::arm("s1", 1, 1, ErrorCode::kInfeasible);
  EXPECT_THROW(fault::point("s1"), InfeasibleError);
  fault::arm("s2", 1, 1, ErrorCode::kDeadline);
  EXPECT_THROW(fault::point("s2"), DeadlineError);
  fault::arm("s3", 1, 1, ErrorCode::kIo);
  EXPECT_THROW(fault::point("s3"), IoError);
  // The thrown error names its site.
  fault::arm("s4");
  try {
    fault::point("s4");
    FAIL();
  } catch (const Error& e) {
    EXPECT_EQ(e.site(), "s4");
    EXPECT_EQ(e.code(), ErrorCode::kFaultInjected);
  }
}

TEST_F(FaultTest, RearmingResetsTheCounterAndScopedFaultDisarms) {
  fault::arm("r", 1, 1);
  EXPECT_THROW(fault::point("r"), FaultError);
  EXPECT_NO_THROW(fault::point("r"));
  fault::arm("r", 1, 1);  // re-arm: window restarts
  EXPECT_THROW(fault::point("r"), FaultError);
  fault::disarm("r");
  EXPECT_NO_THROW(fault::point("r"));
  {
    fault::ScopedFault f("scoped");
    EXPECT_TRUE(fault::armed("scoped"));
    EXPECT_EQ(fault::armed_sites(), std::vector<std::string>{"scoped"});
  }
  EXPECT_FALSE(fault::armed("scoped"));
  EXPECT_NO_THROW(fault::point("scoped"));
}

// --- Recovery policies through the full flow ----------------------------

TEST_F(FaultTest, NetflowRetryEscalatesCandidatesOnInfeasible) {
  const netlist::Design d = small_circuit();
  FlowConfig cfg = small_config();
  cfg.ring_config.rings = 9;
  cfg.candidates_per_ff = 2;  // leaves headroom to escalate (9 rings)
  // An InfeasibleError from the netflow solve is the assigner's own retry
  // signal: it doubles the candidate count instead of falling back.
  fault::ScopedFault f("assign.netflow", 1, 1, ErrorCode::kInfeasible);
  RotaryFlow flow(d, cfg);
  const FlowResult r = flow.run();
  ASSERT_FALSE(r.history.empty());
  EXPECT_GE(count_kind(r.recovery, util::RecoveryEvent::Kind::kRetry), 1);
  EXPECT_EQ(count_kind(r.recovery, util::RecoveryEvent::Kind::kFallback), 0);
  const auto it = std::find_if(r.recovery.begin(), r.recovery.end(),
                               [](const util::RecoveryEvent& e) {
                                 return e.kind ==
                                        util::RecoveryEvent::Kind::kRetry;
                               });
  EXPECT_EQ(it->site, "network-flow");
  EXPECT_NE(it->action.find("candidates_per_ff"), std::string::npos);
}

TEST_F(FaultTest, AssignmentFallsBackToMinMaxCapOnHardFailure) {
  const netlist::Design d = small_circuit();
  fault::ScopedFault f("assign.netflow");  // FaultError: not retryable
  RotaryFlow flow(d, small_config());
  const FlowResult r = flow.run();
  ASSERT_FALSE(r.history.empty());
  ASSERT_GE(count_kind(r.recovery, util::RecoveryEvent::Kind::kFallback), 1);
  EXPECT_NE(r.recovery.front().action.find("ilp-min-max-cap"),
            std::string::npos);
  // A valid assignment still came out of the fallback.
  EXPECT_EQ(r.assignment.arc_of_ff.size(),
            static_cast<std::size_t>(d.num_flip_flops()));
}

TEST_F(FaultTest, AssignmentChainReachesGreedyWhenBothSolversFail) {
  const netlist::Design d = small_circuit();
  FlowConfig cfg = small_config();
  cfg.assign_mode = AssignMode::MinMaxCap;
  // Primary is min-max-cap, so the chain goes straight to the greedy pass.
  fault::ScopedFault f("assign.minmaxcap", 1, 1);
  RotaryFlow flow(d, cfg);
  const FlowResult r = flow.run();
  ASSERT_FALSE(r.history.empty());
  ASSERT_GE(count_kind(r.recovery, util::RecoveryEvent::Kind::kFallback), 1);
  EXPECT_NE(r.recovery.front().action.find("greedy-nearest"),
            std::string::npos);
  EXPECT_EQ(r.assignment.arc_of_ff.size(),
            static_cast<std::size_t>(d.num_flip_flops()));
}

TEST_F(FaultTest, CostDrivenSkewFallsBackToMaxSlackSchedule) {
  const netlist::Design d = small_circuit();
  fault::ScopedFault f("sched.cost_driven");
  RotaryFlow flow(d, small_config());
  const FlowResult r = flow.run();
  ASSERT_FALSE(r.history.empty());
  ASSERT_GE(count_kind(r.recovery, util::RecoveryEvent::Kind::kFallback), 1);
  const util::RecoveryEvent& ev = r.recovery.front();
  EXPECT_EQ(ev.site, "cost-driven-skew");
  EXPECT_NE(ev.action.find("max-slack"), std::string::npos);
  for (double a : r.arrival_ps) EXPECT_TRUE(std::isfinite(a));
}

TEST_F(FaultTest, LpFaultIsAbsorbedByTheAssignmentFallback) {
  // The LP simplex runs inside the ILP min-max-cap assignment (the
  // default flow's scheduling is graph-based and never enters the LP).
  const netlist::Design d = small_circuit();
  FlowConfig cfg = small_config();
  cfg.assign_mode = AssignMode::MinMaxCap;
  fault::ScopedFault f("lp.solve");
  RotaryFlow flow(d, cfg);
  const FlowResult r = flow.run();
  ASSERT_FALSE(r.history.empty());
  EXPECT_GE(fault::hits("lp.solve"), 1);
  ASSERT_GE(count_kind(r.recovery, util::RecoveryEvent::Kind::kFallback), 1);
  EXPECT_NE(r.recovery.front().action.find("greedy-nearest"),
            std::string::npos);
}

TEST_F(FaultTest, FailedIncrementalPlacementKeepsTheCurrentOne) {
  const netlist::Design d = small_circuit();
  fault::ScopedFault f("placer.incremental");
  RotaryFlow flow(d, small_config());
  const FlowResult r = flow.run();
  ASSERT_FALSE(r.history.empty());
  ASSERT_GE(count_kind(r.recovery, util::RecoveryEvent::Kind::kFallback), 1);
  const util::RecoveryEvent& ev = r.recovery.front();
  EXPECT_EQ(ev.site, "incremental-placement");
  // The kept placement is still fully legal (inside the die).
  const geom::Rect& die = r.placement.die();
  for (std::size_t i = 0; i < r.placement.size(); ++i) {
    const geom::Point p = r.placement.loc(static_cast<int>(i));
    EXPECT_TRUE(p.x >= die.xlo && p.x <= die.xhi);
    EXPECT_TRUE(p.y >= die.ylo && p.y <= die.yhi);
  }
}

TEST_F(FaultTest, FallbacksDisabledPropagateTheTypedError) {
  const netlist::Design d = small_circuit();
  FlowConfig cfg = small_config();
  cfg.recovery_fallbacks = false;
  fault::ScopedFault f("assign.netflow");
  RotaryFlow flow(d, cfg);
  EXPECT_THROW((void)flow.run(), FaultError);
}

TEST_F(FaultTest, IoWriteFaultSurfacesAsTypedError) {
  const netlist::Design d = small_circuit(7);
  netlist::Placement p(d, geom::Rect{0, 0, 100, 100});
  const std::string path = ::testing::TempDir() + "/rotclk_fault_io.pl";
  fault::ScopedFault f("io.write", 1, 1, ErrorCode::kIo);
  EXPECT_THROW(netlist::write_placement_file(d, p, path), IoError);
}

// --- The parallel worker fault site -------------------------------------

TEST_F(FaultTest, ParallelWorkerFaultSurfacesAsFaultError) {
  // Every chunk a pool participant claims passes through the
  // "parallel.worker" site, so an armed fault aborts the loop with the
  // typed error — from whichever thread claimed the chunk.
  fault::ScopedFault f("parallel.worker");
  std::vector<int> out(64, 0);
  EXPECT_THROW(util::parallel_for(out.size(),
                                  [&](std::size_t i) {
                                    out[i] = static_cast<int>(i);
                                  }),
               FaultError);
  EXPECT_GE(fault::hits("parallel.worker"), 1);
}

TEST_F(FaultTest, ParallelWorkerFaultSurfacesFromCostMatrixBuild) {
  // The assignment cost matrix is built by a parallel_for over flip-flops;
  // a worker fault there must reach the caller as the typed FaultError
  // (a rotclk::Error propagates out of the pool unchanged), which is
  // exactly what the assignment stage's fallback chain catches.
  const netlist::Design d = small_circuit();
  const FlowConfig cfg = small_config();
  netlist::Placement p(d, netlist::size_die(d, cfg.die_utilization));
  rotary::RingArray rings(p.die(), cfg.ring_config);
  rings.set_uniform_capacity(d.num_flip_flops(), cfg.capacity_factor);
  const std::vector<double> targets(
      static_cast<std::size_t>(d.num_flip_flops()), 0.0);
  assign::AssignProblemConfig pcfg;
  pcfg.tapping = cfg.tapping;
  fault::ScopedFault f("parallel.worker");
  EXPECT_THROW((void)assign::build_assign_problem(d, p, rings, targets,
                                                  cfg.tech, pcfg),
               FaultError);
  EXPECT_GE(fault::hits("parallel.worker"), 1);
}

// --- Deadlines ----------------------------------------------------------

TEST_F(FaultTest, DeadlineInTheLoopStopsAtBestSoFar) {
  const netlist::Design d = small_circuit();
  // Stage 4 of iteration 1 raises a deadline: by then the base-case
  // snapshot exists, so the run ends gracefully at it.
  fault::ScopedFault f("sched.cost_driven", 1, 1, ErrorCode::kDeadline);
  RotaryFlow flow(d, small_config());
  const FlowResult r = flow.run();
  ASSERT_FALSE(r.history.empty());
  EXPECT_EQ(r.best_iteration, 0);
  ASSERT_GE(count_kind(r.recovery, util::RecoveryEvent::Kind::kDeadline), 1);
  EXPECT_EQ(r.recovery.front().site, "cost-driven-skew");
  EXPECT_EQ(count_kind(r.recovery, util::RecoveryEvent::Kind::kFallback), 0)
      << "a deadline must abandon the stage, not run its fallback chain";
}

TEST_F(FaultTest, DeadlineBeforeAnySnapshotPropagates) {
  const netlist::Design d = small_circuit();
  // The setup-phase assignment precedes the first evaluation: there is no
  // snapshot to fall back to, so the deadline must surface to the caller.
  fault::ScopedFault f("assign.netflow", 1, 1, ErrorCode::kDeadline);
  RotaryFlow flow(d, small_config());
  EXPECT_THROW((void)flow.run(), DeadlineError);
}

TEST_F(FaultTest, ImpossibleWallClockDeadlinePropagatesFromSetup) {
  const netlist::Design d = small_circuit();
  FlowConfig cfg = small_config();
  cfg.stage_deadline_seconds = 1e-12;  // the very first stage exceeds this
  RotaryFlow flow(d, cfg);
  EXPECT_THROW((void)flow.run(), DeadlineError);
}

// --- Stage guards -------------------------------------------------------

struct CorruptingStage final : Stage {
  enum What { kNanCell, kEscapedCell, kNanTarget, kBadAssignment };
  explicit CorruptingStage(What what) : what_(what) {}
  [[nodiscard]] const char* name() const override { return "corruptor"; }
  void run(FlowContext& ctx) override {
    switch (what_) {
      case kNanCell:
        ctx.placement.set_loc(0, {std::nan(""), 0.0});
        break;
      case kEscapedCell: {
        const geom::Rect& die = ctx.placement.die();
        ctx.placement.set_loc(0, {die.xhi + 1e9, die.yhi + 1e9});
        break;
      }
      case kNanTarget:
        ctx.arrival_ps.assign(
            static_cast<std::size_t>(ctx.num_ffs()),
            std::numeric_limits<double>::quiet_NaN());
        break;
      case kBadAssignment:
        ctx.problem.num_rings = 1;
        ctx.problem.ff_cells.assign(1, 0);
        ctx.assignment.arc_of_ff.assign(1, 99);  // arc table is empty
        break;
    }
  }
  What what_;
};

struct GuardCase {
  CorruptingStage::What what;
  const char* name;
  const char* expect;
};

// CTest names each case after its printed parameter; the default byte dump
// holds a string pointer and padding, so the names changed between builds.
void PrintTo(const GuardCase& c, std::ostream* os) { *os << c.name; }

class GuardTest : public ::testing::TestWithParam<GuardCase> {};

TEST_P(GuardTest, CorruptionIsCaughtAndNamesTheStage) {
  const netlist::Design d = small_circuit();
  const FlowConfig cfg = small_config();
  const assign::NetflowAssigner assigner;
  const sched::WeightedSkewOptimizer skew;
  FlowContext ctx(d, cfg, assigner, skew,
                  netlist::Placement(d, geom::Rect{0, 0, 100, 100}));
  FlowPipeline p;
  p.add_setup(std::make_unique<CorruptingStage>(GetParam().what));
  try {
    p.run(ctx);
    FAIL() << "guard missed the corruption";
  } catch (const GuardError& e) {
    EXPECT_EQ(e.stage(), "corruptor");
    EXPECT_EQ(e.code(), ErrorCode::kGuardViolation);
    EXPECT_NE(std::string(e.what()).find(GetParam().expect),
              std::string::npos)
        << e.what();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Corruptions, GuardTest,
    ::testing::Values(
        GuardCase{CorruptingStage::kNanCell, "nan_cell",
                  "non-finite location"},
        GuardCase{CorruptingStage::kEscapedCell, "escaped_cell",
                  "outside the die"},
        GuardCase{CorruptingStage::kNanTarget, "nan_target",
                  "non-finite delay target"},
        GuardCase{CorruptingStage::kBadAssignment, "bad_assignment",
                  "out of range"}));

TEST_F(FaultTest, GuardsCanBeDisabled) {
  const netlist::Design d = small_circuit();
  FlowConfig cfg = small_config();
  cfg.stage_guards = false;
  const assign::NetflowAssigner assigner;
  const sched::WeightedSkewOptimizer skew;
  FlowContext ctx(d, cfg, assigner, skew,
                  netlist::Placement(d, geom::Rect{0, 0, 100, 100}));
  FlowPipeline p;
  p.add_setup(
      std::make_unique<CorruptingStage>(CorruptingStage::kNanCell));
  EXPECT_NO_THROW(p.run(ctx));
}

TEST_F(FaultTest, CleanFlowPassesEveryGuard) {
  const netlist::Design d = small_circuit();
  const FlowConfig cfg = small_config();  // guards on by default
  RotaryFlow flow(d, cfg);
  const FlowResult r = flow.run();
  EXPECT_TRUE(r.recovery.empty());
}

// --- Observer shielding and trace integration ---------------------------

struct ThrowingObserver final : FlowObserver {
  void on_stage_end(const Stage&, const FlowContext&, double) override {
    throw std::runtime_error("observer exploded");
  }
};

TEST_F(FaultTest, ThrowingObserverCannotKillTheFlow) {
  const netlist::Design d = small_circuit();
  RotaryFlow flow(d, small_config());
  ThrowingObserver bad;
  flow.add_observer(&bad);
  const FlowResult r = flow.run();
  ASSERT_FALSE(r.history.empty());
  EXPECT_GE(
      count_kind(r.recovery, util::RecoveryEvent::Kind::kObserverFailure), 1);
  const auto it = std::find_if(
      r.recovery.begin(), r.recovery.end(), [](const util::RecoveryEvent& e) {
        return e.kind == util::RecoveryEvent::Kind::kObserverFailure;
      });
  EXPECT_EQ(it->site, "on_stage_end");
  EXPECT_NE(it->error.find("observer exploded"), std::string::npos);
}

TEST_F(FaultTest, TraceRecordsRecoveryEvents) {
  const netlist::Design d = small_circuit();
  fault::ScopedFault f("assign.netflow");
  RotaryFlow flow(d, small_config());
  JsonTraceObserver trace;
  flow.add_observer(&trace);
  const FlowResult r = flow.run();
  ASSERT_GE(count_kind(r.recovery, util::RecoveryEvent::Kind::kFallback), 1);
  EXPECT_EQ(trace.recovery_events().size(), r.recovery.size());
  const std::string doc = trace.json();
  EXPECT_NE(doc.find("\"recovery\":["), std::string::npos);
  EXPECT_NE(doc.find("\"kind\":\"fallback\""), std::string::npos);
  EXPECT_NE(doc.find("ilp-min-max-cap"), std::string::npos);
  // Still a structurally sane document.
  EXPECT_EQ(std::count(doc.begin(), doc.end(), '{'),
            std::count(doc.begin(), doc.end(), '}'));
  EXPECT_EQ(std::count(doc.begin(), doc.end(), '['),
            std::count(doc.begin(), doc.end(), ']'));
}

TEST_F(FaultTest, FailedTraceWriteIsShieldedAndRecorded) {
  const netlist::Design d = small_circuit();
  RotaryFlow flow(d, small_config());
  JsonTraceObserver trace("/nonexistent-dir/trace.json");
  flow.add_observer(&trace);
  const FlowResult r = flow.run();  // must not throw
  ASSERT_FALSE(r.history.empty());
  EXPECT_GE(
      count_kind(r.recovery, util::RecoveryEvent::Kind::kObserverFailure), 1);
}

// --- Parity: the robustness layer is invisible to clean runs ------------

TEST_F(FaultTest, GuardsAndFallbacksDoNotPerturbCleanRuns) {
  const netlist::Design d = small_circuit(11);
  FlowConfig hardened = small_config();
  FlowConfig bare = small_config();
  bare.stage_guards = false;
  bare.recovery_fallbacks = false;
  RotaryFlow a(d, hardened), b(d, bare);
  const FlowResult ra = a.run();
  const FlowResult rb = b.run();
  ASSERT_EQ(ra.history.size(), rb.history.size());
  for (std::size_t i = 0; i < ra.history.size(); ++i) {
    EXPECT_DOUBLE_EQ(ra.history[i].tap_wl_um, rb.history[i].tap_wl_um);
    EXPECT_DOUBLE_EQ(ra.history[i].signal_wl_um, rb.history[i].signal_wl_um);
    EXPECT_DOUBLE_EQ(ra.history[i].overall_cost, rb.history[i].overall_cost);
  }
  EXPECT_EQ(ra.best_iteration, rb.best_iteration);
  EXPECT_TRUE(ra.recovery.empty());
  EXPECT_TRUE(rb.recovery.empty());
}

// --- Serving-layer fault sites ------------------------------------------
//
// The serve layer adds two injection points: "serve.job" fires at the top
// of every job execution (the whole job fails; the daemon survives), and
// "serve.cache" fires inside every cache lookup (degrades to a bypass —
// a cache is an accelerator, never a correctness dependency). Exhaustive
// coverage lives in test_serve.cpp; these tests pin the isolation
// contract from the fault harness's point of view.

TEST_F(FaultTest, ServeJobFaultFailsOneJobAndSparesTheScheduler) {
  serve::MetricsRegistry metrics;
  serve::DesignCache cache(8);
  serve::SchedulerConfig cfg;
  cfg.workers = 1;
  serve::Scheduler sched(cfg, cache, metrics);

  serve::JobSpec spec;
  spec.gen_gates = 120;
  spec.gen_flip_flops = 8;
  spec.iterations = 1;
  spec.rings = 4;

  sched.suspend();
  spec.id = "doomed";
  sched.submit(spec);
  spec.id = "spared";
  spec.seed = 2;
  sched.submit(spec);
  fault::arm("serve.job", /*trigger=*/1, /*count=*/1);
  sched.resume();
  sched.wait_idle();

  ASSERT_TRUE(sched.status("doomed").has_value());
  EXPECT_EQ(sched.status("doomed")->state, serve::JobState::kFailed);
  EXPECT_NE(sched.status("doomed")->error.find("fault-injected"),
            std::string::npos);
  EXPECT_EQ(sched.status("spared")->state, serve::JobState::kDone);
  EXPECT_EQ(metrics.counter("jobs.faults_injected").value(), 1u);
}

TEST_F(FaultTest, ServeCacheFaultDegradesToBypassNotFailure) {
  serve::MetricsRegistry metrics;
  serve::DesignCache cache(8);
  serve::SchedulerConfig cfg;
  cfg.workers = 1;
  serve::Scheduler sched(cfg, cache, metrics);

  serve::JobSpec spec;
  spec.id = "under-fault";
  spec.gen_gates = 120;
  spec.gen_flip_flops = 8;
  spec.iterations = 1;
  spec.rings = 4;

  sched.suspend();
  sched.submit(spec);
  // One job performs two lookups (result, then design); arm both.
  fault::arm("serve.cache", /*trigger=*/1, /*count=*/2);
  sched.resume();
  sched.wait_idle();

  ASSERT_TRUE(sched.status("under-fault").has_value());
  EXPECT_EQ(sched.status("under-fault")->state, serve::JobState::kDone);
  EXPECT_GE(cache.stats().bypasses, 1u);
}

}  // namespace
}  // namespace rotclk::core
