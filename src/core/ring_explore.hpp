#pragma once
// Ring-count exploration (Sec. IX, the paper's second future-work item):
// "our formulations take the number of rotary rings as part of the input.
// A better approach would be to integrate the number of rings as a
// variable in our methodology."
//
// This explorer runs the full flow for each candidate n x n array size and
// scores the outcomes with an explicit cost that captures the real
// tradeoff: more rings shorten the tapping stubs (less stub wire/power)
// but add ring metal and dummy balancing capacitance of their own.
//
// Every candidate is an independent pipeline run over its own FlowContext,
// so candidates can be evaluated on worker threads (`parallel`); the
// selection scan is performed in candidate order afterwards, making the
// parallel pick identical to the serial one.

#include <vector>

#include "core/flow.hpp"
#include "rotary/load_balance.hpp"

namespace rotclk::core {

struct RingExploreConfig {
  /// Candidate ring counts (each must be a perfect square).
  std::vector<int> candidates{4, 9, 16, 25, 36, 49};
  /// Weight of ring metal (um) in the selection cost, relative to tapping
  /// wire at weight 1. Ring conductors are wide differential pairs, but
  /// their energy is recirculated, so they cost less per micron than stub
  /// wire that charges/discharges every cycle.
  double ring_metal_weight = 0.25;
  /// Weight of dummy balancing capacitance (fF -> cost units).
  double dummy_cap_weight = 0.05;
  /// Evaluate candidates on the shared util::ThreadPool (one flow run
  /// each). Deterministic: the selection is identical to the serial path.
  bool parallel = false;
  /// Cap on threads evaluating candidates concurrently when parallel;
  /// 0 = no cap beyond the global pool size (ROTCLK_THREADS).
  int max_threads = 0;
  FlowConfig flow{};
};

struct RingCountOption {
  int rings = 0;
  IterationMetrics metrics;        ///< final flow metrics at this count
  double ring_metal_um = 0.0;      ///< total ring conductor length
  double dummy_cap_ff = 0.0;       ///< balancing dummies (Sec. II)
  double worst_imbalance = 1.0;    ///< pre-dummy peak/mean segment load
  double selection_cost = 0.0;     ///< what the explorer minimizes
};

struct RingExploreResult {
  std::vector<RingCountOption> options;  ///< in candidate order
  int best_rings = 0;
  int best_index = -1;
};

/// Run the flow per candidate and pick the minimum-cost ring count.
RingExploreResult explore_ring_counts(const netlist::Design& design,
                                      const RingExploreConfig& config = {});

}  // namespace rotclk::core
