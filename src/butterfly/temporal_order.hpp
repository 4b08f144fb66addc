// Temporal contention reduction for networks without contention-free
// partitions (paper Sec. 6): "the senders who share the same
// communication channels are ordered such that they are unlikely to send
// at the same time.  In other words, the ordering is temporal
// contention-free."
//
// We realize that idea as a seeded local search over chain permutations:
// starting from the lexicographic chain, score a candidate chain by the
// number of send pairs whose exact channel-hold windows overlap on a
// shared channel (lint::lint_tree, which agrees with the flit simulator),
// and greedily accept swap/relocate moves that lower the score.  The
// result is not provably contention-free — Sec. 6 explains none exists
// on a butterfly — but the score (and the measured blocked cycles) drop.
#pragma once

#include <cstdint>
#include <span>

#include "core/multicast_tree.hpp"
#include "runtime/mcast_runtime.hpp"
#include "sim/simulator.hpp"

namespace pcm::butterfly {

struct TemporalOrderResult {
  Chain chain;               ///< the tuned ordering
  int initial_conflicts = 0; ///< overlapping send pairs, lexicographic chain
  int final_conflicts = 0;   ///< overlapping send pairs, tuned chain
  int moves_tried = 0;
  int moves_accepted = 0;
};

struct TemporalOrderOptions {
  int budget = 400;           ///< candidate moves to evaluate
  std::uint64_t seed = 1;     ///< RNG seed for move proposals
};

/// Scores one chain: lint_tree's count of overlapping send pairs of the
/// chain-split tree under `table`, carrying `payload` bytes.
int temporal_conflict_score(const Chain& chain, const SplitTable& table,
                            const sim::Topology& topo, const rt::RuntimeConfig& cfg,
                            const sim::SimConfig& sim_cfg, Bytes payload);

/// Tunes the node ordering for `source` -> `dests` on `topo` (typically a
/// ButterflyTopology, but any Topology works) for a `payload`-byte
/// multicast on the machine `cfg` / `sim_cfg`, split by the OPT table of
/// the machine's (t_hold, t_end).  Returns the best chain found within
/// the budget.
TemporalOrderResult temporal_order(NodeId source, std::span<const NodeId> dests,
                                   const sim::Topology& topo,
                                   const rt::RuntimeConfig& cfg,
                                   const sim::SimConfig& sim_cfg, Bytes payload,
                                   TemporalOrderOptions opts = {});

}  // namespace pcm::butterfly
