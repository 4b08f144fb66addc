// The four pcmbench workloads.  Each one generates a fixed work list from
// a seed (set-up), executes one list item per top-level call through the
// public API of the pcm_* libraries, and checks every kept result against
// oracles that hold at any seed.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/address.hpp"
#include "core/chain.hpp"
#include "core/multicast_tree.hpp"
#include "sim/topology.hpp"
#include "tracer.hpp"

namespace pcmbench {

/// Exact, deterministic per-call figures.  Every field is a pure function
/// of the work item, so one pass of the work list always sums to the same
/// totals.
struct CallCounts {
  long long ops = 0;        ///< work units completed (see Workload::ops_unit)
  long long msgs = 0;       ///< network messages simulated (or certified)
  long long flit_hops = 0;  ///< flit-hops simulated (or certified)
  // simulator
  int sim_runs = 0;         ///< simulations the call ran
  bool contended = false;   ///< some run had channel_conflicts > 0
  long long sim_cycles = 0;
  long long conflict_cycles = 0;
  long long msgs_dropped = 0;
  // runtime
  bool reliable = false;    ///< runtime ran in reliable (fault) mode
  long long retries = 0;
  long long epochs = 0;
  long long stale_acks = 0;
  long long failovers = 0;
  long long rejoins = 0;
  int max_window_occupancy = 0;
  // lint
  int lint_trees = 0;       ///< lint_tree / lint_forest reports
  int lint_contended = 0;   ///< ... that found contention
  long long lint_sends = 0;
  long long stream_slots = 0;     ///< slots lint_stream was asked for
  long long analyzed_slots = 0;   ///< ... of which it iterated symbolically
};

/// A multicast tree the workload ran, with the network it ran on (input
/// of the chain and append_path probes).
struct TreeRef {
  const pcm::sim::Topology* topo = nullptr;
  bool mesh = false;
  const pcm::MulticastTree* tree = nullptr;
};

/// One chain-ordering input (source, destinations, order) of the work
/// list, for the make_chain probe.
struct ChainInput {
  pcm::NodeId source = pcm::kInvalidNode;
  std::vector<pcm::NodeId> dests;
  pcm::ChainOrder order = pcm::ChainOrder::kAsGiven;
  const pcm::MeshShape* shape = nullptr;
};

class Workload {
 public:
  virtual ~Workload() = default;

  [[nodiscard]] virtual const char* name() const = 0;
  /// What one op is, for the report ("multicasts completed", ...).
  [[nodiscard]] virtual const char* ops_unit() const = 0;
  /// True when msgs/flit-hops are certified statically, not simulated.
  [[nodiscard]] virtual bool static_only() const { return false; }

  /// Builds topologies and the work list (and fault plans) from `seed`.
  /// Repeatable: a second call rebuilds the identical list.
  virtual void setup(std::uint64_t seed) = 0;
  [[nodiscard]] virtual std::size_t size() const = 0;

  /// One top-level call on item `i`.  The result is kept for the oracles
  /// when `keep` is set and otherwise overwrites the last-result slot.
  /// With a tracer, spans are recorded around each layer call and
  /// simulations run under a CountingObserver (see observer_counts).
  virtual void call(std::size_t i, bool keep, Tracer* tracer) = 0;

  /// Fingerprint of the kept (or the last) result of item `i`.
  [[nodiscard]] virtual std::uint64_t fingerprint(std::size_t i, bool kept) const = 0;

  /// Exact figures of item `i`'s kept result.
  [[nodiscard]] virtual CallCounts counts(std::size_t i) const = 0;

  /// Observer counts of item `i` from its last traced call.
  [[nodiscard]] const CountingObserver::Counts& observer_counts(std::size_t i) const {
    return observed_.at(i);
  }

  /// Oracle checks of item `i`'s kept result; returns one line per
  /// failed check (empty: correct).  On a fixed sample of items this
  /// includes re-running the item on the cycle engine and demanding a
  /// bit-identical result.
  [[nodiscard]] virtual std::vector<std::string> check(std::size_t i) = 0;

  /// Names of the result fields perturb() can corrupt; check(0) flags
  /// each of them on item 0.
  [[nodiscard]] virtual std::vector<std::string> perturbations() const = 0;
  /// Corrupts field `what` of item `i`'s kept result (oracle tests);
  /// throws std::invalid_argument for an unknown field.
  virtual void perturb(std::size_t i, const std::string& what) = 0;

  /// Trees of the kept results (after check() has run on every item).
  [[nodiscard]] virtual std::vector<TreeRef> trees() const = 0;
  /// Chain inputs of the work list with the largest group size.
  [[nodiscard]] virtual std::vector<ChainInput> chain_inputs() const = 0;

 protected:
  std::vector<CountingObserver::Counts> observed_;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// nullptr for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name);

/// The fixed paper_mix slice the recorder-overhead probe replays: host
/// seconds without and with an obs::FlightRecorder installed on every
/// simulation, over `rounds` alternating rounds, and the events one round
/// records.
struct RecorderProbe {
  double plain_s = 0;
  double recorded_s = 0;
  long long events = 0;
};
[[nodiscard]] RecorderProbe probe_recorder(std::uint64_t seed, int rounds);

}  // namespace pcmbench
