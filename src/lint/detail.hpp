// Internals shared by the three lint analyses (lint_tree, lint_forest,
// lint_stream): one send-posting step, one delivery order, one
// hold-overlap scan, one deadlock check and one diagnostic renderer.
// Each analysis keeps its own software-timeline policy, because each
// mirrors a different runtime: lint_schedule starts fresh round-robin
// engines at every activation (MulticastRuntime::run), lint_forest
// serializes sends and receives on one CPU per node (run_concurrent),
// and lint_stream keeps persistent per-engine timelines (stream_fast).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "lint/lint.hpp"

namespace pcm::lint::detail {

/// Precondition of the symbolic timing model (router_delay >= 1,
/// fifo_capacity >= router_delay + 1); throws std::invalid_argument
/// naming `who` otherwise.  Every lint entry point calls this.
void validate_lint_config(const sim::SimConfig& sim_cfg, const char* who);

/// check_tree for member `tree` of an analysis: appends a kStructure
/// diagnostic and returns false when the tree is malformed (timing a
/// malformed tree — double receives, broken intervals — is meaningless).
bool structure_ok(const MulticastTree& tree, int member,
                  std::vector<LintDiagnostic>& diags);

/// Per-send constants of a tree carrying a given payload: the wire
/// message's flits and software costs, and its routed path (the same XY /
/// turnaround enumeration the simulator follows, ejection last).
struct SendPlan {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  int receiver_pos = -1;
  int flits = 0;
  Time t_send = 0;
  Time t_hold = 0;
  Time t_recv = 0;
  std::vector<sim::ChannelId> path;
};

/// Plans every send of `tree` carrying `payload` bytes, indexed like
/// MulticastTree::sends.
std::vector<SendPlan> plan_sends(const MulticastTree& tree, const sim::Topology& topo,
                                 const rt::RuntimeConfig& cfg, Bytes payload);

/// When an uncontended send's first flit enters the source router and
/// when its tail is consumed at the destination.
struct Posting {
  Time inject_start = 0;
  Time delivered = 0;
};

/// The NI and network half of one send, handed to the NI at `ready`.  The
/// NI drains FIFO over its injection engines, so the send takes the
/// earliest-free engine of `ni_free` (which it then occupies for `flits`
/// cycles) and starts injecting at max(ready, engine free).  The head
/// rests router_delay `rd` cycles per router, so it reserves path hop i
/// at reserve[i] = inject_start + (i + 1) * rd; the body pipelines behind
/// it, so hop i is held over [reserve[i], reserve[i] + flits) and the
/// tail is consumed at inject_start + hops * rd + flits - 1.  Resizes
/// `reserve` to `hops`.
Posting post_send(Time ready, std::span<Time> ni_free, std::size_t hops,
                  int flits, Time rd, std::vector<Time>& reserve);

/// Posts send `idx`, whose software operation starts at `op_start`:
/// fills every field of `w` but recv_done (post_send), moving the path
/// out of `plan`.
void post_window(SendWindow& w, int idx, SendPlan& plan, Time op_start,
                 std::span<Time> ni_free, Time rd);

/// Forest-wide send ids: send i of member t is id(t, i), so ids grow
/// with (member, send index).
class SendIds {
 public:
  explicit SendIds(std::span<const std::vector<SendWindow>> schedules);
  [[nodiscard]] int id(int tree, int send) const {
    return base_[static_cast<size_t>(tree)] + send;
  }
  [[nodiscard]] int tree(int id) const { return tree_of_[static_cast<size_t>(id)]; }
  [[nodiscard]] int send(int id) const { return id - base_[static_cast<size_t>(tree(id))]; }

 private:
  std::vector<int> base_;     ///< first id of each member
  std::vector<int> tree_of_;  ///< member of each id
};

/// Simulator delivery order: cycle first, then the router/port sweep
/// (ejection channel id), then the send — a forest-wide id (SendIds) or
/// a streaming tag, both ordered like (member or slot, send index).  The
/// send never ties for distinct messages but keeps the queue
/// strict-weak-ordered.
struct Delivery {
  Time delivered = 0;
  sim::ChannelId eject = -1;
  int send = -1;
  bool operator>(const Delivery& o) const {
    if (delivered != o.delivered) return delivered > o.delivered;
    if (eject != o.eject) return eject > o.eject;
    return send > o.send;
  }
};

/// One overlapping pair of holds on one channel: (tree_a, send_a)
/// reserves it first, and [begin, end) is the intersection of the two
/// holds, so `begin` is the first cycle the simulator charges a blocked
/// head.
struct Overlap {
  int tree_a = 0;
  int send_a = -1;
  int tree_b = 0;
  int send_b = -1;
  sim::ChannelId channel = -1;
  Time begin = 0;
  Time end = 0;
};

/// Overlaps reduced to the earliest one per key: a send pair overlaps on
/// every channel its paths share, and a stream repeats each overlap
/// every period.  Memory stays proportional to the distinct keys, and
/// the counts and the listing are exact however many overlaps are added.
class OverlapLog {
 public:
  /// Logs `o` under `key`, keeping the earliest overlap per key (ties:
  /// lowest channel, then the lowest sends).
  void add(std::uint64_t key, const Overlap& o);

  [[nodiscard]] bool empty() const { return distinct_.empty(); }

  /// One overlap per key, in first-logged order.
  [[nodiscard]] const std::vector<Overlap>& distinct() const { return distinct_; }

  /// The first `max_diagnostics` of distinct(), chronologically.
  [[nodiscard]] std::vector<LintDiagnostic> listing(int max_diagnostics) const;

 private:
  std::vector<Overlap> distinct_;
  std::vector<std::uint64_t> keys_;  ///< parallel to distinct_
  std::vector<int> slots_;           ///< open addressing into distinct_, -1 empty
};

/// Result of the hold-overlap scan over a set of schedules.
struct Overlaps {
  /// The earliest overlap of each send pair, chronological, at most
  /// max_diagnostics of them.
  std::vector<LintDiagnostic> listed;
  bool contention_free = true;
  int channels_used = 0;
  int max_channel_windows = 0;
  int intra_pairs = 0;  ///< distinct overlapping pairs within one tree
  int cross_pairs = 0;  ///< distinct overlapping pairs across trees
};

/// Interval-overlap scan of every hold window of `schedules` (member t's
/// sends are named tree t).  The counts and the listing's order are exact
/// however many pairs overlap: pairs are de-duplicated (keeping each
/// pair's earliest overlap) before the listing is cut.
Overlaps scan_holds(std::span<const std::vector<SendWindow>> schedules,
                    int max_diagnostics);

/// Checks the channel-dependency graph of the schedules' paths (edge
/// c -> c' when some message traverses c' right after c) for a cycle
/// with a deterministic DFS.  Returns false on a cycle, and then appends
/// a kDeadlock diagnostic when `diags` holds fewer than max_diagnostics.
bool deadlock_free(std::span<const std::vector<SendWindow>> schedules,
                   int num_channels, int max_diagnostics,
                   std::vector<LintDiagnostic>& diags);

/// Renders "N diagnostic(s)" and one line per structure, contention and
/// deadlock finding.  `send_name(tree, send)` names one side of a
/// contention pair.  For a forest, structure findings name their tree
/// and contention lines say whether the pair is intra- or cross-tree.
std::string render_diagnostics(
    std::span<const LintDiagnostic> diags, const sim::Topology& topo,
    bool forest, const std::function<std::string(int tree, int send)>& send_name);

}  // namespace pcm::lint::detail
