// Symbolic derivation of the exact uncontended flit-level timeline.
//
// This mirrors, cycle for cycle, what MulticastRuntime::run posts and what
// the simulator then does on a contention-free run:
//
//   * software: a node activates when its receive completes; each of its
//     send engines issues operations t_hold(wire) apart, round-robin, and
//     a message reaches the NI t_send(wire) after its operation starts;
//   * NI and network: detail::post_send — FIFO injection over the NI
//     engines, router_delay cycles per hop for the head, and a
//     bubble-free body pipeline (fifo_capacity >= router_delay + 1), so
//     every channel is held for exactly `flits` cycles.
//
// Fidelity tests (test_lint.cpp) assert these fields equal the simulator's
// Message records and the observer-recorded reserve/release events.
#include <algorithm>
#include <functional>

#include "lint/detail.hpp"

namespace pcm::lint {

std::vector<SendWindow> lint_schedule(const MulticastTree& tree,
                                      const sim::Topology& topo,
                                      const rt::RuntimeConfig& cfg,
                                      const sim::SimConfig& sim_cfg,
                                      Bytes payload, Time t0) {
  detail::validate_lint_config(sim_cfg, "lint_schedule");

  std::vector<detail::SendPlan> plan = detail::plan_sends(tree, topo, cfg, payload);
  const int engines = std::max(1, cfg.send_engines);
  const int ni_ports = topo.ports_per_node();
  const Time rd = sim_cfg.router_delay;

  std::vector<SendWindow> windows(tree.sends.size());

  // Every node activates exactly once (check_tree guarantees a single
  // receive), issues all its sends then, and its NI drains them FIFO, so
  // a tree-order traversal visits sends in dependency order.
  std::function<void(int, Time)> activate = [&](int pos, Time at) {
    std::vector<Time> next_op(static_cast<size_t>(engines), at);
    std::vector<Time> ni_free(static_cast<size_t>(ni_ports), 0);
    int e = 0;
    for (int idx : tree.out[pos]) {
      detail::SendPlan& p = plan[static_cast<size_t>(idx)];
      SendWindow& w = windows[static_cast<size_t>(idx)];
      // FIFO NI assignment: all earlier sends of this node were posted
      // already (their ready times do not decrease).
      detail::post_window(w, idx, p, next_op[static_cast<size_t>(e)], ni_free, rd);
      next_op[static_cast<size_t>(e)] += p.t_hold;
      e = (e + 1) % engines;
      w.recv_done = w.delivered + p.t_recv;
      activate(p.receiver_pos, w.recv_done);
    }
  };
  activate(tree.chain.source_pos, t0);
  return windows;
}

}  // namespace pcm::lint
