// pcmbench: runs one workload as a single-threaded closed loop (the next
// call starts when the previous one returns) over a fixed work list made
// from --seed, checks every output, and prints the metrics.  The last
// stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics under --trace 0 and the per-layer metrics
// under --trace 1.  See README.md.
//
//   pcmbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//            [--trace-out FILE] [--perturb FIELD]
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/chain.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace {

using pcmbench::CallCounts;
using pcmbench::Tracer;
using pcmbench::Workload;
using pcmbench::now_ns;

constexpr int kSetupRuns = 11;
constexpr int kSetupRunsPerPass = 5;
constexpr int kRecorderRounds = 3;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string trace_out;
  std::string perturb;  ///< corrupt this field of item 0 before the checks
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "pcmbench: " << error << "\n"
            << "usage: pcmbench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--trace-out FILE] [--perturb FIELD]\n"
            << "workloads:";
  for (const std::string& n : pcmbench::workload_names()) std::cerr << " " << n;
  std::cerr << "\n";
  std::exit(2);
}

long long parse_int(const std::string& flag, const std::string& v, long long lo,
                    long long hi) {
  try {
    std::size_t used = 0;
    const long long x = std::stoll(v, &used);
    if (used == v.size() && x >= lo && x <= hi) return x;
  } catch (const std::exception&) {
  }
  usage(flag + " expects an integer in [" + std::to_string(lo) + ", " +
        std::to_string(hi) + "], got '" + v + "'");
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(flag + " needs a value");
    const std::string v = argv[++i];
    if (flag == "--workload") o.workload = v;
    else if (flag == "--seed") o.seed = static_cast<std::uint64_t>(parse_int(flag, v, 0, 1LL << 62));
    else if (flag == "--seconds") o.seconds = static_cast<int>(parse_int(flag, v, 1, 3600));
    else if (flag == "--trace") o.trace = parse_int(flag, v, 0, 1) == 1;
    else if (flag == "--trace-out") o.trace_out = v;
    else if (flag == "--perturb") o.perturb = v;
    else usage("unknown flag " + flag);
  }
  if (o.workload.empty()) usage("--workload is required");
  return o;
}

/// Nearest-rank percentile (q in (0, 1]); 0 for an empty sample.
double percentile(std::vector<std::int64_t> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(v.size()) + 0.999999);
  return static_cast<double>(v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1]);
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  return 0;
}

/// The calls of one phase: whole passes over the work list.
struct Phase {
  long long passes = 0;
  std::int64_t busy_ns = 0;            ///< summed call durations
  std::vector<std::int64_t> pass_ns;   ///< per pass: summed call durations
  std::vector<std::int64_t> call_ns;   ///< per call
  std::vector<std::size_t> call_item;  ///< per call: work item
  std::vector<std::int64_t> call_id;   ///< per call: global call id
};

/// Per-item state shared by every phase of the run.
struct Ledger {
  std::vector<std::uint64_t> reference;  ///< fingerprint of the kept call
  std::vector<std::string> threw;        ///< exception text ("" = none)
  std::vector<long long> calls;          ///< calls made per item
  std::vector<long long> mismatches;     ///< calls not reproducing the kept one
  std::int64_t next_call = 0;
};

/// One pass over the work list, one call at a time.  The first pass keeps
/// its results for the oracles; later passes must reproduce them.
void run_pass(Workload& wl, Phase& ph, Tracer* tracer, bool keep, Ledger& ledger) {
  const std::int64_t busy_before = ph.busy_ns;
  for (std::size_t i = 0; i < wl.size(); ++i) {
    if (tracer) tracer->set_call(ledger.next_call);
    std::string error;
    const std::int64_t t0 = now_ns();
    try {
      pcmbench::ScopedSpan span(tracer, "bench.call");
      wl.call(i, keep, tracer);
    } catch (const std::exception& e) {
      error = e.what();
    }
    const std::int64_t dt = now_ns() - t0;
    ph.busy_ns += dt;
    ph.call_ns.push_back(dt);
    ph.call_item.push_back(i);
    ph.call_id.push_back(ledger.next_call++);
    ++ledger.calls[i];
    if (keep) {
      ledger.threw[i] = error;
      ledger.reference[i] = error.empty() ? wl.fingerprint(i, true) : 0;
    } else if (!error.empty() || wl.fingerprint(i, false) != ledger.reference[i]) {
      ++ledger.mismatches[i];
    }
  }
  ++ph.passes;
  ph.pass_ns.push_back(ph.busy_ns - busy_before);
}

class MetricSink {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    rows_.push_back({name, value, unit, note});
  }

  void print_table(std::ostream& os) const {
    for (const Row& r : rows_)
      os << "  " << std::left << std::setw(30) << r.name << std::right << std::setw(18)
         << std::setprecision(6) << r.value << " " << std::left << std::setw(7) << r.unit
         << std::right << r.note << "\n";
  }

  [[nodiscard]] std::string json() const {
    std::ostringstream os;
    os << std::setprecision(15) << "{";
    for (std::size_t i = 0; i < rows_.size(); ++i)
      os << (i ? ", " : "") << "\"" << rows_[i].name << "\": {\"value\": " << rows_[i].value
         << ", \"unit\": \"" << rows_[i].unit << "\"}";
    os << "}";
    return os.str();
  }

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
    std::string note;
  };
  std::vector<Row> rows_;
};

/// Exact totals of one pass of the work list.
CallCounts pass_totals(const std::vector<CallCounts>& per_item) {
  CallCounts t;
  for (const CallCounts& c : per_item) {
    t.ops += c.ops;
    t.msgs += c.msgs;
    t.flit_hops += c.flit_hops;
    t.sim_runs += c.sim_runs;
    t.sim_cycles += c.sim_cycles;
    t.conflict_cycles += c.conflict_cycles;
    t.msgs_dropped += c.msgs_dropped;
    t.retries += c.retries;
    t.epochs += c.epochs;
    t.stale_acks += c.stale_acks;
    t.failovers += c.failovers;
    t.rejoins += c.rejoins;
    t.max_window_occupancy = std::max(t.max_window_occupancy, c.max_window_occupancy);
    t.lint_trees += c.lint_trees;
    t.lint_contended += c.lint_contended;
    t.lint_sends += c.lint_sends;
    t.stream_slots += c.stream_slots;
    t.analyzed_slots += c.analyzed_slots;
  }
  return t;
}

/// Per work item, the median of its call times over the phase's passes:
/// robust to host slow-downs that hit a minority of the passes.
std::vector<std::int64_t> item_medians(const Phase& ph, std::size_t items) {
  std::vector<std::vector<std::int64_t>> per_item(items);
  for (std::size_t c = 0; c < ph.call_ns.size(); ++c)
    per_item[ph.call_item[c]].push_back(ph.call_ns[c]);
  std::vector<std::int64_t> med(items, 0);
  for (std::size_t i = 0; i < items; ++i) {
    std::vector<std::int64_t>& v = per_item[i];
    if (v.empty()) continue;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    med[i] = n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
  }
  return med;
}

double sum_s(const std::vector<std::int64_t>& ns) {
  double total = 0;
  for (const std::int64_t v : ns) total += static_cast<double>(v);
  return total * 1e-9;
}

void end_to_end_metrics(const Phase& ph, const CallCounts& pass, const Workload& wl,
                        double setup_s, std::size_t setup_runs, double rss_mb,
                        MetricSink& out) {
  // Rates and percentiles use each item's median call time, so one pass
  // of the work list costs pass_s.
  const std::vector<std::int64_t> item_ns = item_medians(ph, wl.size());
  const double pass_s = sum_s(item_ns);
  const std::string n = "n=" + std::to_string(item_ns.size()) + " items, median of " +
                        std::to_string(ph.passes) + " passes each";
  const std::string where = wl.static_only() ? " (certified statically)" : "";
  out.add("setup_s", setup_s, "s", "median of " + std::to_string(setup_runs) + " set-ups");
  out.add("ops_per_s", ratio(static_cast<double>(pass.ops), pass_s), "1/s", wl.ops_unit());
  out.add("msgs_per_s", ratio(static_cast<double>(pass.msgs), pass_s), "1/s",
          "network messages" + where);
  out.add("flit_hops_per_s", ratio(static_cast<double>(pass.flit_hops), pass_s), "1/s",
          "flit-hops" + where);
  out.add("call_ms_p50", percentile(item_ns, 0.5) * 1e-6, "ms", n);
  out.add("call_ms_p90", percentile(item_ns, 0.9) * 1e-6, "ms", n);
  out.add("peak_rss_mb", rss_mb, "MB", "VmHWM after the timed passes");
}

/// Spans of the traced phase grouped by name (durations, ns) and the
/// runtime-layer time of each traced call.
struct TracedCalls {
  std::map<std::string, std::vector<std::int64_t>> by_name;
  std::vector<std::int64_t> runtime_ns;  ///< per call of the phase
};

TracedCalls group_spans(const Tracer& tracer, const Phase& ph) {
  TracedCalls tc;
  tc.runtime_ns.assign(ph.call_ns.size(), 0);
  std::map<std::int64_t, std::size_t> index;  // global call id -> phase call
  for (std::size_t c = 0; c < ph.call_id.size(); ++c) index[ph.call_id[c]] = c;
  for (const pcmbench::Span& s : tracer.spans()) {
    tc.by_name[s.name].push_back(s.duration());
    const std::string_view name(s.name);
    if (name == "runtime.run" || name == "runtime.stream")
      tc.runtime_ns[index.at(s.call)] += s.duration();
  }
  return tc;
}

double span_p(const TracedCalls& tc, const std::string& name, double q) {
  const auto it = tc.by_name.find(name);
  return it == tc.by_name.end() ? 0 : percentile(it->second, q);
}

/// ns per make_chain call (each timed alone) over the workload's inputs.
double probe_chain_us(const Workload& wl) {
  std::vector<std::int64_t> ns;
  for (int rep = 0; rep < 3; ++rep)
    for (const pcmbench::ChainInput& in : wl.chain_inputs()) {
      const std::int64_t t0 = now_ns();
      const pcm::Chain chain = pcm::make_chain(in.source, in.dests, in.order, in.shape);
      ns.push_back(now_ns() - t0);
    }
  return percentile(ns, 0.5) * 1e-3;
}

/// ns per Topology::append_path call over every send's (src, dst) pair of
/// the workload's trees on mesh (or BMIN) networks.
double probe_append_path_ns(const Workload& wl, bool mesh) {
  struct Pair {
    const pcm::sim::Topology* topo;
    pcm::NodeId src, dst;
  };
  std::vector<Pair> pairs;
  for (const pcmbench::TreeRef& t : wl.trees())
    if (t.mesh == mesh)
      for (const pcm::SendEvent& s : t.tree->sends)
        pairs.push_back({t.topo, t.tree->node(s.sender_pos), t.tree->node(s.receiver_pos)});
  if (pairs.empty()) return 0;
  std::vector<pcm::sim::ChannelId> path;
  long long calls = 0;
  const std::int64_t t0 = now_ns();
  do {
    for (const Pair& p : pairs) {
      path.clear();
      p.topo->append_path(p.src, p.dst, path);
    }
    calls += static_cast<long long>(pairs.size());
  } while (now_ns() - t0 < 50'000'000);
  return static_cast<double>(now_ns() - t0) / static_cast<double>(calls);
}

void per_layer_metrics(const Workload& wl, const Tracer& tracer, const Phase& traced,
                       const Phase& untraced, const std::vector<CallCounts>& per_item,
                       const CallCounts& pass, std::uint64_t seed, MetricSink& out) {
  const TracedCalls tc = group_spans(tracer, traced);
  std::vector<pcmbench::LayerTime> layers = pcmbench::layer_times(tracer.spans());
  auto self_ns = [&](const std::string& layer) {
    for (const pcmbench::LayerTime& l : layers)
      if (l.layer == layer) return static_cast<double>(l.self_ns);
    return 0.0;
  };
  const auto passes = static_cast<double>(traced.passes);

  // core
  out.add("core.build_us_p50", span_p(tc, "core.build_multicast", 0.5) * 1e-3, "us");
  out.add("core.chain_us_p50", probe_chain_us(wl), "us", "make_chain probe");
  out.add("core.build_share", ratio(self_ns("core"), static_cast<double>(traced.busy_ns)),
          "frac", "core self time / call time");

  // mesh / bmin
  out.add("mesh.append_path_ns", probe_append_path_ns(wl, true), "ns", "per (src, dst)");
  out.add("bmin.append_path_ns", probe_append_path_ns(wl, false), "ns", "per (src, dst)");

  // sim: runtime spans of traced calls, split by whether the call's
  // simulation saw channel conflicts.
  double contended_ns = 0, laminar_ns = 0, clean_ns = 0, reliable_ns = 0;
  double contended_hops = 0, laminar_hops = 0, clean_msgs = 0, reliable_msgs = 0;
  double cycles = 0;
  for (std::size_t c = 0; c < traced.call_ns.size(); ++c) {
    const CallCounts& k = per_item[traced.call_item[c]];
    if (k.sim_runs == 0) continue;
    const auto ns = static_cast<double>(tc.runtime_ns[c]);
    (k.contended ? contended_ns : laminar_ns) += ns;
    (k.contended ? contended_hops : laminar_hops) += static_cast<double>(k.flit_hops);
    (k.reliable ? reliable_ns : clean_ns) += ns;
    (k.reliable ? reliable_msgs : clean_msgs) += static_cast<double>(k.msgs);
    cycles += static_cast<double>(k.sim_cycles);
  }
  long long contended_runs = 0, reserves = 0, blocked = 0, ff_cycles = 0;
  for (std::size_t i = 0; i < per_item.size(); ++i) {
    contended_runs += per_item[i].contended ? per_item[i].sim_runs : 0;
    reserves += wl.observer_counts(i).reserves;
    blocked += wl.observer_counts(i).blocked;
    ff_cycles += wl.observer_counts(i).fast_forward_cycles;
  }
  out.add("sim.contended_s", ratio(contended_ns * 1e-9, passes), "s", "per pass");
  out.add("sim.laminar_s", ratio(laminar_ns * 1e-9, passes), "s", "per pass");
  out.add("sim.contended_runs_frac", ratio(static_cast<double>(contended_runs), pass.sim_runs),
          "frac");
  out.add("sim.ns_per_hop_contended", ratio(contended_ns, contended_hops), "ns");
  out.add("sim.ns_per_hop_laminar", ratio(laminar_ns, laminar_hops), "ns");
  out.add("sim.ns_per_cycle", ratio(contended_ns + laminar_ns, cycles), "ns");
  out.add("sim.ff_cycles_frac",
          ratio(static_cast<double>(ff_cycles), static_cast<double>(pass.sim_cycles)), "frac");
  const bool simulated = !wl.static_only();
  out.add("sim.flit_hops", simulated ? static_cast<double>(pass.flit_hops) : 0, "count");
  out.add("sim.cycles", static_cast<double>(pass.sim_cycles), "count");
  out.add("sim.conflict_cycles", static_cast<double>(pass.conflict_cycles), "count");
  out.add("sim.msgs_dropped", static_cast<double>(pass.msgs_dropped), "count");
  out.add("sim.reserve_events", static_cast<double>(reserves), "count");
  out.add("sim.blocked_events", static_cast<double>(blocked), "count");

  // runtime
  const double runtime_msgs = simulated ? static_cast<double>(pass.msgs) : 0;
  out.add("runtime.ns_per_msg_clean", ratio(clean_ns, clean_msgs), "ns");
  out.add("runtime.ns_per_msg_reliable", ratio(reliable_ns, reliable_msgs), "ns");
  out.add("runtime.useful_msg_frac",
          runtime_msgs > 0 ? 1.0 - static_cast<double>(pass.retries) / runtime_msgs : 0,
          "frac", "1 - retries / messages");
  out.add("runtime.msgs", runtime_msgs, "count");
  out.add("runtime.retries", static_cast<double>(pass.retries), "count");
  out.add("runtime.epochs", static_cast<double>(pass.epochs), "count");
  out.add("runtime.stale_acks", static_cast<double>(pass.stale_acks), "count");
  out.add("runtime.failovers", static_cast<double>(pass.failovers), "count");
  out.add("runtime.rejoins", static_cast<double>(pass.rejoins), "count");
  out.add("runtime.max_window_occupancy", static_cast<double>(pass.max_window_occupancy),
          "count");

  // lint
  out.add("lint.tree_us_p50", span_p(tc, "lint.tree", 0.5) * 1e-3, "us");
  out.add("lint.tree_us_p90", span_p(tc, "lint.tree", 0.9) * 1e-3, "us");
  out.add("lint.forest_us_p50", span_p(tc, "lint.forest", 0.5) * 1e-3, "us");
  out.add("lint.offset_us_p50", span_p(tc, "lint.offset", 0.5) * 1e-3, "us");
  out.add("lint.stream_us_p50", span_p(tc, "lint.stream", 0.5) * 1e-3, "us");
  out.add("lint.stream_symbolic_frac",
          ratio(static_cast<double>(pass.analyzed_slots), static_cast<double>(pass.stream_slots)),
          "frac", "analyzed_slots / slots");
  out.add("lint.contended_frac",
          ratio(static_cast<double>(pass.lint_contended), pass.lint_trees), "frac");
  out.add("lint.sends", static_cast<double>(pass.lint_sends), "count");

  // obs
  const pcmbench::RecorderProbe rec = pcmbench::probe_recorder(seed, kRecorderRounds);
  out.add("obs.recorder_overhead_frac", ratio(rec.recorded_s, rec.plain_s) - 1.0, "frac",
          "paper_mix slice, recorder on vs off");
  out.add("obs.events", static_cast<double>(rec.events), "count");

  // bench
  const std::size_t items = wl.size();
  out.add("bench.tracing_overhead_frac",
          ratio(sum_s(item_medians(traced, items)), sum_s(item_medians(untraced, items))) -
              1.0,
          "frac", "untraced / traced ops_per_s - 1");

  std::cout << "layer self time (traced phase, " << traced.passes << " passes):\n";
  for (const pcmbench::LayerTime& l : layers)
    std::cout << "  " << std::left << std::setw(10) << l.layer << std::right
              << std::setw(9) << l.spans << " spans " << std::setw(10) << std::fixed
              << std::setprecision(4) << static_cast<double>(l.self_ns) * 1e-9
              << " s self " << std::setw(7) << std::setprecision(1)
              << 100.0 * ratio(static_cast<double>(l.self_ns),
                               static_cast<double>(traced.busy_ns))
              << " %\n"
              << std::defaultfloat;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  std::unique_ptr<Workload> wl = pcmbench::make_workload(opt.workload);
  if (!wl) usage("unknown workload '" + opt.workload + "'");

  // Set-up is timed kSetupRuns times before the first pass (the last run
  // leaves the work list in place) and kSetupRunsPerPass times on a spare
  // instance after every pass, so its median spans the whole run like the
  // call timings do.
  std::vector<double> setups;
  auto time_setups = [&](Workload& target, int runs) {
    for (int r = 0; r < runs; ++r) {
      const std::int64_t t0 = now_ns();
      target.setup(opt.seed);
      setups.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    }
  };
  time_setups(*wl, kSetupRuns);
  const std::unique_ptr<Workload> spare = pcmbench::make_workload(opt.workload);
  const std::size_t items = wl->size();
  Ledger ledger{std::vector<std::uint64_t>(items, 0), std::vector<std::string>(items),
                std::vector<long long>(items, 0), std::vector<long long>(items, 0), 0};

  // Timed passes: whole passes of the work list until the budget is spent.
  // The traced run alternates traced and untraced passes after the first
  // (kept, untraced) one, so the tracing overhead is measured on equal
  // footing.
  const std::int64_t budget = static_cast<std::int64_t>(opt.seconds) * 1'000'000'000;
  const std::int64_t start = now_ns();
  Phase untraced, traced;
  Tracer tracer;
  run_pass(*wl, untraced, nullptr, true, ledger);
  time_setups(*spare, kSetupRunsPerPass);
  if (opt.trace) {
    do {
      run_pass(*wl, traced, &tracer, false, ledger);
      run_pass(*wl, untraced, nullptr, false, ledger);
      time_setups(*spare, kSetupRunsPerPass);
    } while (now_ns() - start < budget);
  } else {
    while (now_ns() - start < budget) {
      run_pass(*wl, untraced, nullptr, false, ledger);
      time_setups(*spare, kSetupRunsPerPass);
    }
  }
  const double rss_mb = peak_rss_mb();

  // Output checks, outside the timed region.
  if (!opt.perturb.empty()) wl->perturb(0, opt.perturb);
  std::vector<CallCounts> per_item(items);
  std::vector<std::string> failures;
  long long failed = 0, attempted = 0;
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < items; ++i) {
    attempted += ledger.calls[i];
    digest = (digest ^ ledger.reference[i]) * 0x100000001b3ULL;
    std::vector<std::string> errors;
    if (!ledger.threw[i].empty()) {
      errors.push_back("call threw: " + ledger.threw[i]);
    } else {
      try {
        per_item[i] = wl->counts(i);
        errors = wl->check(i);
      } catch (const std::exception& e) {
        errors.push_back(std::string("check threw: ") + e.what());
      }
    }
    if (!errors.empty()) {
      failed += ledger.calls[i];
      for (const std::string& e : errors)
        failures.push_back("item " + std::to_string(i) + ": " + e);
    } else {
      failed += ledger.mismatches[i];
      if (ledger.mismatches[i] > 0)
        failures.push_back("item " + std::to_string(i) + ": " +
                           std::to_string(ledger.mismatches[i]) +
                           " repeated calls did not reproduce the kept result");
    }
  }
  const CallCounts pass = pass_totals(per_item);

  std::cout << "pcmbench " << wl->name() << " seed=" << opt.seed << " seconds=" << opt.seconds
            << " trace=" << opt.trace << "\n"
            << "work list: " << items << " calls per pass; " << pass.ops << " "
            << wl->ops_unit() << ", " << pass.msgs << " messages, " << pass.flit_hops
            << " flit-hops per pass\n"
            << "timed: " << untraced.passes << " untraced passes"
            << (opt.trace ? ", " + std::to_string(traced.passes) + " traced passes" : "")
            << " (closed loop, 1 thread, event engine requested)\n"
            << "digest: " << std::hex << std::setw(16) << std::setfill('0') << digest
            << std::dec << std::setfill(' ') << "\n"
            << "failed_frac: " << ratio(static_cast<double>(failed), static_cast<double>(attempted))
            << " (" << failed << " of " << attempted << " calls)\n";
  std::cout << "untraced pass seconds:";
  for (const std::int64_t ns : untraced.pass_ns) std::cout << " " << static_cast<double>(ns) * 1e-9;
  std::cout << "\n";
  for (std::size_t f = 0; f < failures.size() && f < 20; ++f)
    std::cerr << "pcmbench: check failed: " << failures[f] << "\n";

  MetricSink metrics;
  if (opt.trace) {
    per_layer_metrics(*wl, tracer, traced, untraced, per_item, pass, opt.seed, metrics);
    if (!opt.trace_out.empty() && !tracer.write_chrome_json(opt.trace_out))
      std::cerr << "pcmbench: cannot write " << opt.trace_out << "\n";
  } else {
    end_to_end_metrics(untraced, pass, *wl, median(setups), setups.size(), rss_mb, metrics);
  }
  metrics.print_table(std::cout);

  const bool correct = failed == 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": "
            << attempted << ", \"failed\": " << failed << ", \"metrics\": " << metrics.json()
            << "}" << std::endl;
  return correct ? 0 : 1;
}
