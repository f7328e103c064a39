// E15: hierarchical farm-of-farms scale sweep.
//
// The flat farmer's event-loop load grows linearly with the worker count;
// the sharded coordinator's must not.  This experiment sweeps the worker
// tier across three orders of magnitude (16, 256, 4096, 16384 workers,
// task count scaled 8x the workers so per-worker work stays constant) on
// a heterogeneous grid (speeds cycling 50/100/200/400 mops) and reports,
// for the Grasp and Static hierarchy modes at each scale:
//
//   shards        — root fan-out chosen by shard_count_for
//   makespan_s    — virtual completion time
//   root_ev       — completions the root's loop handled (grants' result
//                   batches, monitor-tree final hops, timers)
//   root_ev/vs    — the headline: root events per virtual second.  Flat
//                   in the worker count, or the hierarchy failed.
//   shard_ev      — completions absorbed by the sub-farmer tier (this is
//                   where the scale goes)
//   grants        — super-grants pulled; ~grant_rounds regardless of W
//
// `--smoke` runs a compressed sweep (16 and 128 workers) and exits
// non-zero unless (a) every run conserves tasks, (b) the root
// events-per-virtual-second at the large scale stays within 2x of the
// small scale, and (c) Grasp beats-or-ties Static at every scale — the
// CI gate on the hierarchical scheduler.
//
// Writes BENCH_e15.json next to the working directory for trend tracking.
#include <cmath>
#include <cstring>
#include <fstream>
#include <optional>

#include "bench/common.hpp"
#include "core/hier_farm.hpp"

using namespace grasp;

namespace {

/// Node 0 is the root (100 mops, coordination only); workers cycle
/// through an 8x speed spread so Static's uniform chunks strand the tail.
gridsim::Grid hetero_grid(std::size_t workers) {
  gridsim::GridBuilder b;
  const SiteId s = b.add_site("a");
  b.add_node(s, 100.0);  // root
  const double speeds[] = {50.0, 100.0, 200.0, 400.0};
  for (std::size_t i = 0; i < workers; ++i) b.add_node(s, speeds[i % 4]);
  return b.build();
}

struct ScaleResult {
  std::size_t workers = 0;
  core::HierFarmReport grasp;
  core::HierFarmReport fixed;
  bool conserved = true;
};

std::size_t total_grants(const core::HierFarmReport& r) {
  std::size_t n = 0;
  for (const auto& s : r.shard_summaries) n += s.grants;
  return n;
}

/// `telemetry` (may be null) instruments the Grasp run only — the export
/// flags observe the adaptive hierarchy, never perturb the Static row.
ScaleResult run_scale(std::size_t workers, obs::Telemetry* telemetry) {
  ScaleResult out;
  out.workers = workers;
  const std::size_t total = 8 * workers;
  const workloads::TaskSet tasks =
      bench::irregular_tasks(total, 2000.0, 41 + workers, 0.6);

  core::HierFarmParams grasp;
  grasp.telemetry = telemetry;
  core::HierFarmParams fixed = grasp;
  fixed.mode = core::HierMode::Static;
  fixed.telemetry = nullptr;

  {
    const gridsim::Grid grid = hetero_grid(workers);
    core::SimBackend backend(grid);
    out.grasp =
        core::HierFarm(grasp).run(backend, grid, grid.node_ids(), tasks);
  }
  {
    const gridsim::Grid grid = hetero_grid(workers);
    core::SimBackend backend(grid);
    out.fixed =
        core::HierFarm(fixed).run(backend, grid, grid.node_ids(), tasks);
  }
  if (out.grasp.tasks_completed + out.grasp.calibration_tasks != total)
    out.conserved = false;
  if (out.fixed.tasks_completed != total) out.conserved = false;
  return out;
}

void add_rows(Table& table, const ScaleResult& r) {
  const auto row = [&](const char* variant, const core::HierFarmReport& rep) {
    table.add_row({Table::num(static_cast<long long>(r.workers)), variant,
                   Table::num(static_cast<long long>(rep.shards)),
                   Table::num(rep.makespan.value, 1),
                   Table::num(static_cast<long long>(rep.root_events)),
                   Table::num(rep.root_events_per_vsec(), 2),
                   Table::num(static_cast<long long>(rep.shard_events)),
                   Table::num(static_cast<long long>(total_grants(rep)))});
  };
  row("grasp", r.grasp);
  row("static", r.fixed);
}

void emit_json_rows(std::ostream& json, const ScaleResult& r, bool& first) {
  const auto row = [&](const char* variant, const core::HierFarmReport& rep) {
    json << (first ? "" : ",\n") << "    {\"workers\": " << r.workers
         << ", \"variant\": \"" << variant << "\", \"shards\": " << rep.shards
         << ", \"makespan_s\": " << rep.makespan.value
         << ", \"root_events\": " << rep.root_events
         << ", \"root_events_per_vsec\": " << rep.root_events_per_vsec()
         << ", \"shard_events\": " << rep.shard_events
         << ", \"grants\": " << total_grants(rep)
         << ", \"monitor_rounds\": " << rep.monitor_rounds
         << ", \"reduction_messages\": " << rep.reduction_messages
         << ", \"calibration_tasks\": " << rep.calibration_tasks
         << ", \"tasks_completed\": " << rep.tasks_completed << "}";
    first = false;
  };
  row("grasp", r.grasp);
  row("static", r.fixed);
}

/// The CI/acceptance gates, shared between --smoke and the full sweep:
/// conservation everywhere, root load flat vs the smallest scale, and
/// Grasp <= Static at every scale.
bool check_gates(const std::vector<ScaleResult>& sweep, const char* tag) {
  bool ok = true;
  const double base = sweep.front().grasp.root_events_per_vsec();
  if (!(base > 0.0)) {
    std::cerr << "bench_e15 " << tag << ": degenerate baseline root rate\n";
    return false;
  }
  for (const ScaleResult& r : sweep) {
    if (!r.conserved) {
      std::cerr << "bench_e15 " << tag << ": conservation FAILED at "
                << r.workers << " workers\n";
      ok = false;
    }
    const double ratio = r.grasp.root_events_per_vsec() / base;
    if (ratio > 2.0) {
      std::cerr << "bench_e15 " << tag << ": root load grew " << ratio
                << "x at " << r.workers << " workers (gate: 2x)\n";
      ok = false;
    }
    if (r.grasp.makespan.value > r.fixed.makespan.value) {
      std::cerr << "bench_e15 " << tag << ": grasp ("
                << r.grasp.makespan.value << "s) slower than static ("
                << r.fixed.makespan.value << "s) at " << r.workers
                << " workers\n";
      ok = false;
    }
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::ObsOptions obs_opts = bench::parse_obs_options(argc, argv);
  const std::vector<std::string> rest = bench::non_obs_args(argc, argv);
  const bool smoke = !rest.empty() && rest.front() == "--smoke";

  // Telemetry is attached only when an export flag asks for it, so the
  // default sweep (and the recorded BENCH_e15.json baseline) runs the
  // exact same uninstrumented path as before.
  std::optional<obs::Telemetry> telemetry;
  obs::FlightRecorder flight;
  if (obs_opts.any()) {
    telemetry.emplace(/*detail_enabled=*/true);
    if (!obs_opts.flight_out.empty()) {
      flight.set_dump_path(obs_opts.flight_out);
      telemetry->flight = &flight;
    }
  }

  std::vector<std::size_t> scales =
      smoke ? std::vector<std::size_t>{16, 128}
            : std::vector<std::size_t>{16, 256, 4096, 16384};

  if (!smoke)
    bench::print_experiment_header(
        "E15 — hierarchical farm-of-farms scale sweep",
        "1 root + W heterogeneous workers (50/100/200/400 mops), 8W "
        "irregular tasks\n(mean 2000 Mops, cv 0.6).  Sub-farmers own "
        "worker shards; the root farms\nsuper-grants and aggregates "
        "monitor rounds over an arity-4 reduction tree.\nThe root's "
        "event rate must stay flat as W grows 1024x.");

  // Instrument only the largest scale: each SimBackend restarts virtual
  // time at zero, so mixing spans from two runs would fold their
  // timelines together and garble the blame analysis.
  std::vector<ScaleResult> sweep;
  for (const std::size_t w : scales)
    sweep.push_back(run_scale(
        w, telemetry.has_value() && w == scales.back() ? &*telemetry
                                                       : nullptr));

  Table table({"workers", "variant", "shards", "makespan_s", "root_ev",
               "root_ev/vs", "shard_ev", "grants"});
  for (const ScaleResult& r : sweep) add_rows(table, r);
  std::cout << table.to_string();

  const bool ok = check_gates(sweep, smoke ? "--smoke" : "sweep");

  if (telemetry.has_value()) {
    if (!ok && telemetry->flight != nullptr)
      flight.note(sweep.back().grasp.makespan.value, "gate", "smoke_failed");
    bench::export_telemetry(*telemetry, obs_opts,
                            sweep.back().grasp.makespan.value);
  }

  if (smoke) {
    if (ok)
      std::cout << "bench_e15 --smoke: conservation holds, root rate flat ("
                << sweep.front().grasp.root_events_per_vsec() << " -> "
                << sweep.back().grasp.root_events_per_vsec()
                << " ev/vs across " << sweep.front().workers << " -> "
                << sweep.back().workers
                << " workers), grasp <= static at every scale\n";
    return ok ? 0 : 1;
  }

  std::ofstream json("BENCH_e15.json");
  json << "{\n  \"experiment\": \"e15_hier\",\n  \"scenario\": "
          "\"1 root + W workers cycling 50/100/200/400 mops; 8W tasks, "
          "mean 2000 Mops cv 0.6\",\n  \"grant_rounds\": 32"
       << ",\n  \"workers_per_shard\": 8,\n  \"max_shards\": 16"
       << ",\n  \"rows\": [\n";
  bool first = true;
  for (const ScaleResult& r : sweep) emit_json_rows(json, r, first);
  json << "\n  ]\n}\n";

  std::cout << "\nexpected shape: root_ev/vs near-flat down the grasp "
               "rows while shard_ev grows\nwith W — the sub-farmer tier "
               "absorbs the scale; grants stay ~grant_rounds at\nevery "
               "scale; grasp <= static on every row (adaptive chunks vs "
               "an 8x speed\nspread).\n\nbaseline written to "
               "BENCH_e15.json\n";
  return ok ? 0 : 1;
}
