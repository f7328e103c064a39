// grasp_perfbench: one workload, measured for a fixed host-time budget.
//
//   grasp_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--reduced] [--trace-out PATH]
//
// Prints one JSON object on stdout: every metric it measured, every
// correctness check, and the attempted/failed operation counts.
// perfbench/run.py is the user-facing entry point; it builds this binary,
// picks the metrics BENCHMARK.json names for the mode and prints the
// result.
//
// A run is one untimed reference pass, then timed passes until the budget
// is spent (at least three).  Set-up times are medians over the passes;
// run-phase host times are medians of per-pass values calibrated against a
// reference kernel (probe.hpp).  The reference pass wraps the backend in a
// counting-only TracedBackend: it fixes the pass's simulated completion
// count, the denominator of every per-event figure, so untraced passes run
// on the bare SimBackend.  With --trace 0 every timed pass is bare.  With
// --trace 1 the passes rotate between bare, traced (timed decorator and
// allocation counting; the first one also records spans) and, on
// churn_diag, telemetry detached — the differences between them are the
// tracing overhead and the cost of attaching telemetry.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/export_chrome.hpp"
#include "probe.hpp"
#include "support/stats.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

enum class Mode { Reference, Bare, Traced, Detached };

struct Pass {
  Mode mode = Mode::Bare;
  SetupTimes parts;
  double setup_s = 0.0;
  double run_s = 0.0;
  double user_s = 0.0;
  double sys_s = 0.0;
  double ctx_switches = 0.0;
  double reference_s = 0.0;  ///< reference kernel, just before the run phase
  std::size_t peak_threads = 0;
  BackendCounters backend;
  AllocCounts allocs;  ///< during the run phase (traced passes only)
  Outcome outcome;
};

double tv_seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

Pass run_pass(const std::string& name, WorkloadOptions options,
              std::uint64_t seed, Mode mode, grasp::obs::SpanRecorder* spans,
              std::size_t index) {
  Pass p;
  p.mode = mode;
  options.telemetry = mode != Mode::Detached;
  std::unique_ptr<Workload> w = make_workload(name, options);
  const bool traced = mode == Mode::Traced;
  const auto span = [&](const char* what, grasp::obs::SpanId parent) {
    return spans != nullptr
               ? spans->begin(what, parent, grasp::NodeId::invalid(),
                              grasp::TaskId::invalid(),
                              static_cast<double>(index))
               : grasp::obs::SpanId{0};
  };
  const auto end = [&](grasp::obs::SpanId id) {
    if (spans != nullptr) spans->end(id);
  };

  const grasp::obs::SpanId pass_span = span("pass", 0);
  const grasp::obs::SpanId setup_span = span("setup", pass_span);
  const double t0 = host_now();
  w->build(seed, p.parts);
  ProbeConfig probe;
  probe.enabled = mode == Mode::Reference || traced;
  probe.timed = traced;
  probe.spans = spans;
  w->attach(probe);
  p.setup_s = host_now() - t0;
  end(setup_span);

  const grasp::obs::SpanId run_span = span("run", pass_span);
  if (w->traced() != nullptr) w->traced()->set_span_parent(run_span);
  p.reference_s = reference_kernel_s();
  reset_peak_live_threads();
  const AllocCounts a0 = alloc_counts();
  set_alloc_counting(traced);
  rusage r0{}, r1{};
  getrusage(RUSAGE_SELF, &r0);
  const double t1 = host_now();
  p.outcome = w->run();
  const double t2 = host_now();
  getrusage(RUSAGE_SELF, &r1);
  set_alloc_counting(false);
  const AllocCounts a1 = alloc_counts();
  end(run_span);
  end(pass_span);

  p.run_s = t2 - t1;
  p.user_s = tv_seconds(r1.ru_utime) - tv_seconds(r0.ru_utime);
  p.sys_s = tv_seconds(r1.ru_stime) - tv_seconds(r0.ru_stime);
  p.ctx_switches = static_cast<double>((r1.ru_nvcsw - r0.ru_nvcsw) +
                                       (r1.ru_nivcsw - r0.ru_nivcsw));
  p.peak_threads = peak_live_threads();
  p.allocs = {a1.in_backend - a0.in_backend, a1.outside - a0.outside};
  if (w->traced() != nullptr) p.backend = w->traced()->counters();
  return p;
}

/// `f` over the passes in `mode`.
template <typename F>
std::vector<double> values_of(const std::vector<Pass>& passes, Mode mode,
                              F&& f) {
  std::vector<double> xs;
  for (const Pass& p : passes)
    if (p.mode == mode) xs.push_back(f(p));
  return xs;
}

/// Per-layer figures the workloads read from the program's own reports.
/// Layers a workload does not exercise report 0.
const char* const kCountMetrics[] = {
    "svc.jobs_submitted",     "svc.jobs_completed",
    "svc.jobs_failed",        "svc.jobs_rejected",
    "svc.peak_concurrent",    "svc.cache_hits",
    "svc.cache_stores",       "svc.calibration_tasks",
    "svc.calibration_ratio",  "resil.crashes_detected",
    "resil.chunks_lost",      "resil.tasks_redispatched",
    "resil.wasted_mops",      "resil.recovered_mops",
    "resil.checkpoints",      "resil.failovers",
    "resil.zombie_completions", "obs.spans",
    "obs.metric_series",      "obs.flight_events",
    "obs.export_bytes",       "workloads.tasks",
    "workloads.total_mops",
};
/// Counts reported beside a metric as its base, not as metrics.
const char* const kCountInfo[] = {
    "sim.useful_work_base_mops", "sim.job_samples", "svc.max_concurrent_jobs"};

/// Layer of one of the benchmark's own spans, for the self-time table.
std::string layer_of(const std::string& span_name, bool multi_tenant) {
  if (span_name == "pass") return "bench.pass";
  if (span_name == "setup") return "setup (gridsim+workloads+svc ctor)";
  if (span_name == "run")
    return multi_tenant ? "core.engine+svc" : "core.engine";
  return "core.backend";
}

/// Self time per layer over the recorded spans: a span's duration minus
/// the time its children cover (children of one span never overlap: the
/// backend is called by one actor at a time).
std::string self_time_table(const std::vector<grasp::obs::SpanRecord>& spans,
                            bool multi_tenant) {
  std::vector<double> child_s(spans.size() + 1, 0.0);
  for (const auto& s : spans)
    if (s.parent != 0 && !s.open()) child_s[s.parent] += s.end_s - s.begin_s;
  struct Row {
    std::size_t spans = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  std::map<std::string, Row> rows;
  for (const auto& s : spans) {
    if (s.open()) continue;
    Row& r = rows[layer_of(s.name, multi_tenant)];
    const double d = s.end_s - s.begin_s;
    ++r.spans;
    r.total_s += d;
    r.self_s += d - child_s[s.id];
  }
  std::ostringstream out;
  if (spans.size() >= kSpanBudget)
    out << "(span budget of " << kSpanBudget
        << " reached: later backend calls count in their parent's self "
           "time)\n";
  char line[160];
  std::snprintf(line, sizeof line, "%-36s %10s %12s %12s\n", "layer", "spans",
                "total_s", "self_s");
  out << line;
  for (const auto& [layer, r] : rows) {
    std::snprintf(line, sizeof line, "%-36s %10zu %12.6f %12.6f\n",
                  layer.c_str(), r.spans, r.total_s, r.self_s);
    out << line;
  }
  return out.str();
}

void write_json_number(std::ostream& out, double v) {
  if (!std::isfinite(v)) {
    out << "null";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out << buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::size_t cores_available() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
}

/// Restrict this thread, and every thread it starts later, to the first
/// core it may use.
void pin_to_one_core() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &set)) continue;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    sched_setaffinity(0, sizeof set, &set);
    return;
  }
}

int usage(const char* why) {
  std::cerr << "grasp_perfbench: " << why
            << "\nusage: grasp_perfbench --workload NAME --seed N --seconds S"
               " --trace 0|1 [--reduced] [--trace-out PATH]\n";
  return 2;
}

int run(int argc, char** argv) {
  std::string workload, trace_out;
  std::uint64_t seed = 0;
  double seconds = -1.0;
  int trace = -1;
  bool reduced = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--reduced") {
      reduced = true;
    } else if (a == "--workload" && has_value) {
      workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      trace = std::atoi(argv[++i]);
    } else if (a == "--trace-out" && has_value) {
      trace_out = argv[++i];
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  WorkloadOptions options;
  options.reduced = reduced;
  options.nproc = cores_available();
  if (make_workload(workload, options) == nullptr)
    return usage(("unknown workload '" + workload + "'").c_str());
  if (!(seconds > 0.0) || (trace != 0 && trace != 1))
    return usage("--seconds must be positive and --trace 0 or 1");

  // GridService runs one actor at a time (the turn handoff), so one core
  // costs the service no parallelism.  Pinned, each handoff is a same-core
  // switch instead of a cross-vCPU wake-up, which a VM's hypervisor can
  // delay by milliseconds: unpinned, the fastest job_stream pass of a run
  // varied from 2.4 s to 15.5 s on a 4-vCPU VM.  The cap of nproc - 1
  // concurrent jobs is taken before pinning.
  if (workload == "job_stream") pin_to_one_core();

  const Pass ref =
      run_pass(workload, options, seed, Mode::Reference, nullptr, 0);
  const double events = static_cast<double>(ref.backend.completions);
  const bool multi_tenant = workload == "job_stream";

  std::vector<Mode> cycle = {Mode::Bare};
  if (trace == 1) {
    cycle.push_back(Mode::Traced);
    if (workload == "churn_diag") cycle.push_back(Mode::Detached);
  }
  const std::size_t min_passes = std::max<std::size_t>(3, 2 * cycle.size());
  HostClock clock;
  grasp::obs::SpanRecorder spans;
  spans.set_clock(&clock);
  bool spans_recorded = false;
  std::vector<Pass> passes;
  // A pass starts only if one as long as the last still fits the budget,
  // so a run takes about --seconds whatever the pass length.
  const double deadline = host_now() + seconds;
  double last_pass_s = 0.0;
  while (passes.size() < min_passes || host_now() + last_pass_s <= deadline) {
    const Mode mode = cycle[passes.size() % cycle.size()];
    const bool record =
        mode == Mode::Traced && !spans_recorded && !trace_out.empty();
    const double started = host_now();
    passes.push_back(run_pass(workload, options, seed, mode,
                              record ? &spans : nullptr, passes.size() + 1));
    last_pass_s = host_now() - started;
    spans_recorded = spans_recorded || record;
  }

  // ------------------------------------------------------------- checks
  std::vector<Check> checks;
  std::uint64_t operations = 0, failed_operations = 0;
  std::map<std::string, Check> pass_checks;  // first failure per name wins
  for (const Pass& p : passes) {
    operations += p.outcome.operations;
    failed_operations += p.outcome.failed;
    for (const Check& c : p.outcome.checks) {
      auto it = pass_checks.find(c.name);
      if (it == pass_checks.end())
        pass_checks.emplace(c.name, c);
      else if (it->second.ok && !c.ok)
        it->second = c;
    }
  }
  for (const auto& [name, c] : pass_checks) checks.push_back(c);

  const auto same_sim = [&](Mode mode) {
    for (const Pass& p : passes)
      if (p.mode == mode && p.outcome.sim != ref.outcome.sim) return false;
    return true;
  };
  checks.push_back({"sim_repeats_across_passes", same_sim(Mode::Bare),
                    "every bare pass reproduces the reference pass's sim.*"});
  if (trace == 1)
    checks.push_back({"trace_is_transparent", same_sim(Mode::Traced),
                      "traced passes reproduce the untraced sim.*"});
  if (workload == "churn_diag" && trace == 1)
    checks.push_back({"telemetry_is_transparent", same_sim(Mode::Detached),
                      "detaching telemetry leaves sim.* unchanged"});
  bool same_events = true;
  for (const Pass& p : passes)
    if (p.mode == Mode::Traced &&
        p.backend.completions != ref.backend.completions)
      same_events = false;
  checks.push_back({"events_repeat", same_events && events > 0,
                    "every traced pass delivers the reference's " +
                        std::to_string(ref.backend.completions) +
                        " completions"});
  std::size_t peak_threads = ref.peak_threads;
  for (const Pass& p : passes)
    peak_threads = std::max(peak_threads, p.peak_threads);
  if (multi_tenant)
    checks.push_back({"threads_within_nproc", peak_threads <= options.nproc,
                      std::to_string(peak_threads) + " live threads at peak, " +
                          std::to_string(options.nproc) + " cores"});
  std::uint64_t failed_checks = 0;
  for (const Check& c : checks) failed_checks += c.ok ? 0 : 1;
  const std::uint64_t attempted = operations + checks.size();
  const std::uint64_t failed = failed_operations + failed_checks;

  // ------------------------------------------------------------ metrics
  std::vector<std::pair<std::string, double>> metrics;
  const auto put = [&](const std::string& name, double v) {
    metrics.emplace_back(name, v);
  };
  // Medians over the passes of one mode.  Run-phase host times are first
  // calibrated pass by pass against the reference kernel timed just before
  // (probe.hpp): the VM this was tuned on runs 25-50% slower for minutes
  // at a time, and over eight 20 s hier_scale runs the raw fastest pass
  // spread 12% between quartiles where the calibrated median spread 5.5%.
  const auto median_of = [&](Mode mode, auto f) {
    return grasp::median(values_of(passes, mode, f));
  };
  const auto calibrated = [&](Mode mode, auto f) {
    return median_of(mode, [&](const Pass& p) {
      return f(p) * kReferenceNominalS / p.reference_s;
    });
  };
  const auto bare = [&](auto f) { return calibrated(Mode::Bare, f); };
  const auto traced = [&](auto f) { return calibrated(Mode::Traced, f); };
  const auto setup = [&](auto f) { return median_of(Mode::Bare, f); };
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double wall_s = bare([](const Pass& p) { return p.run_s; });

  put("setup_s", setup([](const Pass& p) { return p.setup_s; }));
  put("wall_s", wall_s);
  put("cpu_s", bare([](const Pass& p) { return p.user_s + p.sys_s; }));
  put("us_per_event", wall_s / events * 1e6);
  put("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0);
  for (const auto& [name, v] : ref.outcome.sim) put(name, v);
  put("fail_ratio",
      static_cast<double>(failed) / static_cast<double>(attempted));

  for (const char* name : kCountMetrics) {
    const auto it = ref.outcome.counts.find(name);
    put(name, it == ref.outcome.counts.end() ? 0.0 : it->second);
  }
  for (const auto& [name, v] : ref.outcome.counts) {
    const bool known =
        std::any_of(std::begin(kCountMetrics), std::end(kCountMetrics),
                    [&](const char* m) { return name == m; }) ||
        std::any_of(std::begin(kCountInfo), std::end(kCountInfo),
                    [&](const char* m) { return name == m; });
    if (!known) {
      std::cerr << "grasp_perfbench: workload reported unknown count "
                << name << "\n";
      return 3;
    }
  }
  put("svc.user_s", bare([](const Pass& p) { return p.user_s; }));
  put("svc.sys_s", bare([](const Pass& p) { return p.sys_s; }));
  const double ctx =
      median_of(Mode::Bare, [](const Pass& p) { return p.ctx_switches; });
  put("svc.ctx_switches", ctx);
  put("svc.ctx_switches_per_event", ctx / events);
  put("svc.peak_live_threads", static_cast<double>(peak_threads));
  put("workloads.gen_s", setup([](const Pass& p) { return p.parts.gen_s; }));
  put("gridsim.build_s",
      setup([](const Pass& p) { return p.parts.build_s; }));
  const auto host = [](const char* key) {
    return [key](const Pass& p) {
      const auto it = p.outcome.host.find(key);
      return it == p.outcome.host.end() ? 0.0 : it->second;
    };
  };
  put("obs.export_s", bare(host("obs.export_s")));
  put("obs.blame_s", bare(host("obs.blame_s")));
  put("host.reference_s",
      median_of(Mode::Bare, [](const Pass& p) { return p.reference_s; }));
  put("host.raw_wall_s",
      median_of(Mode::Bare, [](const Pass& p) { return p.run_s; }));
  put("host.raw_cpu_s", median_of(Mode::Bare, [](const Pass& p) {
        return p.user_s + p.sys_s;
      }));

  if (trace == 1) {
    const BackendCounters& c = ref.backend;
    put("core.backend.calls", static_cast<double>(c.calls));
    put("core.backend.completions", static_cast<double>(c.completions));
    put("core.backend.timers_fired", static_cast<double>(c.timers_fired));
    put("core.backend.timer_cancels", static_cast<double>(c.timer_cancels));
    put("core.backend.progress_polls", static_cast<double>(c.progress_polls));
    put("core.backend.in_flight_peak", static_cast<double>(c.in_flight_peak));
    put("core.backend.submit_s",
        traced([](const Pass& p) { return p.backend.submit_s; }));
    put("core.backend.wait_s",
        traced([](const Pass& p) { return p.backend.wait_s; }));
    put("core.backend.progress_s",
        traced([](const Pass& p) { return p.backend.progress_s; }));
    const double backend_s =
        traced([](const Pass& p) { return p.backend.total_s(); });
    put("core.backend.self_s", backend_s);
    put("core.backend.ns_per_call",
        backend_s / static_cast<double>(std::max<std::uint64_t>(1, c.calls)) *
            1e9);
    put("core.backend.allocs", median_of(Mode::Traced, [](const Pass& p) {
          return static_cast<double>(p.allocs.in_backend);
        }));
    const double engine_s = traced(
        [](const Pass& p) { return p.run_s - p.backend.total_s(); });
    put("core.engine.self_s", engine_s);
    put("core.engine.us_per_event", engine_s / events * 1e6);
    const double engine_allocs = median_of(Mode::Traced, [](const Pass& p) {
      return static_cast<double>(p.allocs.outside);
    });
    put("core.engine.allocs", engine_allocs);
    put("core.engine.allocs_per_event", engine_allocs / events);
    put("obs.attach_s",
        workload == "churn_diag"
            ? wall_s - calibrated(Mode::Detached,
                                  [](const Pass& p) { return p.run_s; })
            : 0.0);
    put("trace.overhead_ratio",
        traced([](const Pass& p) { return p.run_s; }) / wall_s - 1.0);
  }

  if (spans_recorded) {
    const std::string table = self_time_table(spans.records(), multi_tenant);
    std::cerr << "self time per layer (first traced pass):\n" << table;
    std::ofstream(trace_out + ".selftime.txt") << table;
    if (!grasp::obs::write_chrome_trace_file(trace_out, spans.records())) {
      std::cerr << "grasp_perfbench: cannot write " << trace_out << "\n";
      return 3;
    }
  }

  // -------------------------------------------------------------- output
  std::map<Mode, std::size_t> per_mode;
  for (const Pass& p : passes) ++per_mode[p.mode];
  std::ostringstream out;
  out << "{\"workload\":" << json_string(workload) << ",\"seed\":" << seed
      << ",\"trace\":" << trace << ",\"nproc\":" << options.nproc
      << ",\"events\":" << ref.backend.completions
      << ",\"passes\":{\"bare\":" << per_mode[Mode::Bare]
      << ",\"traced\":" << per_mode[Mode::Traced]
      << ",\"detached\":" << per_mode[Mode::Detached] << "}"
      << ",\"attempted\":" << attempted << ",\"failed\":" << failed
      << ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? "," : "") << json_string(metrics[i].first) << ":";
    write_json_number(out, metrics[i].second);
  }
  out << "},\"info\":{";
  bool first = true;
  for (const char* name : kCountInfo) {
    const auto it = ref.outcome.counts.find(name);
    if (it == ref.outcome.counts.end()) continue;
    out << (first ? "" : ",") << json_string(name) << ":";
    write_json_number(out, it->second);
    first = false;
  }
  out << "},\"bare_passes\":[";  // [run_s, reference_s] per bare pass
  first = true;
  for (const Pass& p : passes) {
    if (p.mode != Mode::Bare) continue;
    out << (first ? "[" : ",[");
    write_json_number(out, p.run_s);
    out << ",";
    write_json_number(out, p.reference_s);
    out << "]";
    first = false;
  }
  out << "],\"checks\":[";
  for (std::size_t i = 0; i < checks.size(); ++i)
    out << (i ? "," : "") << "{\"name\":" << json_string(checks[i].name)
        << ",\"ok\":" << (checks[i].ok ? "true" : "false")
        << ",\"detail\":" << json_string(checks[i].detail) << "}";
  out << "]}";
  std::cout << out.str() << std::endl;
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // An engine that throws has failed its run: report it, print no result.
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "grasp_perfbench: run failed: " << e.what() << "\n";
    return 1;
  }
}
