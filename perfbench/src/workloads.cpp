#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <sstream>

#include "bench/common.hpp"
#include "core/hier_farm.hpp"
#include "probe.hpp"
#include "support/stats.hpp"
#include "svc/grid_service.hpp"
#include "workloads/applications.hpp"

namespace perfbench {

using namespace grasp;

namespace {

/// Independent sub-seeds from the one --seed (splitmix64 finaliser).
std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Host seconds spent in `f`, added to `into`.
template <typename F>
void timed(double& into, F&& f) {
  const double t0 = host_now();
  f();
  into += host_now() - t0;
}

/// The single-run workloads have one "job", started at once: its latency
/// is the makespan and it never queues.
void single_job_sim(Outcome& out, double makespan_s, double useful_mops,
                    double wasted_mops) {
  out.sim["sim.makespan_s"] = makespan_s;
  out.sim["sim.job_makespan_p50_s"] = makespan_s;
  out.sim["sim.job_makespan_p95_s"] = makespan_s;
  out.sim["svc.queue_wait_p95_s"] = 0.0;
  out.sim["sim.useful_work_ratio"] = useful_mops / (useful_mops + wasted_mops);
  out.counts["sim.useful_work_base_mops"] = useful_mops + wasted_mops;
}

// ------------------------------------------------------------ hier_scale

/// HierFarm (Grasp mode) at the largest e15 scale: 1 root + W workers
/// cycling 50/100/200/400 mops, 8W irregular tasks.  No churn, service or
/// telemetry: the engine's token tables and the backend carry the cost.
class HierScale final : public Workload {
 public:
  explicit HierScale(const WorkloadOptions& o)
      : workers_(o.reduced ? 256 : 4096) {}

  void build(std::uint64_t seed, SetupTimes& times) override {
    timed(times.build_s, [&] {
      gridsim::GridBuilder b;
      const SiteId s = b.add_site("a");
      b.add_node(s, 100.0);  // root: coordination only
      const double speeds[] = {50.0, 100.0, 200.0, 400.0};
      for (std::size_t i = 0; i < workers_; ++i) b.add_node(s, speeds[i % 4]);
      grid_.emplace(b.build());
    });
    timed(times.gen_s, [&] {
      tasks_ =
          bench::irregular_tasks(8 * workers_, 2000.0, derive(seed, 1), 0.6);
    });
  }

  Outcome run() override {
    const core::HierFarmReport r = core::HierFarm(core::HierFarmParams{})
                                       .run(*backend_, *grid_,
                                            grid_->node_ids(), tasks_);
    Outcome out;
    const std::size_t total = tasks_.size();
    const std::size_t done = r.tasks_completed + r.calibration_tasks;
    out.operations = total;
    out.failed = done > total ? done - total : total - done;
    out.checks.push_back({"conservation", done == total,
                          std::to_string(done) + " of " +
                              std::to_string(total) + " tasks"});
    // Churn-free: no chunk is ever lost, so no work is wasted.
    single_job_sim(out, r.makespan.value, tasks_.total_work().value, 0.0);
    out.counts["workloads.tasks"] = static_cast<double>(total);
    out.counts["workloads.total_mops"] = tasks_.total_work().value;
    return out;
  }

 private:
  const gridsim::Grid& grid() const override { return *grid_; }

  std::size_t workers_;
  std::optional<gridsim::Grid> grid_;
  workloads::TaskSet tasks_;
};

// ------------------------------------------------------------ job_stream

/// The e14 open-loop stream (Poisson arrivals with a diurnal swing) on a
/// 16-node pool through one GridService with the calibration cache on,
/// with the 5-stage image pipeline as a fourth job kind.  At most
/// nproc - 1 jobs run at once, so job threads plus the client never
/// outnumber the cores.
class JobStream final : public Workload {
 public:
  static constexpr std::size_t kPipelineKind =
      workloads::application_mix_size();
  static constexpr std::size_t kPipelineStages = 5;
  static constexpr std::size_t kPipelineItems = 40;

  explicit JobStream(const WorkloadOptions& o)
      : jobs_(o.reduced ? 48 : 288),
        max_jobs_(std::max<std::size_t>(1, o.nproc - 1)) {}

  void build(std::uint64_t seed, SetupTimes& times) override {
    timed(times.build_s, [&] {
      gridsim::ScenarioParams sp;
      sp.node_count = 16;
      sp.sites = 2;
      sp.dynamics = gridsim::Dynamics::Stable;
      sp.seed = derive(seed, 2);
      grid_.emplace(gridsim::make_grid(sp));
    });
    timed(times.gen_s, [&] {
      workloads::JobArrivalParams ap;
      // The e14 profile, cut at a fixed job count (about the e14 stream's
      // 1200 s) so every seed offers the service the same number of jobs.
      ap.horizon = Seconds{8.0 * static_cast<double>(jobs_)};
      ap.base_rate_per_s = 1.0 / 4.0;
      ap.diurnal_amplitude = 0.6;
      ap.diurnal_period = Seconds{240.0};
      ap.diurnal_phase = 0.75;  // start in the trough, crest mid-run
      ap.seed = derive(seed, 3);
      arrivals_ = workloads::make_job_arrivals(ap);
      arrivals_.resize(std::min(arrivals_.size(), jobs_));
      // Kinds follow a fixed mandelbrot:alignment:quadrature:pipeline =
      // 2:1:1:1 cycle instead of random draws, so every seed offers the
      // same job mix; arrival times and each job's inputs still vary.
      constexpr std::size_t kKindCycle[] = {0, 1, 0, 2, kPipelineKind};
      for (std::size_t j = 0; j < arrivals_.size(); ++j)
        arrivals_[j].kind = kKindCycle[j % std::size(kKindCycle)];
      workloads::ImagePipelineParams ip;
      ip.stages = kPipelineStages;
      pipeline_ = workloads::make_image_pipeline(ip);
      for (const workloads::JobArrival& a : arrivals_) {
        tasks_.push_back(
            a.kind == kPipelineKind
                ? workloads::TaskSet{}
                : workloads::make_application_task_set(
                      static_cast<workloads::ApplicationKind>(a.kind),
                      a.seed));
        sizes_.push_back(tasks_.back().size());
      }
    });
  }

  Outcome run() override {
    std::vector<svc::JobHandle> handles;
    double useful_mops = 0.0;
    std::size_t farm_tasks = 0, pipeline_items = 0;
    for (std::size_t j = 0; j < arrivals_.size(); ++j) {
      const workloads::JobArrival& a = arrivals_[j];
      svc::JobOptions opt;
      opt.max_share = 0.45;
      if (a.kind == kPipelineKind) {
        opt.name = "image-pipeline";
        // A correct client asks for one node per stage (see README:
        // GridService admits a pipeline onto fewer nodes otherwise).
        opt.min_nodes = kPipelineStages;
        useful_mops += pipeline_.work_per_item().value * kPipelineItems;
        pipeline_items += kPipelineItems;
        handles.push_back(service_->submit_at(
            a.at,
            svc::PipelineJob{core::PipelineParams{}, pipeline_, kPipelineItems},
            opt));
      } else {
        opt.name = workloads::to_string(
            static_cast<workloads::ApplicationKind>(a.kind));
        opt.min_nodes = 2;
        useful_mops += tasks_[j].total_work().value;
        farm_tasks += tasks_[j].size();
        handles.push_back(service_->submit_at(
            a.at,
            svc::FarmJob{core::make_adaptive_farm_params(),
                         std::move(tasks_[j])},
            opt));
      }
    }
    service_->wait_all();

    Outcome out;
    out.operations = handles.size();
    std::vector<double> latency, wait;
    double makespan = 0.0, wasted = 0.0;
    std::size_t calibration = 0, lost_jobs = 0;
    std::string first_error;
    for (std::size_t j = 0; j < handles.size(); ++j) {
      const svc::JobHandle& h = handles[j];
      bool ok = h.status() == svc::JobStatus::Completed;
      if (ok && h.has_farm_report()) {
        const core::FarmReport& r = h.farm_report();
        ok = r.tasks_completed + r.calibration_tasks == sizes_[j];
        calibration += r.calibration_tasks;
        wasted += r.resilience.wasted_mops;
      } else if (ok) {
        const core::PipelineReport& r = h.pipeline_report();
        ok = r.items_completed == kPipelineItems && r.output_in_order;
        wasted += r.resilience.wasted_mops;
      }
      if (!ok) {
        ++lost_jobs;
        if (first_error.empty())
          first_error = "job " + std::to_string(h.id()) + " " +
                        svc::to_string(h.status()) + ": " +
                        h.error_message();
        continue;
      }
      makespan = std::max(makespan, h.finished_at().value);
      wait.push_back(h.queue_wait_s());
      // Open loop: a job's latency runs from its arrival, so queueing
      // counts against it.
      latency.push_back(h.queue_wait_s() + h.makespan_s());
    }
    out.failed = lost_jobs;
    out.checks.push_back({"jobs_conserved", lost_jobs == 0,
                          std::to_string(handles.size() - lost_jobs) + " of " +
                              std::to_string(handles.size()) + " jobs" +
                              (first_error.empty() ? "" : "; " + first_error)});
    out.checks.push_back({"no_rejections", service_->jobs_rejected() == 0,
                          std::to_string(service_->jobs_rejected()) +
                              " rejected"});

    out.sim["sim.makespan_s"] = makespan;
    out.sim["sim.job_makespan_p50_s"] = quantile(latency, 0.50);
    out.sim["sim.job_makespan_p95_s"] = quantile(latency, 0.95);
    out.sim["sim.useful_work_ratio"] = useful_mops / (useful_mops + wasted);
    out.sim["svc.queue_wait_p95_s"] = quantile(wait, 0.95);
    out.counts["sim.useful_work_base_mops"] = useful_mops + wasted;
    out.counts["sim.job_samples"] = static_cast<double>(latency.size());

    out.counts["svc.jobs_submitted"] =
        static_cast<double>(service_->jobs_submitted());
    out.counts["svc.jobs_completed"] =
        static_cast<double>(service_->jobs_completed());
    out.counts["svc.jobs_failed"] =
        static_cast<double>(service_->jobs_failed());
    out.counts["svc.jobs_rejected"] =
        static_cast<double>(service_->jobs_rejected());
    out.counts["svc.peak_concurrent"] =
        static_cast<double>(service_->max_concurrent_observed());
    out.counts["svc.cache_hits"] =
        static_cast<double>(service_->calibration_cache().hits());
    out.counts["svc.cache_stores"] =
        static_cast<double>(service_->calibration_cache().stores());
    out.counts["svc.calibration_tasks"] = static_cast<double>(calibration);
    out.counts["svc.calibration_ratio"] =
        farm_tasks > 0 ? static_cast<double>(calibration) /
                             static_cast<double>(farm_tasks)
                       : 0.0;
    out.counts["svc.max_concurrent_jobs"] = static_cast<double>(max_jobs_);
    out.counts["workloads.tasks"] =
        static_cast<double>(farm_tasks + pipeline_items);
    out.counts["workloads.total_mops"] = useful_mops;
    return out;
  }

 private:
  std::size_t jobs_;
  std::size_t max_jobs_;
  std::optional<gridsim::Grid> grid_;
  std::vector<workloads::JobArrival> arrivals_;
  std::vector<workloads::TaskSet> tasks_;  ///< moved into the jobs at run
  std::vector<std::size_t> sizes_;
  workloads::PipelineSpec pipeline_;
  std::optional<svc::GridService> service_;

  const gridsim::Grid& grid() const override { return *grid_; }
  void bind() override {
    svc::GridService::Params sp;
    sp.max_concurrent_jobs = max_jobs_;
    sp.use_calibration_cache = true;
    service_.emplace(*backend_, *grid_, grid_->node_ids(), sp);
  }
  bool multi_tenant() const override { return true; }
};

// ------------------------------------------------------------ churn_diag

/// How a user diagnoses a run: a flat TaskFarm on a churn grid with
/// checkpoints, a hot standby farmer and accrual+econ dispatch, full
/// telemetry with SLO watchdogs and a flight recorder, finished by the
/// Chrome trace, JSONL and blame exports.
class ChurnDiag final : public Workload {
 public:
  explicit ChurnDiag(const WorkloadOptions& o)
      : task_count_(o.reduced ? 4000 : 40000), telemetry_(o.telemetry) {}

  void build(std::uint64_t seed, SetupTimes& times) override {
    timed(times.build_s, [&] {
      gridsim::ChurnScenarioParams cp;
      cp.grid.node_count = 128;
      cp.grid.sites = 4;
      cp.grid.dynamics = gridsim::Dynamics::Stable;
      cp.grid.seed = derive(seed, 4);
      cp.spare_nodes = 16;
      cp.mtbf = 150.0;
      cp.horizon = Seconds{600.0};
      cp.warmup = Seconds{30.0};
      // The farmer stays up, as in the paper and the e13 rows: with it
      // churning too, a run whose farmer and standby both die is lost.
      cp.protected_prefix = 1;
      cp.churn_seed = derive(seed, 5);
      grid_.emplace(gridsim::make_churn_grid(cp));
    });
    timed(times.gen_s, [&] {
      tasks_ =
          bench::irregular_tasks(task_count_, 120.0, derive(seed, 6), 1.0);
    });
  }

  Outcome run() override {
    obs::Telemetry telemetry(/*detail=*/true);
    obs::FlightRecorder flight(1024);
    telemetry.flight = &flight;

    core::FarmParams p = core::make_adaptive_farm_params();
    p.chunk_size = 4;
    p.resilience.enabled = true;
    p.resilience.detector.heartbeat_period = Seconds{1.0};
    p.resilience.detector.timeout = Seconds{5.0};
    p.resilience.detector.mode = resil::DetectionMode::Accrual;
    p.resilience.detector.min_effective = Seconds{4.5};
    p.resilience.checkpoint_period = Seconds{8.0};
    p.resilience.failover.standby_count = 1;
    p.resilience.failover.handshake = Seconds{2.0};
    p.econ.enabled = true;
    p.slos.heartbeat_staleness_s = 10.0;
    p.slos.detection_latency_s = 6.0;
    p.slos.calibration_stall_s = 60.0;
    p.telemetry = telemetry_ ? &telemetry : nullptr;

    const core::FarmReport r =
        core::TaskFarm(p).run(*backend_, *grid_, grid_->node_ids(), tasks_);

    Outcome out;
    const std::size_t total = tasks_.size();
    const std::size_t done = r.tasks_completed + r.calibration_tasks;
    // The e13 rule: every task completes exactly once, counting
    // calibration and recovery, with retracted results re-run.
    const bool conserved =
        done == total &&
        r.trace.count(gridsim::TraceEventKind::TaskCompleted) ==
            total + r.trace.count(gridsim::TraceEventKind::TaskResultLost);
    out.operations = total;
    out.failed = conserved ? 0 : std::max<std::size_t>(
                                     1, done > total ? done - total
                                                     : total - done);
    out.checks.push_back({"conservation", conserved,
                          std::to_string(done) + " of " +
                              std::to_string(total) + " tasks"});

    const double makespan = r.makespan.value;
    if (telemetry_) {
      std::ostringstream trace, jsonl;
      timed(out.host["obs.export_s"], [&] {
        obs::write_chrome_trace(trace, telemetry.spans.records());
        obs::JsonlWriter writer(jsonl);
        writer.write_metrics(telemetry.metrics.snapshot());
        writer.write_spans(telemetry.spans.records());
      });
      obs::BlameReport blame;
      std::string blame_json;
      timed(out.host["obs.blame_s"], [&] {
        blame = obs::analyze_blame(telemetry.spans.records(), makespan);
        blame_json = obs::export_blame_json(blame);
      });
      const double blamed = blame.total.total();
      out.checks.push_back(
          {"blame_sums_to_makespan",
           std::abs(blamed - makespan) <= 0.01 * makespan,
           std::to_string(blamed) + " s blamed of " +
               std::to_string(makespan) + " s"});
      const auto snap = telemetry.metrics.snapshot();
      out.counts["obs.spans"] =
          static_cast<double>(telemetry.spans.records().size());
      out.counts["obs.metric_series"] = static_cast<double>(
          snap.counters.size() + snap.gauges.size() + snap.histograms.size());
      out.counts["obs.flight_events"] = static_cast<double>(flight.seen());
      out.counts["obs.export_bytes"] = static_cast<double>(
          trace.str().size() + jsonl.str().size() + blame_json.size());
    }

    const auto& res = r.resilience;
    single_job_sim(out, makespan, tasks_.total_work().value,
                   res.wasted_mops);
    out.counts["resil.crashes_detected"] =
        static_cast<double>(res.crashes_detected);
    out.counts["resil.chunks_lost"] = static_cast<double>(res.chunks_lost);
    out.counts["resil.tasks_redispatched"] =
        static_cast<double>(res.tasks_redispatched);
    out.counts["resil.wasted_mops"] = res.wasted_mops;
    out.counts["resil.recovered_mops"] = res.recovered_mops;
    out.counts["resil.checkpoints"] = static_cast<double>(res.checkpoints);
    out.counts["resil.failovers"] = static_cast<double>(res.failovers);
    out.counts["resil.zombie_completions"] =
        static_cast<double>(res.zombie_completions);
    out.counts["workloads.tasks"] = static_cast<double>(total);
    out.counts["workloads.total_mops"] = tasks_.total_work().value;
    return out;
  }

 private:
  const gridsim::Grid& grid() const override { return *grid_; }

  std::size_t task_count_;
  bool telemetry_;
  std::optional<gridsim::Grid> grid_;
  workloads::TaskSet tasks_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadOptions& options) {
  if (name == "hier_scale") return std::make_unique<HierScale>(options);
  if (name == "job_stream") return std::make_unique<JobStream>(options);
  if (name == "churn_diag") return std::make_unique<ChurnDiag>(options);
  return nullptr;
}

}  // namespace perfbench
