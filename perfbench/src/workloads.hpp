// The benchmark's three workloads.  Each pass builds a fresh workload
// (grid, inputs, SimBackend and service: the set-up phase; the grid's
// models keep caches, so a grid is never reused across passes) and runs it
// once through a public entry point of the library.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/backend_sim.hpp"
#include "probe.hpp"

namespace perfbench {

struct WorkloadOptions {
  bool reduced = false;    ///< the self-test's small size
  bool telemetry = true;   ///< churn_diag: attach obs::Telemetry
  std::size_t nproc = 1;   ///< job_stream: cores available to the process
};

/// Host seconds spent in the set-up phase's parts.
struct SetupTimes {
  double build_s = 0.0;  ///< gridsim: grid construction
  double gen_s = 0.0;    ///< workloads: task sets, arrivals, probe kernel
};

struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

/// What one run phase produced.  `sim` holds virtual-time results, which
/// must repeat exactly for a seed; `counts` holds per-layer figures read
/// from the program's own reports (deterministic too); `host` holds host
/// seconds measured inside the run phase.
struct Outcome {
  std::map<std::string, double> sim;
  std::map<std::string, double> counts;
  std::map<std::string, double> host;
  std::uint64_t operations = 0;  ///< tasks or jobs the pass attempted
  std::uint64_t failed = 0;      ///< of which failed, rejected or lost
  std::vector<Check> checks;
};

/// How a pass observes the backend: not at all, by counting, or by timing
/// (optionally with one span per call).
struct ProbeConfig {
  bool enabled = false;
  bool timed = false;
  grasp::obs::SpanRecorder* spans = nullptr;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Set-up, part one: grid and inputs.
  virtual void build(std::uint64_t seed, SetupTimes& times) = 0;
  /// Set-up, part two: the SimBackend over the grid, wrapped in a
  /// TracedBackend when `probe` asks for one, then whatever drives it.
  void attach(const ProbeConfig& probe) {
    sim_.emplace(grid());
    backend_ = &*sim_;
    if (probe.enabled)
      backend_ = &traced_.emplace(*sim_, probe.timed, probe.spans,
                                  multi_tenant());
    bind();
  }
  /// The run phase.
  [[nodiscard]] virtual Outcome run() = 0;
  /// The decorator of this pass, or null.
  [[nodiscard]] TracedBackend* traced() {
    return traced_ ? &*traced_ : nullptr;
  }

 protected:
  [[nodiscard]] virtual const grasp::gridsim::Grid& grid() const = 0;
  /// Construct whatever drives backend_ (the service); default: nothing.
  virtual void bind() {}
  /// The GridService workload tags backend spans with job sequences.
  [[nodiscard]] virtual bool multi_tenant() const { return false; }

  grasp::core::Backend* backend_ = nullptr;

 private:
  // Base members outlive the derived ones, so a service built in bind()
  // is destroyed before the backend it drives.
  std::optional<grasp::core::SimBackend> sim_;
  std::optional<TracedBackend> traced_;
};

/// Null when `name` is not a workload.
[[nodiscard]] std::unique_ptr<Workload> make_workload(
    const std::string& name, const WorkloadOptions& options);

}  // namespace perfbench
