// Host-side instrumentation that observes the library from outside.
//
// Nothing here is compiled into the library: the benchmark wraps the
// SimBackend it hands to the engines in a forwarding TracedBackend, counts
// heap allocations through a replaced global operator new, and counts live
// threads through an interposed pthread_create.  Every call an engine or
// the GridService makes into the backend passes through the decorator, so
// the backend's own cost (core.backend) and the cost of everything around
// it (core.engine, svc) can be separated without touching src/.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/backend.hpp"
#include "obs/span.hpp"

namespace perfbench {

/// Host seconds on the steady clock since the first call.
[[nodiscard]] double host_now();

/// Host seconds for one run of a fixed reference kernel: a binary heap
/// of 4096 doubles under 200k push/pop pairs, the branchy, cache-resident
/// work an event queue does.  It calls no library code, so no change to the
/// library can move it; timed just before each pass, it tracks how fast the
/// host is at that moment (see kReferenceNominalS).
[[nodiscard]] double reference_kernel_s();

/// The reference kernel's typical time on the 4-vCPU VM the benchmark was
/// tuned on.  Run-phase host times are reported as `measured * nominal /
/// kernel time of the same pass`: seconds at that host speed.
inline constexpr double kReferenceNominalS = 0.010;

/// Cumulative heap allocations counted while counting is on, split by
/// whether the allocating thread was inside a TracedBackend call.
struct AllocCounts {
  std::uint64_t in_backend = 0;
  std::uint64_t outside = 0;
};
void set_alloc_counting(bool on);
[[nodiscard]] AllocCounts alloc_counts();

/// High-water mark, since the last reset, of live threads: the main thread
/// plus those started by pthread_create whose start routine is running.
[[nodiscard]] std::size_t peak_live_threads();
void reset_peak_live_threads();

/// Work and host time seen at the backend boundary during one pass.
struct BackendCounters {
  std::uint64_t calls = 0;
  std::uint64_t completions = 0;  ///< wait_next results, timers included
  std::uint64_t timers_fired = 0;
  std::uint64_t timer_cancels = 0;
  std::uint64_t progress_polls = 0;
  std::size_t in_flight_peak = 0;
  double submit_s = 0.0;    ///< submit_* and submit_batch
  double wait_s = 0.0;      ///< wait_next
  double progress_s = 0.0;  ///< compute_progress
  double other_s = 0.0;     ///< now, cancel_timer, in_flight
  [[nodiscard]] double total_s() const {
    return submit_s + wait_s + progress_s + other_s;
  }
};

/// A trace file stays loadable: call spans stop being recorded once the
/// recorder holds this many (the calls are still timed and counted).
inline constexpr std::size_t kSpanBudget = 250000;

/// Forwarding Backend decorator.  With `timed` off it only counts (the
/// untimed warm-up pass uses it to learn the pass's completion count);
/// with `timed` on it also clocks every call, attributes allocations made
/// inside a call to the backend, and, when `spans` is non-null, records one
/// span per call under the span set by set_span_parent.  `tag_jobs` stores
/// the GridService job sequence (the token's high bits) in each span's
/// value.
///
/// Not internally synchronised, exactly like the SimBackend it wraps: the
/// engines call it from one thread, and under GridService the turn-based
/// handoff serialises every call behind the service mutex.
class TracedBackend final : public grasp::core::Backend {
 public:
  TracedBackend(grasp::core::Backend& inner, bool timed,
                grasp::obs::SpanRecorder* spans, bool tag_jobs);

  [[nodiscard]] grasp::Seconds now() const override;
  void submit_compute(grasp::core::OpToken token, grasp::NodeId node,
                      grasp::Mops work,
                      std::function<void()> body = {}) override;
  void submit_transfer(grasp::core::OpToken token, grasp::NodeId from,
                       grasp::NodeId to, grasp::Bytes payload) override;
  void submit_timer(grasp::core::OpToken token,
                    grasp::Seconds delay) override;
  bool cancel_timer(grasp::core::OpToken token) override;
  void submit_batch(std::vector<grasp::core::OpRequest> requests) override;
  [[nodiscard]] double compute_progress(
      grasp::core::OpToken token) const override;
  [[nodiscard]] std::optional<grasp::core::Completion> wait_next() override;
  [[nodiscard]] std::size_t in_flight() const override;

  [[nodiscard]] const BackendCounters& counters() const { return c_; }
  /// Parent of the call spans recorded from now on.
  void set_span_parent(grasp::obs::SpanId parent) { parent_ = parent; }

 private:
  class Call;

  grasp::core::Backend& inner_;
  bool timed_;
  grasp::obs::SpanRecorder* spans_;
  grasp::obs::SpanId parent_ = 0;
  bool tag_jobs_;
  mutable BackendCounters c_;
};

/// obs::Clock over host_now(), so the benchmark's own spans reuse the
/// library's span recorder and Chrome-trace exporter.
class HostClock final : public grasp::obs::Clock {
 public:
  [[nodiscard]] double now_s() const override { return host_now(); }
};

}  // namespace perfbench
