#include "probe.hpp"

#include <dlfcn.h>
#include <pthread.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <new>
#include <queue>

#include "svc/job_backend.hpp"

namespace perfbench {

namespace {

// Allocation counters.  Relaxed atomics: GridService job threads allocate
// too, and a thread starting or unwinding can overlap the turn holder.
std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs_in_backend{0};
std::atomic<std::uint64_t> g_allocs_outside{0};
thread_local bool tl_in_backend = false;

volatile double g_reference_sink = 0.0;

std::atomic<std::size_t> g_live_threads{1};  // the main thread
std::atomic<std::size_t> g_peak_threads{1};

void count_alloc() {
  if (!g_counting.load(std::memory_order_relaxed)) return;
  (tl_in_backend ? g_allocs_in_backend : g_allocs_outside)
      .fetch_add(1, std::memory_order_relaxed);
}

void* checked(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

double host_now() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin)
      .count();
}

double reference_kernel_s() {
  const double t0 = host_now();
  std::priority_queue<double> heap;
  std::uint64_t x = 0x243F6A8885A308D3ULL;
  for (int k = 0; k < 200000; ++k) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    heap.push(static_cast<double>(x >> 11));
    if (heap.size() > 4096) heap.pop();
  }
  const double elapsed = host_now() - t0;
  g_reference_sink = heap.top();  // keeps the work from being folded away
  return elapsed;
}

void set_alloc_counting(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}

AllocCounts alloc_counts() {
  return {g_allocs_in_backend.load(std::memory_order_relaxed),
          g_allocs_outside.load(std::memory_order_relaxed)};
}

std::size_t peak_live_threads() { return g_peak_threads.load(); }
void reset_peak_live_threads() { g_peak_threads.store(g_live_threads.load()); }

// ------------------------------------------------------------ decorator

/// One timed backend call: counts it, clocks it into `bucket`, marks the
/// thread as inside the backend for allocation attribution, and records
/// its span unless `name` is null (the trivial getters get none).
class TracedBackend::Call {
 public:
  Call(const TracedBackend& b, double BackendCounters::*bucket,
       const char* name, grasp::core::OpToken token = 0)
      : b_(b), bucket_(bucket) {
    ++b_.c_.calls;
    if (!b_.timed_) return;
    if (name != nullptr && b_.spans_ != nullptr &&
        b_.spans_->records().size() < kSpanBudget)
      span_ = b_.spans_->begin(name, b_.parent_, grasp::NodeId::invalid(),
                               grasp::TaskId::invalid(), job_of(token));
    tl_in_backend = true;
    start_ = host_now();
  }
  Call(const Call&) = delete;
  Call& operator=(const Call&) = delete;
  ~Call() {
    if (!b_.timed_) return;
    b_.c_.*bucket_ += host_now() - start_;
    tl_in_backend = false;
    if (span_ != 0) b_.spans_->end(span_, job_of(token_), nullptr);
  }

  /// wait_next learns its token only when the call returns.
  void set_token(grasp::core::OpToken token) { token_ = token; }

 private:
  [[nodiscard]] double job_of(grasp::core::OpToken token) const {
    return b_.tag_jobs_
               ? static_cast<double>(grasp::svc::detail::seq_of(token))
               : 0.0;
  }

  const TracedBackend& b_;
  double BackendCounters::*bucket_;
  grasp::obs::SpanId span_ = 0;
  grasp::core::OpToken token_ = 0;
  double start_ = 0.0;
};

TracedBackend::TracedBackend(grasp::core::Backend& inner, bool timed,
                             grasp::obs::SpanRecorder* spans, bool tag_jobs)
    : inner_(inner), timed_(timed), spans_(spans), tag_jobs_(tag_jobs) {}

grasp::Seconds TracedBackend::now() const {
  Call call(*this, &BackendCounters::other_s, nullptr);
  return inner_.now();
}

void TracedBackend::submit_compute(grasp::core::OpToken token,
                                   grasp::NodeId node, grasp::Mops work,
                                   std::function<void()> body) {
  Call call(*this, &BackendCounters::submit_s, "backend.submit", token);
  inner_.submit_compute(token, node, work, std::move(body));
  c_.in_flight_peak = std::max(c_.in_flight_peak, inner_.in_flight());
}

void TracedBackend::submit_transfer(grasp::core::OpToken token,
                                    grasp::NodeId from, grasp::NodeId to,
                                    grasp::Bytes payload) {
  Call call(*this, &BackendCounters::submit_s, "backend.submit", token);
  inner_.submit_transfer(token, from, to, payload);
  c_.in_flight_peak = std::max(c_.in_flight_peak, inner_.in_flight());
}

void TracedBackend::submit_timer(grasp::core::OpToken token,
                                 grasp::Seconds delay) {
  Call call(*this, &BackendCounters::submit_s, "backend.submit", token);
  inner_.submit_timer(token, delay);
}

bool TracedBackend::cancel_timer(grasp::core::OpToken token) {
  Call call(*this, &BackendCounters::other_s, "backend.cancel", token);
  const bool cancelled = inner_.cancel_timer(token);
  if (cancelled) ++c_.timer_cancels;
  return cancelled;
}

void TracedBackend::submit_batch(std::vector<grasp::core::OpRequest> requests) {
  Call call(*this, &BackendCounters::submit_s, "backend.submit_batch",
            requests.empty() ? 0 : requests.front().token);
  inner_.submit_batch(std::move(requests));
  c_.in_flight_peak = std::max(c_.in_flight_peak, inner_.in_flight());
}

double TracedBackend::compute_progress(grasp::core::OpToken token) const {
  Call call(*this, &BackendCounters::progress_s, "backend.progress", token);
  ++c_.progress_polls;
  return inner_.compute_progress(token);
}

std::optional<grasp::core::Completion> TracedBackend::wait_next() {
  Call call(*this, &BackendCounters::wait_s, "backend.wait_next");
  std::optional<grasp::core::Completion> c = inner_.wait_next();
  if (c.has_value()) {
    ++c_.completions;
    if (c->is_timer) ++c_.timers_fired;
    call.set_token(c->token);
  }
  return c;
}

std::size_t TracedBackend::in_flight() const {
  Call call(*this, &BackendCounters::other_s, nullptr);
  return inner_.in_flight();
}

}  // namespace perfbench

// --------------------------------------------------- allocation counting
//
// The whole replaceable family is defined here so that every form allocates
// and frees through malloc/free and is counted once.

namespace {

void* counted_alloc(std::size_t size) {
  perfbench::count_alloc();
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  perfbench::count_alloc();
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (std::max<std::size_t>(size, 1) + a - 1) / a * a;
  return std::aligned_alloc(a, rounded);
}

}  // namespace

void* operator new(std::size_t size) {
  return perfbench::checked(counted_alloc(size));
}
void* operator new[](std::size_t size) {
  return perfbench::checked(counted_alloc(size));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return perfbench::checked(counted_aligned_alloc(size, align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return perfbench::checked(counted_aligned_alloc(size, align));
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

// ------------------------------------------------------ thread counting

namespace {

struct ThreadStart {
  void* (*fn)(void*);
  void* arg;
};

void* counted_thread_main(void* raw) {
  const ThreadStart start = *static_cast<ThreadStart*>(raw);
  std::free(raw);
  struct Exit {
    ~Exit() { perfbench::g_live_threads.fetch_sub(1); }
  } on_exit;
  return start.fn(start.arg);
}

}  // namespace

/// Interposes the C library's pthread_create (the executable is linked
/// with -rdynamic, so std::thread inside the C++ runtime resolves here):
/// counts the thread as live from creation until its start routine
/// returns, and keeps the high-water mark.
extern "C" int pthread_create(pthread_t* thread, const pthread_attr_t* attr,
                              void* (*fn)(void*), void* arg) noexcept {
  using Real = int (*)(pthread_t*, const pthread_attr_t*, void* (*)(void*),
                       void*);
  static const Real real =
      reinterpret_cast<Real>(dlsym(RTLD_NEXT, "pthread_create"));
  if (real == nullptr) return EAGAIN;
  auto* start = static_cast<ThreadStart*>(std::malloc(sizeof(ThreadStart)));
  if (start == nullptr) return EAGAIN;
  *start = {fn, arg};
  const std::size_t live = perfbench::g_live_threads.fetch_add(1) + 1;
  std::size_t peak = perfbench::g_peak_threads.load();
  while (live > peak &&
         !perfbench::g_peak_threads.compare_exchange_weak(peak, live)) {
  }
  const int rc = real(thread, attr, counted_thread_main, start);
  if (rc != 0) {
    perfbench::g_live_threads.fetch_sub(1);
    std::free(start);
  }
  return rc;
}
