// Shared machinery of the repository benchmark: seeded inputs, stamped
// payloads, latency recorders, failure accounting, CPU meters, and the
// bench-side tracer whose spans wrap calls into the product's public API.
//
// Nothing here installs a product hook: spans are recorded from the
// benchmark's own files, around the calls it makes and inside the
// handlers it owns.
#pragma once

#include <pthread.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

// ---- seeded inputs ----

/// splitmix64 finaliser: a bijective 64-bit mix.
std::uint64_t mix64(std::uint64_t x) noexcept;

/// splitmix64 generator; the only source of workload randomness.
class Rng {
public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}
    std::uint64_t next() noexcept {
        state_ += 0x9E3779B97F4A7C15ULL;
        return mix64(state_);
    }
    /// Uniform in [lo, hi] (inclusive).
    std::uint64_t between(std::uint64_t lo, std::uint64_t hi) noexcept {
        return lo + next() % (hi - lo + 1);
    }

private:
    std::uint64_t state_;
};

/// Per-request sizes drawn from `choices` by the seed, one per request.
std::vector<std::uint32_t> seeded_sizes(std::uint64_t seed, std::size_t count,
                                        const std::vector<std::uint32_t>& choices);
/// Per-request sizes drawn uniformly from [lo, hi] by the seed.
std::vector<std::uint32_t> seeded_size_range(std::uint64_t seed,
                                             std::size_t count,
                                             std::uint32_t lo, std::uint32_t hi);
/// Per-probe phase offsets in [0, max_ns) drawn by the seed.
std::vector<std::int64_t> seeded_phases(std::uint64_t seed, std::size_t count,
                                        std::int64_t max_ns);

// ---- stamped payloads ----

/// 32-byte header at the front of every payload the benchmark sends:
/// sequence number, a timestamp (sent or due time), the reference body
/// the rest of the payload was copied from, the total length, and a check
/// word over all of those.
struct Stamp {
    std::uint64_t seq = 0;
    std::int64_t t_ns = 0;
    std::uint32_t ref = 0;
    std::uint32_t len = 0;
    std::uint64_t check = 0;
};
static_assert(sizeof(Stamp) == 32);

/// Seeded reference bodies. A payload is a Stamp followed by bytes
/// [sizeof(Stamp), len) of body `ref`, so a receiver can verify every
/// byte with one memcmp instead of re-deriving it.
class PayloadBook {
public:
    PayloadBook(std::uint64_t seed, std::size_t bodies, std::size_t max_len);

    const std::uint8_t* body(std::uint32_t ref) const noexcept {
        return data_.data() + static_cast<std::size_t>(ref) * max_len_;
    }
    std::uint64_t check_of(const Stamp& s) const noexcept;

    /// Write a stamped payload of `len` bytes (len >= sizeof(Stamp)).
    void fill(std::uint8_t* out, std::uint64_t seq, std::int64_t t_ns,
              std::uint32_t len) const noexcept;

    /// Verify a received payload; returns false on any wrong byte.
    /// `stamp` receives the decoded header (valid when len >= 32).
    bool verify(const std::uint8_t* in, std::size_t len,
                Stamp& stamp) const noexcept;

private:
    std::uint64_t salt_;
    std::size_t bodies_;
    std::size_t max_len_;
    std::vector<std::uint8_t> data_;
};

// ---- latency samples ----

/// Nearest-rank percentile of `values` (sorted in place). p in (0, 100].
double percentile_pick(std::vector<std::uint32_t>& values, double p);

/// Median of `values` (mean of the middle two for an even count).
double median(std::vector<double> values);

/// Single-writer latency recorder with a fixed capacity and no allocation
/// after construction. When full it keeps every other sample and halves
/// its sampling rate, so a long run stays uniformly sampled over time.
class Recorder {
public:
    explicit Recorder(std::size_t capacity = std::size_t{1} << 21);
    void record(std::int64_t ns) noexcept;
    std::uint64_t count() const noexcept { return seen_; }
    std::size_t kept() const noexcept { return n_; }
    /// Percentile in ns over the kept samples (0 when empty).
    double percentile(double p) const;

private:
    std::unique_ptr<std::uint32_t[]> data_;
    std::size_t cap_;
    std::size_t n_ = 0;
    std::uint64_t stride_ = 1;
    std::uint64_t skip_ = 0;
    std::uint64_t seen_ = 0;
};

/// Multi-writer recorder for traced layer samples: lock-free append into
/// a fixed array; samples beyond capacity are counted and dropped.
class SharedRecorder {
public:
    explicit SharedRecorder(std::size_t capacity = std::size_t{1} << 20);
    void record(std::int64_t ns) noexcept {
        const std::size_t i = n_.fetch_add(1, std::memory_order_relaxed);
        if (i < cap_) data_[i] = clamp(ns);
    }
    std::size_t count() const noexcept {
        return std::min(n_.load(std::memory_order_relaxed), cap_);
    }
    /// Percentile in ns (0 when empty). Call once writers are quiescent.
    double percentile(double p) const;
    static std::uint32_t clamp(std::int64_t ns) noexcept {
        if (ns < 0) return 0;
        if (ns > 0xFFFFFFFFLL) return 0xFFFFFFFFu;
        return static_cast<std::uint32_t>(ns);
    }

private:
    std::unique_ptr<std::uint32_t[]> data_;
    std::size_t cap_;
    std::atomic<std::size_t> n_{0};
};

// ---- failure accounting ----

/// Every request attempted and every way it can go wrong. Any failure or
/// degraded path fails the run.
struct Tally {
    std::atomic<std::uint64_t> attempted{0};
    std::atomic<std::uint64_t> completed{0};
    std::atomic<std::uint64_t> lost{0};
    std::atomic<std::uint64_t> duplicated{0};
    std::atomic<std::uint64_t> corrupt{0};
    std::atomic<std::uint64_t> dropped{0};
    std::atomic<std::uint64_t> refused{0};

    std::uint64_t failed() const noexcept {
        return lost.load() + duplicated.load() + corrupt.load() +
               dropped.load() + refused.load();
    }
    /// (lost + duplicated + corrupt + dropped + refused) / attempted.
    double fail_ratio() const noexcept;
};

/// In-order delivery check for one FIFO stream: every sequence number must
/// arrive exactly once, in order. Single consumer thread.
class SeqTracker {
public:
    /// Returns true when `seq` is the next expected one.
    bool on_seq(std::uint64_t seq, Tally& tally) noexcept;
    /// Count everything sent but never seen as lost.
    void finish(std::uint64_t sent, Tally& tally) noexcept;

private:
    std::uint64_t next_ = 0;
};

// ---- CPU ----

/// Process CPU (user + sys, getrusage RUSAGE_SELF) in ns.
std::int64_t process_cpu_ns() noexcept;
/// CPU time of one thread, readable from any thread.
std::int64_t thread_cpu_ns(pthread_t thread) noexcept;
/// Peak resident set of the process in MiB (ru_maxrss).
double peak_rss_mb() noexcept;

/// Host-wide CPU ticks from /proc/stat: {steal, total}. Steal is time the
/// hypervisor ran something else on our vCPUs, the usual source of a noisy
/// stretch on a shared VM.
std::pair<std::uint64_t, std::uint64_t> cpu_ticks();
/// Steal share of the CPU time between two cpu_ticks() readings.
double steal_share(const std::pair<std::uint64_t, std::uint64_t>& a,
                   const std::pair<std::uint64_t, std::uint64_t>& b) noexcept;

/// Process CPU over a window minus the load generators' own CPU.
class CpuMeter {
public:
    void add_generator(pthread_t thread) { generators_.push_back(thread); }
    void start() noexcept;
    void stop() noexcept;
    double product_cpu_s() const noexcept {
        return static_cast<double>(proc_ - gen_) / 1e9;
    }

private:
    std::int64_t gen_total() const noexcept;
    std::vector<pthread_t> generators_;
    std::int64_t proc_ = 0;
    std::int64_t gen_ = 0;
};

/// Heap allocations counted by the benchmark's operator new.
std::uint64_t allocation_count() noexcept;

// ---- tracing ----

/// Span names; a span's parent is named, and matched within its request.
enum class Layer : std::uint16_t {
    kRequest,      ///< one request end to end (root)
    kGetMessage,   ///< OutPort::get_message()
    kSend,         ///< OutPort::send()
    kWake,         ///< send() return -> receiving handler entry
    kHandler,      ///< a benchmark-owned handler body
    kEncode,       ///< serializer encode on the live path
    kDecode,       ///< serializer decode on the live path
    kOneway,       ///< exporter send() -> importer handler entry
    kInvoke,       ///< ClientOrb::invoke()
    kServant,      ///< servant body
    kRtzenInvoke,  ///< RtzenClientOrb::invoke()
    kTraceReport,  ///< Application::trace_report()
    kCount
};
const char* layer_name(Layer layer) noexcept;

struct Span {
    std::uint64_t req = 0;
    std::int64_t start = 0;
    std::int64_t end = 0;
    Layer name = Layer::kRequest;
    Layer parent = Layer::kCount; ///< kCount: root
    std::uint32_t tid = 0;
};

/// In-memory span store plus per-layer duration recorders. Spans are kept
/// for a sampled subset of requests (written out as a Chrome trace at
/// exit); every traced sample still feeds the layer recorders.
class Tracer {
public:
    Tracer();
    /// Allocates the stores; before this, and while off, record() is a
    /// single relaxed load.
    void enable(std::size_t span_capacity, std::uint64_t sample_every);
    bool on() const noexcept { return on_.load(std::memory_order_relaxed); }
    void set_on(bool on) noexcept { on_.store(on, std::memory_order_relaxed); }

    /// Record one span (and its duration into the layer's recorder).
    void record(Layer name, Layer parent, std::uint64_t req,
                std::int64_t start, std::int64_t end) noexcept;
    /// Record a layer duration without a span.
    void sample(Layer name, std::int64_t ns) noexcept {
        if (recorders_[static_cast<std::size_t>(name)]) {
            recorders_[static_cast<std::size_t>(name)]->record(ns);
        }
    }

    const SharedRecorder* recorder(Layer name) const noexcept {
        return recorders_[static_cast<std::size_t>(name)].get();
    }
    std::vector<Span> spans() const;
    std::uint64_t spans_dropped() const noexcept;

private:
    std::atomic<bool> on_{false};
    std::uint64_t sample_mask_ = 0;
    std::unique_ptr<Span[]> spans_;
    std::size_t span_cap_ = 0;
    std::atomic<std::size_t> span_n_{0};
    std::unique_ptr<SharedRecorder> recorders_[static_cast<std::size_t>(Layer::kCount)];
};

Tracer& tracer() noexcept;

/// Per-layer self time: each span's duration minus the part of its
/// interval covered by the union of its children (same request, parent
/// named as this span). Returns layer -> {total self ns, span count}.
std::map<std::string, std::pair<double, std::uint64_t>>
self_times(const std::vector<Span>& spans);

/// Chrome trace ("traceEvents", complete events in µs), the format
/// obs::chrome_trace_json emits for Perfetto.
std::string chrome_trace_json(const std::vector<Span>& spans);

/// Calls Application::trace_report() at 10 Hz on its own thread and
/// times each call (traced runs only).
class ReportMonitor {
public:
    explicit ReportMonitor(std::function<void()> poll);
    ~ReportMonitor();
    ReportMonitor(const ReportMonitor&) = delete;
    ReportMonitor& operator=(const ReportMonitor&) = delete;

private:
    std::function<void()> poll_;
    std::atomic<bool> stop_{false};
    pthread_t thread_{};
    bool started_ = false;
    static void* entry(void* self);
};

// ---- one run ----

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

/// One slice of the measured window. Every end-to-end figure is taken
/// per chunk and the median over the untraced chunks is reported, so a
/// burst of outside noise moves a few chunks, not the result.
struct Chunk {
    int mode = 0;                  ///< 0 untraced, 1 traced, 2.. workload-specific
    std::unique_ptr<Recorder> rtt; ///< latencies of requests completed in it
    std::uint64_t messages = 0;    ///< completed in it
    double seconds = 0.0;
    double product_cpu_s = 0.0;
    std::uint64_t allocations = 0;
    double steal = 0.0;            ///< host steal share of CPU time in it
};

/// Everything a workload hands back to the driver.
struct Report {
    std::vector<double> setup_s;       ///< one per set-up cycle
    Tally tally;
    std::vector<std::string> degraded; ///< any entry fails the run
    std::vector<Chunk> chunks;

    /// Attribute one request latency to the chunk it completed in
    /// (ignored outside the window). One writer thread per workload.
    void record_rtt(std::int64_t done_ns, std::int64_t rtt_ns) noexcept {
        const std::int64_t w0 = window_start.load(std::memory_order_acquire);
        if (w0 == 0 || done_ns < w0) return;
        const std::size_t i = chunk_lo + static_cast<std::size_t>((done_ns - w0) / chunk_ns);
        if (i < chunk_hi) chunks[i].rtt->record(rtt_ns);
    }
    /// Start of the window being measured; 0 between windows. The chunk
    /// fields below are written before it is published.
    std::atomic<std::int64_t> window_start{0};
    std::int64_t chunk_ns = 1;
    std::size_t chunk_lo = 0, chunk_hi = 0;

    /// Completed messages over the whole window (all modes).
    std::uint64_t messages() const noexcept;

    /// Traced runs: layer metrics.
    std::map<std::string, double> layers;
    /// Effective configuration and diagnostics, printed beside the result.
    std::vector<std::pair<std::string, std::string>> config;
    std::map<std::string, double> diag;
};

/// Set-up cycles per run. Every cycle's set-up time goes into setup_s
/// (the median is reported). Untraced runs measure after each of the last
/// kMeasuredCycles set-ups, an equal share of the window each, so thread
/// placement is drawn afresh five times per run; traced runs measure
/// after the last set-up only.
inline constexpr int kSetupCycles = 15;
inline constexpr int kMeasuredCycles = 5;

/// One workload's set-up, measured phase and teardown.
struct Cycle {
    std::function<void()> build;
    std::function<void(double seconds)> run; ///< warm up, then measure()
    std::function<void()> teardown;
};
void run_cycles(const Options& opt, Report& report, const Cycle& cycle);

/// Runs a load phase that is not measured (warm-up): `body(0, deadline)`.
void warm_up(const Options& opt, const std::function<void(int, std::int64_t)>& body);

/// Measures `seconds` of load and appends its chunks to the report:
/// 0.5 s chunks whose mode cycles through 0..modes-1 (traced runs pass
/// modes > 1, so drift hits every mode alike). Chunk i ends at window
/// start + (i + 1) x chunk length; `body(mode, deadline)` drives (or
/// waits out) the load until then. `completed()` is the running count of
/// completed messages; CPU, message and allocation counts are taken at
/// every chunk boundary.
void measure(Report& report, double seconds, int modes, CpuMeter& cpu,
             const std::function<std::uint64_t()>& completed,
             const std::function<void(int mode, std::int64_t deadline)>& body);

/// Mean of the middle half of `values` (the interquartile mean): the
/// per-chunk figures are summarised with it, robust to outlier chunks
/// like a median but smooth when chunks fall into two regimes.
double interquartile_mean(std::vector<double> values);

/// Every per-layer metric of the traced run, with its unit, in order.
const std::vector<std::pair<std::string, std::string>>& layer_metrics();

/// Fills report.layers with every per-layer metric name at 0, so a
/// workload sets only the layers on its path.
void init_layers(Report& report);

// Workloads.
void run_pingpong(const Options& opt, Report& report);
void run_orb_echo(const Options& opt, Report& report);
void run_tcp_stream(const Options& opt, Report& report);
void run_shm_mixed(const Options& opt, Report& report);

/// Self-tests of the benchmark's own arithmetic; returns failures.
int run_selftest();

} // namespace perfbench
