#include "harness.hpp"

#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

namespace perfbench {

std::uint64_t mix64(std::uint64_t x) noexcept {
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

std::vector<std::uint32_t> seeded_sizes(std::uint64_t seed, std::size_t count,
                                        const std::vector<std::uint32_t>& choices) {
    Rng rng(mix64(seed ^ 0x51235ULL));
    std::vector<std::uint32_t> out(count);
    for (auto& s : out) s = choices[rng.next() % choices.size()];
    return out;
}

std::vector<std::uint32_t> seeded_size_range(std::uint64_t seed,
                                             std::size_t count,
                                             std::uint32_t lo, std::uint32_t hi) {
    Rng rng(mix64(seed ^ 0x7A11E5ULL));
    std::vector<std::uint32_t> out(count);
    for (auto& s : out) s = static_cast<std::uint32_t>(rng.between(lo, hi));
    return out;
}

std::vector<std::int64_t> seeded_phases(std::uint64_t seed, std::size_t count,
                                        std::int64_t max_ns) {
    Rng rng(mix64(seed ^ 0xF4A5EULL));
    std::vector<std::int64_t> out(count);
    for (auto& p : out) {
        p = static_cast<std::int64_t>(rng.next() %
                                      static_cast<std::uint64_t>(max_ns));
    }
    return out;
}

// ---- payloads ----

PayloadBook::PayloadBook(std::uint64_t seed, std::size_t bodies,
                         std::size_t max_len)
    : salt_(mix64(seed ^ 0xC0FFEEULL)), bodies_(bodies), max_len_(max_len),
      data_(bodies * max_len) {
    Rng rng(mix64(seed ^ 0xB0D1E5ULL));
    for (std::size_t i = 0; i < data_.size(); i += 8) {
        const std::uint64_t w = rng.next();
        std::memcpy(data_.data() + i, &w, std::min<std::size_t>(8, data_.size() - i));
    }
}

std::uint64_t PayloadBook::check_of(const Stamp& s) const noexcept {
    return mix64(salt_ ^ s.seq) ^
           mix64(static_cast<std::uint64_t>(s.t_ns) + 0x9E37ULL) ^
           mix64((static_cast<std::uint64_t>(s.ref) << 32) | s.len);
}

void PayloadBook::fill(std::uint8_t* out, std::uint64_t seq, std::int64_t t_ns,
                       std::uint32_t len) const noexcept {
    Stamp s;
    s.seq = seq;
    s.t_ns = t_ns;
    s.ref = static_cast<std::uint32_t>(mix64(seq ^ salt_) % bodies_);
    s.len = len;
    s.check = check_of(s);
    std::memcpy(out, &s, sizeof s);
    if (len > sizeof s) {
        std::memcpy(out + sizeof s, body(s.ref) + sizeof s, len - sizeof s);
    }
}

bool PayloadBook::verify(const std::uint8_t* in, std::size_t len,
                         Stamp& stamp) const noexcept {
    if (len < sizeof stamp || len > max_len_) return false;
    std::memcpy(&stamp, in, sizeof stamp);
    if (stamp.len != len || stamp.ref >= bodies_) return false;
    if (stamp.check != check_of(stamp)) return false;
    return std::memcmp(in + sizeof stamp, body(stamp.ref) + sizeof stamp,
                       len - sizeof stamp) == 0;
}

// ---- samples ----

double percentile_pick(std::vector<std::uint32_t>& values, double p) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
    std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    idx = std::min(idx, values.size() - 1);
    return static_cast<double>(values[idx]);
}

double median(std::vector<double> values) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

// Sample storage is left untouched until written, so peak_rss_mb counts
// only the pages a run actually fills.
Recorder::Recorder(std::size_t capacity)
    : data_(new std::uint32_t[capacity]), cap_(capacity) {}

void Recorder::record(std::int64_t ns) noexcept {
    ++seen_;
    if (++skip_ < stride_) return;
    skip_ = 0;
    if (n_ == cap_) {
        for (std::size_t i = 0; i < cap_ / 2; ++i) data_[i] = data_[2 * i];
        n_ = cap_ / 2;
        stride_ *= 2;
    }
    data_[n_++] = SharedRecorder::clamp(ns);
}

double Recorder::percentile(double p) const {
    std::vector<std::uint32_t> v(data_.get(), data_.get() + n_);
    return percentile_pick(v, p);
}

SharedRecorder::SharedRecorder(std::size_t capacity)
    : data_(new std::uint32_t[capacity]), cap_(capacity) {}

double SharedRecorder::percentile(double p) const {
    std::vector<std::uint32_t> v(data_.get(), data_.get() + count());
    return percentile_pick(v, p);
}

// ---- failures ----

double Tally::fail_ratio() const noexcept {
    const std::uint64_t a = attempted.load();
    if (a == 0) return 1.0;
    return static_cast<double>(failed()) / static_cast<double>(a);
}

bool SeqTracker::on_seq(std::uint64_t seq, Tally& tally) noexcept {
    if (seq == next_) {
        ++next_;
        return true;
    }
    if (seq < next_) {
        tally.duplicated.fetch_add(1, std::memory_order_relaxed);
    } else {
        tally.lost.fetch_add(seq - next_, std::memory_order_relaxed);
        next_ = seq + 1;
    }
    return false;
}

void SeqTracker::finish(std::uint64_t sent, Tally& tally) noexcept {
    if (sent > next_) tally.lost.fetch_add(sent - next_);
    next_ = std::max(next_, sent);
}

// ---- CPU ----

std::int64_t process_cpu_ns() noexcept {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto tv = [](const timeval& t) {
        return static_cast<std::int64_t>(t.tv_sec) * 1'000'000'000 +
               static_cast<std::int64_t>(t.tv_usec) * 1000;
    };
    return tv(ru.ru_utime) + tv(ru.ru_stime);
}

std::int64_t thread_cpu_ns(pthread_t thread) noexcept {
    clockid_t clk{};
    if (pthread_getcpuclockid(thread, &clk) != 0) return 0;
    timespec ts{};
    if (clock_gettime(clk, &ts) != 0) return 0;
    return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double peak_rss_mb() noexcept {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::pair<std::uint64_t, std::uint64_t> cpu_ticks() {
    std::ifstream in("/proc/stat");
    std::string cpu;
    std::uint64_t v[8] = {}; // user nice system idle iowait irq softirq steal
    in >> cpu;
    for (auto& x : v) in >> x;
    std::uint64_t total = 0;
    for (const auto x : v) total += x;
    return {v[7], total};
}

double steal_share(const std::pair<std::uint64_t, std::uint64_t>& a,
                   const std::pair<std::uint64_t, std::uint64_t>& b) noexcept {
    if (b.second <= a.second) return 0.0;
    return static_cast<double>(b.first - a.first) / static_cast<double>(b.second - a.second);
}

std::int64_t CpuMeter::gen_total() const noexcept {
    std::int64_t total = 0;
    for (const pthread_t t : generators_) total += thread_cpu_ns(t);
    return total;
}

void CpuMeter::start() noexcept {
    proc_ = -process_cpu_ns();
    gen_ = -gen_total();
}

void CpuMeter::stop() noexcept {
    gen_ += gen_total();
    proc_ += process_cpu_ns();
}

// ---- tracing ----

const char* layer_name(Layer layer) noexcept {
    switch (layer) {
    case Layer::kRequest: return "request";
    case Layer::kGetMessage: return "core.get_message";
    case Layer::kSend: return "core.send";
    case Layer::kWake: return "core.wake";
    case Layer::kHandler: return "handler";
    case Layer::kEncode: return "cdr.encode";
    case Layer::kDecode: return "cdr.decode";
    case Layer::kOneway: return "remote.oneway";
    case Layer::kInvoke: return "orb.invoke";
    case Layer::kServant: return "orb.servant";
    case Layer::kRtzenInvoke: return "rtzen.invoke";
    case Layer::kTraceReport: return "obs.trace_report";
    case Layer::kCount: break;
    }
    return "?";
}

Tracer::Tracer() = default;

void Tracer::enable(std::size_t span_capacity, std::uint64_t sample_every) {
    spans_.reset(new Span[span_capacity]);
    span_cap_ = span_capacity;
    sample_mask_ = sample_every - 1; // sample_every is a power of two
    for (auto& r : recorders_) r = std::make_unique<SharedRecorder>();
}

namespace {
std::uint32_t this_tid() noexcept {
    thread_local const auto tid =
        static_cast<std::uint32_t>(::syscall(SYS_gettid));
    return tid;
}
} // namespace

void Tracer::record(Layer name, Layer parent, std::uint64_t req,
                    std::int64_t start, std::int64_t end) noexcept {
    sample(name, end - start);
    if ((req & sample_mask_) != 0 || !spans_) return;
    const std::size_t i = span_n_.fetch_add(1, std::memory_order_relaxed);
    if (i >= span_cap_) return;
    spans_[i] = Span{req, start, end, name, parent, this_tid()};
}

std::vector<Span> Tracer::spans() const {
    const std::size_t n = std::min(span_n_.load(), span_cap_);
    return std::vector<Span>(spans_.get(), spans_.get() + n);
}

std::uint64_t Tracer::spans_dropped() const noexcept {
    const std::size_t n = span_n_.load();
    return n > span_cap_ ? n - span_cap_ : 0;
}

Tracer& tracer() noexcept {
    static Tracer t;
    return t;
}

std::map<std::string, std::pair<double, std::uint64_t>>
self_times(const std::vector<Span>& spans) {
    // Group span indices by request.
    std::map<std::uint64_t, std::vector<std::size_t>> by_req;
    for (std::size_t i = 0; i < spans.size(); ++i) by_req[spans[i].req].push_back(i);
    std::map<std::string, std::pair<double, std::uint64_t>> out;
    std::vector<std::pair<std::int64_t, std::int64_t>> kids;
    for (const auto& [req, idx] : by_req) {
        for (const std::size_t i : idx) {
            const Span& s = spans[i];
            kids.clear();
            for (const std::size_t j : idx) {
                const Span& c = spans[j];
                if (j == i || c.parent != s.name) continue;
                const std::int64_t a = std::max(c.start, s.start);
                const std::int64_t b = std::min(c.end, s.end);
                if (b > a) kids.emplace_back(a, b);
            }
            std::sort(kids.begin(), kids.end());
            std::int64_t covered = 0;
            std::int64_t cur_a = 0, cur_b = 0;
            bool open = false;
            for (const auto& [a, b] : kids) {
                if (!open || a > cur_b) {
                    if (open) covered += cur_b - cur_a;
                    cur_a = a;
                    cur_b = b;
                    open = true;
                } else {
                    cur_b = std::max(cur_b, b);
                }
            }
            if (open) covered += cur_b - cur_a;
            auto& slot = out[layer_name(s.name)];
            slot.first += static_cast<double>(std::max<std::int64_t>(
                0, (s.end - s.start) - covered));
            slot.second += 1;
        }
    }
    return out;
}

std::string chrome_trace_json(const std::vector<Span>& spans) {
    std::vector<const Span*> sorted;
    sorted.reserve(spans.size());
    for (const Span& s : spans) sorted.push_back(&s);
    std::sort(sorted.begin(), sorted.end(),
              [](const Span* a, const Span* b) { return a->start < b->start; });
    const std::int64_t t0 = sorted.empty() ? 0 : sorted.front()->start;
    std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
    char line[256];
    for (std::size_t i = 0; i < sorted.size(); ++i) {
        const Span& s = *sorted[i];
        std::snprintf(line, sizeof line,
                      "%s{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                      "\"pid\":1,\"tid\":%" PRIu32 ",\"args\":{\"req\":%" PRIu64
                      ",\"parent\":\"%s\"}}",
                      i == 0 ? "" : ",\n", layer_name(s.name),
                      static_cast<double>(s.start - t0) / 1000.0,
                      static_cast<double>(s.end - s.start) / 1000.0, s.tid,
                      s.req,
                      s.parent == Layer::kCount ? "" : layer_name(s.parent));
        out += line;
    }
    out += "\n]}\n";
    return out;
}

ReportMonitor::ReportMonitor(std::function<void()> poll) : poll_(std::move(poll)) {
    started_ = pthread_create(&thread_, nullptr, &ReportMonitor::entry, this) == 0;
}

ReportMonitor::~ReportMonitor() {
    stop_.store(true);
    if (started_) pthread_join(thread_, nullptr);
}

void* ReportMonitor::entry(void* self) {
    auto* m = static_cast<ReportMonitor*>(self);
    while (!m->stop_.load()) {
        const std::int64_t t0 = now_ns();
        m->poll_();
        tracer().sample(Layer::kTraceReport, now_ns() - t0);
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    return nullptr;
}

// ---- windows ----

std::uint64_t Report::messages() const noexcept {
    std::uint64_t n = 0;
    for (const Chunk& c : chunks) n += c.messages;
    return n;
}

void run_cycles(const Options& opt, Report& report, const Cycle& cycle) {
    const int measured = opt.trace ? 1 : kMeasuredCycles;
    for (int i = 0; i < kSetupCycles; ++i) {
        const std::int64_t t0 = now_ns();
        cycle.build();
        report.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
        if (i >= kSetupCycles - measured) cycle.run(opt.seconds / measured);
        cycle.teardown();
    }
}

void warm_up(const Options& opt, const std::function<void(int, std::int64_t)>& body) {
    body(0, now_ns() + static_cast<std::int64_t>(std::min(0.3, opt.seconds * 0.05) * 1e9));
}

void measure(Report& report, double seconds, int modes, CpuMeter& cpu,
             const std::function<std::uint64_t()>& completed,
             const std::function<void(int, std::int64_t)>& body) {
    constexpr double chunk_s = 0.5;
    const auto n = static_cast<std::size_t>(
        std::max<long long>(modes, std::llround(seconds / chunk_s)));
    const std::size_t lo = report.chunks.size();
    report.chunks.resize(lo + n);
    for (std::size_t i = lo; i < lo + n; ++i) {
        report.chunks[i].mode = static_cast<int>((i - lo) % static_cast<std::size_t>(modes));
        report.chunks[i].rtt = std::make_unique<Recorder>(std::size_t{1} << 17);
    }
    report.chunk_ns = static_cast<std::int64_t>(chunk_s * 1e9);
    report.chunk_lo = lo;
    report.chunk_hi = lo + n;
    const std::int64_t w0 = now_ns();
    report.window_start.store(w0, std::memory_order_release);
    for (std::size_t i = lo; i < lo + n; ++i) {
        Chunk& c = report.chunks[i];
        tracer().set_on(c.mode == 1);
        const std::uint64_t m0 = completed();
        const std::uint64_t a0 = allocation_count();
        const auto ticks0 = cpu_ticks();
        const std::int64_t t0 = now_ns();
        cpu.start();
        body(c.mode, w0 + static_cast<std::int64_t>(i - lo + 1) * report.chunk_ns);
        cpu.stop();
        c.seconds = static_cast<double>(now_ns() - t0) / 1e9;
        c.allocations = allocation_count() - a0;
        c.messages = completed() - m0;
        c.product_cpu_s = cpu.product_cpu_s();
        c.steal = steal_share(ticks0, cpu_ticks());
    }
    tracer().set_on(false);
    report.window_start.store(0, std::memory_order_release);
}

double interquartile_mean(std::vector<double> values) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    const std::size_t lo = n / 4;
    const std::size_t hi = n - n / 4;
    double sum = 0.0;
    for (std::size_t i = lo; i < hi; ++i) sum += values[i];
    return sum / static_cast<double>(hi - lo);
}

const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
    static const std::vector<std::pair<std::string, std::string>> kMetrics = {
        {"compiler.parse_ms", "ms"},
        {"compiler.validate_ms", "ms"},
        {"compiler.assemble_ms", "ms"},
        {"core.start_ms", "ms"},
        {"core.get_message_ns_p50", "ns"},
        {"core.get_message_ns_p99", "ns"},
        {"core.send_ns_p50", "ns"},
        {"core.send_ns_p99", "ns"},
        {"core.wake_us_p50", "us"},
        {"core.wake_us_p99", "us"},
        {"core.locks_per_msg", "1/msg"},
        {"core.credit_stalls_per_1k", "1/1k_msg"},
        {"core.depth_hwm", "count"},
        {"remote.oneway_us_p50", "us"},
        {"remote.oneway_us_p99", "us"},
        {"remote.frames_dropped", "count"},
        {"cdr.encode_ns_p50", "ns"},
        {"cdr.decode_ns_p50", "ns"},
        {"net.send_syscalls_per_frame", "1/frame"},
        {"net.frames_per_batch", "frames"},
        {"net.loop_syscalls_per_frame", "1/frame"},
        {"net.pool_tls_hit_ratio", "ratio"},
        {"net.shm_futex_per_msg", "1/msg"},
        {"net.shm_rx_copy_ratio", "ratio"},
        {"net.shm_pin_stalls", "count"},
        {"orb.overhead_us_p50", "us"},
        {"rtzen.rtt_us_p50", "us"},
        {"obs.trace_report_us_p50", "us"},
        {"process.allocs_per_msg", "1/msg"},
        {"trace.overhead_pct", "%"},
    };
    return kMetrics;
}

void init_layers(Report& report) {
    for (const auto& [name, unit] : layer_metrics()) report.layers[name] = 0.0;
}

} // namespace perfbench
