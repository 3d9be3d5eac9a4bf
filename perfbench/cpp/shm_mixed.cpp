// shm_mixed: two core::Applications bridged over a 2-band ShmTransport
// segment, used two ways at once. Band 1 carries a one-way bulk stream of
// 4 KiB OctetSeq (BulkGen -> BulkSink), offered open-loop at a fixed rate
// and held back by the product's credit backpressure whenever the far
// side falls behind. Band 0 carries 32 B urgent request/reply probes
// (Probe -> Echo -> Probe), sent open-loop on a fixed period with a
// seeded phase; each probe is timed from when it was due, and the
// generator's own lateness is reported beside it.
//
// RemoteBridge stamps a route's band only on multi-lane wires, so on one
// ShmTransport every route would ride band 0. BandStamp, a pass-through
// Transport, stamps band 1 on the bulk frames (the only frames above
// 1 KiB) before they reach the segment.
#include "wire_common.hpp"

#include "cdr/giop.hpp"
#include "net/shm_transport.hpp"
#include "remote/bridge.hpp"
#include "rt/thread.hpp"

#include <sys/prctl.h>

#include <optional>
#include <thread>

namespace perfbench {
namespace {

using namespace compadres;

constexpr std::uint32_t kBulkBytes = 4096;
/// Offered bulk load. A flat-out stream saturates the SCHED_FIFO reader
/// and the urgent p99 then swings between 17 and 34 ms from run to run;
/// at this rate (about a sixth of saturation) credit backpressure still
/// applies but every figure repeats.
constexpr std::int64_t kBulkPerSecond = 100'000;
constexpr std::uint32_t kProbeBytes = 32;
constexpr std::int64_t kProbePeriodNs = 50'000;
constexpr std::size_t kPhaseCycle = 4096;
constexpr std::size_t kBulkThreshold = 1024;
constexpr std::int64_t kTimeoutNs = 2'000'000'000;

class BandStamp final : public net::Transport {
public:
    explicit BandStamp(std::unique_ptr<net::Transport> inner) : inner_(std::move(inner)) {}
    using net::Transport::send_frame;
    void send_frame(net::FrameBuffer frame) override {
        if (frame.size() >= cdr::GiopHeader::kSize) {
            cdr::set_frame_band(frame.data(), frame.size() > kBulkThreshold ? 1 : 0);
        }
        inner_->send_frame(std::move(frame));
    }
    std::optional<net::FrameBuffer> recv_frame() override { return inner_->recv_frame(); }
    void close() override { inner_->close(); }
    std::string peer_description() const override { return inner_->peer_description(); }
    net::TransportStats stats() const override { return inner_->stats(); }
    net::ReactorHook* reactor_hook() noexcept override { return inner_->reactor_hook(); }
    void prepare_close() override { inner_->prepare_close(); }
    net::FrameBufferPool& frame_pool() noexcept override { return inner_->frame_pool(); }
    void set_frame_pool(net::FrameBufferPool* pool) noexcept override {
        inner_->set_frame_pool(pool);
    }
    void set_coalescing(bool on) override { inner_->set_coalescing(on); }

private:
    std::unique_ptr<net::Transport> inner_;
};

struct ShmState {
    explicit ShmState(std::uint64_t seed)
        : bulk_book(seed, 16, kBulkBytes), probe_book(seed ^ 0x5EEDULL, 1, kProbeBytes),
          phases(seeded_phases(seed, kPhaseCycle, kProbePeriodNs / 2)), send_at(kPhaseCycle) {}
    PayloadBook bulk_book;
    PayloadBook probe_book;
    std::vector<std::int64_t> phases;
    Report* report = nullptr;
    SeqTracker bulk_tracker;  ///< BulkSink handler only
    SeqTracker probe_tracker; ///< Probe.reply handler only
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> bulk_sent{0}, bulk_done{0};
    std::atomic<std::uint64_t> probe_sent{0}, probe_done{0};
    /// Traced runs: when each in-flight probe's send() began.
    std::vector<std::atomic<std::int64_t>> send_at;
    Recorder lateness{std::size_t{1} << 18}; ///< probe thread only
    std::atomic<bool> failed{false};
    std::atomic<bool> probe_rt{false};
};

struct ShmRig {
    std::unique_ptr<core::Application> a, b;
    std::unique_ptr<remote::RemoteBridge> ba, bb;
    net::ShmTransport* ta = nullptr; ///< owned by ba (through BandStamp)
    net::ShmTransport* tb = nullptr; ///< owned by bb
    core::OutPort<core::OctetSeq>* bulk_out = nullptr;
    core::OutPort<core::OctetSeq>* probe_out = nullptr;
    bool shm = false;
    std::string detail;       ///< shm upgrade outcome
    std::string reader_model; ///< how the bridges receive
    double start_ms = 0.0;

    void teardown() {
        if (ba) ba->shutdown();
        if (bb) bb->shutdown();
        if (a) a->stop();
        if (b) b->stop();
        ba.reset();
        bb.reset();
        a.reset();
        b.reset();
        ta = tb = nullptr;
    }
};

void build(ShmRig& rig, ShmState& st, bool trace) {
    net::ShmOptions so;
    so.bands = 2;
    net::ShmAcceptor acceptor(0, so);
    net::ShmConnectResult accepted;
    std::thread accept_thread([&] { accepted = acceptor.accept(); });
    net::ShmConnectResult connected =
        net::shm_upgrade_connect("127.0.0.1", acceptor.bound_port(), so);
    accept_thread.join();
    acceptor.close();
    rig.shm = connected.shm && accepted.shm;
    rig.detail = connected.detail;
    rig.ta = dynamic_cast<net::ShmTransport*>(connected.transport.get());
    rig.tb = dynamic_cast<net::ShmTransport*>(accepted.transport.get());

    rig.a = std::make_unique<core::Application>("perf-shm-a");
    rig.b = std::make_unique<core::Application>("perf-shm-b");
    rig.ba = std::make_unique<remote::RemoteBridge>(
        *rig.a, std::make_unique<BandStamp>(std::move(connected.transport)), "shm-a");
    rig.bb = std::make_unique<remote::RemoteBridge>(
        *rig.b, std::make_unique<BandStamp>(std::move(accepted.transport)), "shm-b");
    if (trace) install_timed_octet_codec();

    core::TransmissionPolicy bulk_policy;
    bulk_policy.band = 1;
    core::TransmissionPolicy urgent_policy;
    urgent_policy.band = 0;

    auto& gen = rig.a->create_immortal<core::Component>("BulkGen");
    rig.bulk_out = &gen.add_out_port<core::OctetSeq>("bulk", "OctetSeq");
    rig.ba->export_route(*rig.bulk_out, "bulk", bulk_policy);
    auto& probe = rig.a->create_immortal<core::Component>("Probe");
    rig.probe_out = &probe.add_out_port<core::OctetSeq>("probe", "OctetSeq");
    rig.ba->export_route(*rig.probe_out, "probe", urgent_policy);
    auto& reply = probe.add_in_port<core::OctetSeq>(
        "reply", "OctetSeq", sync_port(), [&st](core::OctetSeq& m, core::Smm&) {
            const std::int64_t t = now_ns();
            Report& r = *st.report;
            Stamp s;
            if (!verify_octets(st.probe_book, m, s)) {
                r.tally.corrupt.fetch_add(1);
            } else {
                st.probe_tracker.on_seq(s.seq, r.tally);
                r.record_rtt(t, t - s.t_ns);
                if (tracer().on()) {
                    tracer().record(Layer::kRequest, Layer::kCount, s.seq, s.t_ns, t);
                }
            }
            r.tally.completed.fetch_add(1, std::memory_order_relaxed);
            st.probe_done.fetch_add(1, std::memory_order_relaxed);
        });
    rig.ba->import_route("reply", reply);

    auto& sink = rig.b->create_immortal<core::Component>("BulkSink");
    auto& sink_in = sink.add_in_port<core::OctetSeq>(
        "bulk", "OctetSeq", sync_port(), [&st](core::OctetSeq& m, core::Smm&) {
            Stamp s;
            if (!verify_octets(st.bulk_book, m, s)) {
                st.report->tally.corrupt.fetch_add(1);
            } else {
                st.bulk_tracker.on_seq(s.seq, st.report->tally);
            }
            st.report->tally.completed.fetch_add(1, std::memory_order_relaxed);
            st.bulk_done.fetch_add(1, std::memory_order_relaxed);
        });
    rig.bb->import_route("bulk", sink_in);
    auto& echo = rig.b->create_immortal<core::Component>("Echo");
    auto* echo_out = &echo.add_out_port<core::OctetSeq>("reply", "OctetSeq");
    rig.bb->export_route(*echo_out, "reply", urgent_policy);
    auto& echo_in = echo.add_in_port<core::OctetSeq>(
        "probe", "OctetSeq", sync_port(), [&st, echo_out](core::OctetSeq& m, core::Smm&) {
            const bool traced = tracer().on();
            const std::int64_t t0 = traced ? now_ns() : 0;
            Stamp s;
            if (!verify_octets(st.probe_book, m, s)) st.report->tally.corrupt.fetch_add(1);
            const std::int64_t tg = traced ? now_ns() : 0;
            core::OctetSeq* fwd = echo_out->get_message();
            const std::int64_t t1 = traced ? now_ns() : 0;
            fwd->assign(m.data.data(), m.length);
            echo_out->send(fwd, 0);
            if (traced) {
                const std::int64_t t2 = now_ns();
                Tracer& tr = tracer();
                const std::int64_t sent =
                    st.send_at[s.seq % kPhaseCycle].load(std::memory_order_acquire);
                tr.record(Layer::kOneway, Layer::kRequest, s.seq, sent, t0);
                tr.record(Layer::kHandler, Layer::kRequest, s.seq, t0, t2);
                tr.record(Layer::kGetMessage, Layer::kHandler, s.seq, tg, t1);
                tr.record(Layer::kSend, Layer::kHandler, s.seq, t1, t2);
            }
        });
    rig.bb->import_route("probe", echo_in);

    const std::int64_t s0 = now_ns();
    rig.a->start();
    rig.b->start();
    rig.start_ms = static_cast<double>(now_ns() - s0) / 1e6;
    rig.ba->start();
    rig.bb->start();
    rig.reader_model = rig.ba->using_reactor() ? "reactor" : "thread-per-wire";
}

/// Bulk generator: as fast as the credit window lets it.
void bulk_loop(ShmRig& rig, ShmState& st) {
    prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    std::uint64_t seq = 0;
    const std::int64_t t0 = now_ns();
    while (!st.stop.load(std::memory_order_relaxed)) {
        // Frames due by now at the offered rate; sleep when caught up.
        const auto due = static_cast<std::uint64_t>((now_ns() - t0) * kBulkPerSecond / 1'000'000'000);
        if (seq >= due) {
            std::this_thread::sleep_for(std::chrono::microseconds(20));
            continue;
        }
        core::OctetSeq* m = rig.bulk_out->get_message();
        fill_octets(st.bulk_book, *m, seq, now_ns(), kBulkBytes);
        st.report->tally.attempted.fetch_add(1, std::memory_order_relaxed);
        try {
            rig.bulk_out->send(m, 1);
        } catch (const std::exception&) {
            st.report->tally.refused.fetch_add(1);
            st.failed.store(true);
            return;
        }
        st.bulk_sent.store(++seq, std::memory_order_release);
    }
}

/// Probe generator: open loop, one probe per period at a seeded phase.
void probe_loop(ShmRig& rig, ShmState& st) {
    // The urgent sender runs like the product's own threads: SCHED_FIFO at
    // the default priority where granted, with a 1 ns timer slack.
    st.probe_rt.store(rt::try_set_current_thread_priority(rt::Priority{}));
    prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    const std::int64_t base = now_ns() + 1'000'000;
    for (std::uint64_t i = 0; !st.stop.load(std::memory_order_relaxed); ++i) {
        const std::int64_t due = base + static_cast<std::int64_t>(i) * kProbePeriodNs +
                                 st.phases[i % kPhaseCycle];
        const std::int64_t sleep_until = due - 20'000;
        if (now_ns() < sleep_until) {
            timespec ts{};
            clock_gettime(CLOCK_MONOTONIC, &ts);
            const std::int64_t wait = sleep_until - now_ns();
            if (wait > 0) {
                const std::int64_t abs = static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 +
                                         ts.tv_nsec + wait;
                ts.tv_sec = abs / 1'000'000'000;
                ts.tv_nsec = abs % 1'000'000'000;
                clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr);
            }
        }
        while (now_ns() < due) {
        }
        const bool traced = tracer().on();
        const std::int64_t g0 = now_ns();
        core::OctetSeq* m = rig.probe_out->get_message();
        const std::int64_t t0 = now_ns();
        fill_octets(st.probe_book, *m, i, due, kProbeBytes);
        st.send_at[i % kPhaseCycle].store(t0, std::memory_order_release);
        st.report->tally.attempted.fetch_add(1, std::memory_order_relaxed);
        try {
            rig.probe_out->send(m, 0);
        } catch (const std::exception&) {
            st.report->tally.refused.fetch_add(1);
            st.failed.store(true);
            return;
        }
        st.probe_sent.store(i + 1, std::memory_order_release);
        if (st.report->window_start.load(std::memory_order_relaxed) != 0) {
            st.lateness.record(g0 - due);
        }
        if (traced) {
            const std::int64_t t1 = now_ns();
            tracer().record(Layer::kGetMessage, Layer::kRequest, i, g0, t0);
            tracer().record(Layer::kSend, Layer::kRequest, i, t0, t1);
        }
    }
}

struct ShmTotals {
    std::uint64_t futex = 0, frames = 0, copies = 0, borrowed = 0, pin_stalls = 0;
};

ShmTotals shm_totals(const ShmRig& rig) {
    ShmTotals t;
    for (const net::ShmTransport* x : {rig.ta, rig.tb}) {
        if (x == nullptr) continue;
        const net::ShmCounters c = x->counters();
        t.futex += c.futex_waits + c.wakeups;
        t.frames += c.shm_frames_sent;
        t.copies += c.rx_copies;
        t.borrowed += c.rx_borrowed;
        t.pin_stalls += c.rx_pin_stalls;
    }
    return t;
}

void check_shm(const ShmRig& rig, Report& report, const char* when) {
    if (!rig.shm || rig.ta == nullptr || rig.tb == nullptr) {
        report.degraded.push_back(std::string("shm upgrade failed ") + when + ": " + rig.detail);
        return;
    }
    if (!rig.ta->shm_active() || !rig.tb->shm_active()) {
        report.degraded.push_back(std::string("shm not active ") + when);
    }
    if (rig.ta->counters().failovers + rig.tb->counters().failovers != 0) {
        report.degraded.push_back(std::string("shm failover ") + when);
    }
}

} // namespace

void run_shm_mixed(const Options& opt, Report& report) {
    core::register_builtin_message_types();
    ShmState st(opt.seed);
    st.report = &report;
    ShmRig rig;
    std::vector<double> start_ms;

    const auto run = [&](double seconds) {
        check_shm(rig, report, "at start");
        if (!report.degraded.empty()) return;
        const std::uint64_t dropped0 = rig.ba->frames_dropped() + rig.bb->frames_dropped();
        st.stop.store(false);
        st.bulk_tracker = SeqTracker{};
        st.probe_tracker = SeqTracker{};
        st.bulk_sent = st.bulk_done = st.probe_sent = st.probe_done = 0;

        std::thread bulk([&] { bulk_loop(rig, st); });
        std::thread probe([&] { probe_loop(rig, st); });
        const auto wait_until = [&st](int, std::int64_t end) {
            while (now_ns() < end && !st.failed.load()) {
                std::this_thread::sleep_for(std::chrono::milliseconds(5));
            }
        };
        warm_up(opt, wait_until);

        std::unique_ptr<ReportMonitor> monitor;
        if (opt.trace) {
            monitor = std::make_unique<ReportMonitor>([&rig] { (void)rig.a->trace_report(); });
        }
        const core::TraceReport a0 = rig.a->trace_report();
        const core::TraceReport b0 = rig.b->trace_report();
        const ShmTotals s0 = shm_totals(rig);
        CpuMeter cpu;
        cpu.add_generator(bulk.native_handle());
        cpu.add_generator(probe.native_handle());
        measure(report, seconds, opt.trace ? 2 : 1, cpu,
                [&st] { return st.probe_done.load() + st.bulk_done.load(); }, wait_until);
        const core::TraceReport a1 = rig.a->trace_report();
        const core::TraceReport b1 = rig.b->trace_report();
        const ShmTotals s1 = shm_totals(rig);
        monitor.reset();

        st.stop.store(true);
        bulk.join();
        probe.join();
        // Drain: every bulk frame and probe sent must arrive.
        const std::int64_t deadline = now_ns() + kTimeoutNs;
        while (now_ns() < deadline &&
               (st.bulk_done.load() < st.bulk_sent.load() ||
                st.probe_done.load() < st.probe_sent.load())) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        st.bulk_tracker.finish(st.bulk_sent.load(), report.tally);
        st.probe_tracker.finish(st.probe_sent.load(), report.tally);
        check_shm(rig, report, "at end");
        const std::uint64_t dropped =
            rig.ba->frames_dropped() + rig.bb->frames_dropped() - dropped0 +
            port_drops(a1) + port_drops(b1);
        report.tally.dropped.fetch_add(dropped);
        report.diag["bulk_frames"] += static_cast<double>(st.bulk_done.load());
        report.diag["probes"] += static_cast<double>(st.probe_done.load());
        if (!opt.trace) return;

        auto& L = report.layers;
        L["core.start_ms"] = median(start_ms);
        L["remote.frames_dropped"] = static_cast<double>(dropped);
        fabric_layers(a0, b0, a1, b1, report.messages(), report);
        const double frames = static_cast<double>(std::max<std::uint64_t>(s1.frames - s0.frames, 1));
        L["net.shm_futex_per_msg"] = static_cast<double>(s1.futex - s0.futex) / frames;
        const double rx = static_cast<double>((s1.copies - s0.copies) + (s1.borrowed - s0.borrowed));
        L["net.shm_rx_copy_ratio"] = static_cast<double>(s1.copies - s0.copies) / std::max(1.0, rx);
        L["net.shm_pin_stalls"] = static_cast<double>(s1.pin_stalls - s0.pin_stalls);
    };

    run_cycles(opt, report,
               Cycle{[&] {
                         build(rig, st, opt.trace);
                         start_ms.push_back(rig.start_ms);
                     },
                     run, [&] { rig.teardown(); }});
    if (st.failed.load()) report.degraded.push_back("send refused");

    report.config.emplace_back("shm_upgrade", rig.detail);
    report.config.emplace_back("reader_model", rig.reader_model);
    report.diag["probe_lateness_us_p50"] = st.lateness.percentile(50) / 1e3;
    report.diag["probe_lateness_us_p99"] = st.lateness.percentile(99) / 1e3;
    report.config.emplace_back("bands", "2 (band 1 bulk 4 KiB at 100k/s, band 0 probes 32 B)");
    report.config.emplace_back("probe_period_us", "50, seeded phase in [0, 25)");
    report.config.emplace_back("probe_sched", st.probe_rt.load() ? "SCHED_FIFO" : "CFS");
}

} // namespace perfbench
