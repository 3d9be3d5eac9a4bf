// tcp_stream: two core::Applications joined by remote::RemoteBridge over
// one localhost TCP wire served by the default reactor. Gen.out is
// exported as "ping"; Echo.in (a sync port on the far application)
// returns every message as "pong" to Gen.back. Payloads are seeded
// 32..256 B. Closed loop with a window of 64 messages in flight, refilled
// when it drains to half.
#include "wire_common.hpp"

#include "net/reactor.hpp"
#include "net/tcp.hpp"
#include "remote/bridge.hpp"

#include <condition_variable>
#include <mutex>
#include <thread>

namespace perfbench {
namespace {

using namespace compadres;

constexpr std::size_t kSizeCycle = 4096;
constexpr std::uint64_t kWindow = 64;
constexpr std::uint64_t kRefillAt = kWindow / 2;
constexpr std::int64_t kTimeoutNs = 2'000'000'000;

struct TcpState {
    explicit TcpState(std::uint64_t seed) : book(seed, 64, 256) {}
    PayloadBook book;
    Report* report = nullptr;
    SeqTracker tracker;           ///< Gen.back handler only
    std::atomic<std::uint64_t> inflight{0};
    std::atomic<std::uint64_t> done{0};
    std::mutex mu;
    std::condition_variable cv;
};

/// Two applications, one TCP wire, both bridges started.
struct TcpRig {
    std::unique_ptr<core::Application> a, b;
    std::unique_ptr<remote::RemoteBridge> ba, bb;
    core::OutPort<core::OctetSeq>* gen_out = nullptr;
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
    }
};

void build(TcpRig& rig, TcpState& st, bool trace) {
    rig.a = std::make_unique<core::Application>("perf-tcp-a");
    rig.b = std::make_unique<core::Application>("perf-tcp-b");
    net::TcpAcceptor acceptor(0);
    std::unique_ptr<net::Transport> server_side;
    std::thread accept_thread([&] { server_side = acceptor.accept(); });
    auto client_side = net::tcp_connect("127.0.0.1", acceptor.bound_port());
    accept_thread.join();
    acceptor.close();
    rig.ba = std::make_unique<remote::RemoteBridge>(*rig.a, std::move(client_side), "tcp-a");
    rig.bb = std::make_unique<remote::RemoteBridge>(*rig.b, std::move(server_side), "tcp-b");
    if (trace) install_timed_octet_codec();

    auto& gen = rig.a->create_immortal<core::Component>("Gen");
    rig.gen_out = &gen.add_out_port<core::OctetSeq>("out", "OctetSeq");
    rig.ba->export_route(*rig.gen_out, "ping");
    auto& back = gen.add_in_port<core::OctetSeq>(
        "back", "OctetSeq", sync_port(), [&st](core::OctetSeq& m, core::Smm&) {
            const std::int64_t t = now_ns();
            Report& r = *st.report;
            Stamp s;
            if (!verify_octets(st.book, m, s)) {
                r.tally.corrupt.fetch_add(1);
            } else {
                st.tracker.on_seq(s.seq, r.tally);
                r.record_rtt(t, t - s.t_ns);
                if (tracer().on()) {
                    tracer().record(Layer::kRequest, Layer::kCount, s.seq, s.t_ns, t);
                }
            }
            r.tally.completed.fetch_add(1, std::memory_order_relaxed);
            st.done.fetch_add(1, std::memory_order_relaxed);
            const std::uint64_t left = st.inflight.fetch_sub(1) - 1;
            if (left == kRefillAt || left == 0) {
                std::lock_guard lk(st.mu);
                st.cv.notify_one();
            }
        });
    rig.ba->import_route("pong", back);

    auto& echo = rig.b->create_immortal<core::Component>("Echo");
    auto* echo_out = &echo.add_out_port<core::OctetSeq>("out", "OctetSeq");
    rig.bb->export_route(*echo_out, "pong");
    auto& echo_in = echo.add_in_port<core::OctetSeq>(
        "in", "OctetSeq", sync_port(), [&st, echo_out](core::OctetSeq& m, core::Smm&) {
            const bool traced = tracer().on();
            const std::int64_t t0 = traced ? now_ns() : 0;
            Stamp s;
            if (!verify_octets(st.book, m, s)) st.report->tally.corrupt.fetch_add(1);
            const std::int64_t tg = traced ? now_ns() : 0;
            core::OctetSeq* fwd = echo_out->get_message();
            const std::int64_t t1 = traced ? now_ns() : 0;
            fwd->assign(m.data.data(), m.length);
            echo_out->send(fwd, 5);
            if (traced) {
                const std::int64_t t2 = now_ns();
                Tracer& tr = tracer();
                tr.record(Layer::kOneway, Layer::kRequest, s.seq, s.t_ns, t0);
                tr.record(Layer::kHandler, Layer::kRequest, s.seq, t0, t2);
                tr.record(Layer::kGetMessage, Layer::kHandler, s.seq, tg, t1);
                tr.record(Layer::kSend, Layer::kHandler, s.seq, t1, t2);
            }
        });
    rig.bb->import_route("ping", echo_in);

    const std::int64_t s0 = now_ns();
    rig.a->start();
    rig.b->start();
    rig.start_ms = static_cast<double>(now_ns() - s0) / 1e6;
    rig.ba->start();
    rig.bb->start();
}

} // namespace

void run_tcp_stream(const Options& opt, Report& report) {
    core::register_builtin_message_types();
    TcpState st(opt.seed);
    st.report = &report;
    const std::vector<std::uint32_t> sizes = seeded_size_range(opt.seed, kSizeCycle, 32, 256);

    TcpRig rig;
    std::vector<double> start_ms;
    std::uint64_t sent = 0;
    bool failed = false;
    const auto send_one = [&](bool traced) {
        const std::uint64_t seq = sent++;
        const std::uint32_t len = sizes[seq % kSizeCycle];
        report.tally.attempted.fetch_add(1, std::memory_order_relaxed);
        const std::int64_t g0 = traced ? now_ns() : 0;
        core::OctetSeq* m = rig.gen_out->get_message();
        const std::int64_t t0 = now_ns();
        fill_octets(st.book, *m, seq, t0, len);
        st.inflight.fetch_add(1);
        try {
            rig.gen_out->send(m, 5);
        } catch (const std::exception&) {
            report.tally.refused.fetch_add(1);
            st.inflight.fetch_sub(1);
            failed = true;
            return;
        }
        if (traced) {
            const std::int64_t t1 = now_ns();
            tracer().record(Layer::kGetMessage, Layer::kRequest, seq, g0, t0);
            tracer().record(Layer::kSend, Layer::kRequest, seq, t0, t1);
        }
    };
    // Refill the window, then block until it drains to half.
    const auto pump = [&](std::int64_t end) {
        while (!failed && now_ns() < end) {
            const bool traced = tracer().on();
            while (!failed && st.inflight.load() < kWindow) send_one(traced);
            std::unique_lock lk(st.mu);
            if (!st.cv.wait_for(lk, std::chrono::nanoseconds(kTimeoutNs),
                                [&] { return st.inflight.load() <= kRefillAt; })) {
                failed = true;
            }
        }
    };

    const auto run = [&](double seconds) {
        if (!rig.ba->using_reactor() || !rig.bb->using_reactor()) {
            report.degraded.push_back("bridge fell back from the reactor");
        }
        const std::uint64_t dropped0 = rig.ba->frames_dropped() + rig.bb->frames_dropped();
        warm_up(opt, [&](int, std::int64_t end) { pump(end); });

        std::unique_ptr<ReportMonitor> monitor;
        if (opt.trace) {
            monitor = std::make_unique<ReportMonitor>([&rig] { (void)rig.a->trace_report(); });
        }
        const core::TraceReport a0 = rig.a->trace_report();
        const core::TraceReport b0 = rig.b->trace_report();
        const net::ReactorStats rs0 = net::Reactor::shared().stats();
        CpuMeter cpu;
        cpu.add_generator(pthread_self());
        measure(report, seconds, opt.trace ? 2 : 1, cpu, [&] { return st.done.load(); },
                [&](int, std::int64_t end) { pump(end); });
        const core::TraceReport a1 = rig.a->trace_report();
        const core::TraceReport b1 = rig.b->trace_report();
        const net::ReactorStats rs1 = net::Reactor::shared().stats();
        monitor.reset();

        // Drain: everything sent must come back.
        {
            std::unique_lock lk(st.mu);
            if (!st.cv.wait_for(lk, std::chrono::nanoseconds(kTimeoutNs),
                                [&] { return st.inflight.load() == 0; })) {
                failed = true;
            }
        }
        st.tracker.finish(sent, report.tally);
        const std::uint64_t dropped =
            rig.ba->frames_dropped() + rig.bb->frames_dropped() - dropped0 +
            port_drops(a1) + port_drops(b1);
        report.tally.dropped.fetch_add(dropped);
        if (!opt.trace) return;

        auto& L = report.layers;
        L["core.start_ms"] = median(start_ms);
        L["remote.frames_dropped"] = static_cast<double>(dropped);
        fabric_layers(a0, b0, a1, b1, report.messages(), report);
        const auto c0 = bridge_counters(a0), c1 = bridge_counters(a1);
        const auto d0 = bridge_counters(b0), d1 = bridge_counters(b1);
        const auto both = [&](const char* name) {
            return static_cast<double>(delta(c0, c1, name) + delta(d0, d1, name));
        };
        const double frames = std::max(1.0, both("frames_sent"));
        L["net.send_syscalls_per_frame"] = both("send_syscalls") / frames;
        L["net.frames_per_batch"] = frames / std::max(1.0, both("send_batches"));
        const double acquires = static_cast<double>(delta(c0, c1, "pool_hits") +
                                                    delta(c0, c1, "pool_misses"));
        L["net.pool_tls_hit_ratio"] =
            static_cast<double>(delta(c0, c1, "pool_tls_hits")) / std::max(1.0, acquires);
        const double assembled =
            static_cast<double>(rs1.frames_assembled - rs0.frames_assembled);
        L["net.loop_syscalls_per_frame"] =
            static_cast<double>((rs1.wait_syscalls - rs0.wait_syscalls) +
                                (rs1.read_syscalls - rs0.read_syscalls)) /
            std::max(1.0, assembled);
    };

    run_cycles(opt, report,
               Cycle{[&] {
                         build(rig, st, opt.trace);
                         start_ms.push_back(rig.start_ms);
                     },
                     run, [&] { rig.teardown(); }});
    if (failed) report.degraded.push_back("window timed out or send refused");

    report.config.emplace_back("wire", "localhost TCP, one connection, acceptor on port 0");
    report.config.emplace_back("reactor_backend", net::Reactor::shared().backend_name());
    report.config.emplace_back("reactor_threads",
                               std::to_string(net::Reactor::shared().thread_count()));
    report.config.emplace_back("window", "64 in flight, refilled at 32");
    report.config.emplace_back("sizes", "32..256 B, seeded per message");
}

} // namespace perfbench
