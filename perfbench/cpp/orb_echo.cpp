// orb_echo: the Fig. 11 component ORB (orb::ClientOrb -> orb::ServerOrb
// over net::make_loopback_pair) echoing octet sequences. Sizes are drawn
// per request from the paper's 32..1024 B set by the seed. Closed loop,
// one request in flight. Traced runs add chunks through the hand-coded
// RTZen ORB on the same payload sequence, the reference the component
// ORB's overhead is measured against.
#include "harness.hpp"

#include "net/transport.hpp"
#include "orb/client_orb.hpp"
#include "orb/server_orb.hpp"
#include "rtzen/rtzen.hpp"

#include <algorithm>

namespace perfbench {
namespace {

using namespace compadres;

constexpr std::size_t kSizeCycle = 4096;
const std::vector<std::uint32_t> kPaperSizes = {32, 64, 128, 256, 512, 1024};

struct EchoState {
    explicit EchoState(std::uint64_t seed) : book(seed, 64, 1024) {}
    PayloadBook book;
    Tally* tally = nullptr;
    /// Traced runs: servant entry/exit of the request in flight.
    std::atomic<std::int64_t> entry{0};
    std::atomic<std::int64_t> exit{0};
};

orb::Servant make_servant(EchoState& st) {
    return [&st](const std::string&, const std::uint8_t* payload,
                 std::size_t len, std::vector<std::uint8_t>& reply) {
        const bool traced = tracer().on();
        if (traced) st.entry.store(now_ns(), std::memory_order_relaxed);
        Stamp s;
        if (!st.book.verify(payload, len, s)) st.tally->corrupt.fetch_add(1);
        reply.assign(payload, payload + len);
        if (traced) st.exit.store(now_ns(), std::memory_order_relaxed);
        return true;
    };
}

/// One live component-ORB pair; the client goes down first.
struct OrbPair {
    std::unique_ptr<orb::ServerOrb> server;
    std::unique_ptr<orb::ClientOrb> client;
    void reset() {
        client.reset();
        server.reset();
    }
};

} // namespace

void run_orb_echo(const Options& opt, Report& report) {
    EchoState state(opt.seed);
    state.tally = &report.tally;
    const std::vector<std::uint32_t> sizes =
        seeded_sizes(opt.seed, kSizeCycle, kPaperSizes);

    std::vector<double> start_ms;
    OrbPair pair;
    // The hand-coded reference, traced runs only.
    std::unique_ptr<rtzen::RtzenServerOrb> rz_server;
    std::unique_ptr<rtzen::RtzenClientOrb> rz_client;
    if (opt.trace) {
        rz_server = std::make_unique<rtzen::RtzenServerOrb>();
        rz_server->register_servant("Echo", make_servant(state));
        auto [cw, sw] = net::make_loopback_pair();
        rz_server->attach(std::move(sw));
        rz_client = std::make_unique<rtzen::RtzenClientOrb>(std::move(cw));
    }

    std::vector<std::uint8_t> buf(1024);
    bool failed = false;
    // Per-mode sequence counters: every mode walks the same payload
    // sequence from the start. Mode 0 untraced, 1 traced, 2 RTZen.
    std::uint64_t seqs[3] = {0, 0, 0};
    const auto invoke = [&](int mode) {
        const std::uint64_t s = seqs[mode]++;
        const std::uint32_t len = sizes[s % kSizeCycle];
        report.tally.attempted.fetch_add(1, std::memory_order_relaxed);
        const std::int64_t t0 = now_ns();
        state.book.fill(buf.data(), s, t0, len);
        std::vector<std::uint8_t> reply;
        try {
            reply = mode == 2 ? rz_client->invoke("Echo", "echo", buf.data(), len)
                              : pair.client->invoke("Echo", "echo", buf.data(), len);
        } catch (const std::exception&) {
            report.tally.refused.fetch_add(1);
            failed = true;
            return;
        }
        const std::int64_t t1 = now_ns();
        if (reply.size() != len || std::memcmp(reply.data(), buf.data(), len) != 0) {
            report.tally.corrupt.fetch_add(1);
        }
        report.tally.completed.fetch_add(1, std::memory_order_relaxed);
        if (mode != 2) report.record_rtt(t1, t1 - t0);
        Tracer& tr = tracer();
        if (mode == 1) {
            const std::int64_t e0 = state.entry.load(std::memory_order_relaxed);
            const std::int64_t e1 = state.exit.load(std::memory_order_relaxed);
            tr.record(Layer::kRequest, Layer::kCount, s, t0, t1);
            tr.record(Layer::kInvoke, Layer::kRequest, s, t0, t1);
            tr.record(Layer::kWake, Layer::kInvoke, s, t0, e0);
            tr.record(Layer::kServant, Layer::kInvoke, s, e0, e1);
        } else if (mode == 2) {
            tr.sample(Layer::kRtzenInvoke, t1 - t0);
        }
    };

    const auto run = [&](double seconds) {
        warm_up(opt, [&](int, std::int64_t end) {
            while (!failed && now_ns() < end) invoke(0);
        });
        seqs[0] = 0;
        std::unique_ptr<ReportMonitor> monitor;
        if (opt.trace) {
            monitor = std::make_unique<ReportMonitor>(
                [&pair] { (void)pair.client->application().trace_report(); });
        }
        const auto fabric = [&pair] {
            const core::TraceReport c = pair.client->application().trace_report();
            const core::TraceReport s = pair.server->application().trace_report();
            return std::make_pair(c.queue_lock_acquisitions + s.queue_lock_acquisitions,
                                  c.credit_stalls + s.credit_stalls);
        };
        const auto [locks0, stalls0] = fabric();
        CpuMeter cpu;
        cpu.add_generator(pthread_self());
        measure(report, seconds, opt.trace ? 3 : 1, cpu,
                [&] { return seqs[0] + seqs[1]; },
                [&](int mode, std::int64_t end) {
                    while (!failed && now_ns() < end) invoke(mode);
                });
        const auto [locks1, stalls1] = fabric();
        monitor.reset();
        if (!opt.trace) return;

        auto& L = report.layers;
        const Tracer& tr = tracer();
        const double msgs = static_cast<double>(std::max<std::uint64_t>(report.messages(), 1));
        L["core.start_ms"] = median(start_ms);
        const double rz = tr.recorder(Layer::kRtzenInvoke)->percentile(50) / 1e3;
        L["rtzen.rtt_us_p50"] = rz;
        L["orb.overhead_us_p50"] = tr.recorder(Layer::kInvoke)->percentile(50) / 1e3 - rz;
        L["core.locks_per_msg"] = static_cast<double>(locks1 - locks0) / msgs;
        L["core.credit_stalls_per_1k"] = static_cast<double>(stalls1 - stalls0) * 1000.0 / msgs;
        std::size_t hwm = 0;
        for (auto* app : {&pair.client->application(), &pair.server->application()}) {
            for (const auto& p : app->trace_report().ports) {
                hwm = std::max(hwm, p.depth_high_water);
            }
        }
        L["core.depth_hwm"] = static_cast<double>(hwm);
        report.diag["rtzen_requests"] = static_cast<double>(seqs[2]);
    };

    // A component-ORB pair's set-up: both ORBs construct and start their
    // applications, so this is also the orb_echo core.start_ms.
    run_cycles(opt, report,
               Cycle{[&] {
                         const std::int64_t t0 = now_ns();
                         pair.server = std::make_unique<orb::ServerOrb>();
                         pair.server->register_servant("Echo", make_servant(state));
                         auto [client_wire, server_wire] = net::make_loopback_pair();
                         pair.server->attach(std::move(server_wire));
                         pair.client = std::make_unique<orb::ClientOrb>(std::move(client_wire));
                         start_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
                     },
                     run, [&] { pair.reset(); }});
    if (failed) report.degraded.push_back("ORB invoke threw");

    rz_client.reset();
    rz_server.reset();
    report.config.emplace_back("wire", "net::make_loopback_pair (in-process)");
    report.config.emplace_back("sizes", "32,64,128,256,512,1024 B, seeded per request");
    report.config.emplace_back("reactor_backend", "none (loopback wire)");
}

} // namespace perfbench
