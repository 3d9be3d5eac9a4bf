// pingpong: the paper's Fig. 6 client/server (E4, "components pooled"),
// assembled from the CDL + CCL below through compiler:: parse -> validate
// -> assemble. A trigger on IMC.P1 makes the client send a request
// (P3 -> P4); the server replies (P5 -> P6); P6 completes the round trip.
// P2, P4 and P6 are pooled In ports, so a round trip crosses three
// dispatcher threads. Closed loop: one caller, one request in flight, and
// the caller blocks on a condition variable like a real one.
#include "harness.hpp"

#include "compiler/assembler.hpp"
#include "compiler/ccl.hpp"
#include "compiler/cdl.hpp"
#include "compiler/validator.hpp"
#include "core/application.hpp"
#include "core/registry.hpp"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <stdexcept>

namespace perfbench {
namespace {

using namespace compadres;

const char* const kCdl = R"(<?xml version="1.0"?>
<CDL>
  <Component>
    <ComponentName>PpDriver</ComponentName>
    <Port><PortName>P1</PortName><PortType>Out</PortType><MessageType>BenchStamp</MessageType></Port>
  </Component>
  <Component>
    <ComponentName>PpClient</ComponentName>
    <Port><PortName>P2</PortName><PortType>In</PortType><MessageType>BenchStamp</MessageType></Port>
    <Port><PortName>P3</PortName><PortType>Out</PortType><MessageType>BenchStamp</MessageType></Port>
    <Port><PortName>P6</PortName><PortType>In</PortType><MessageType>BenchStamp</MessageType></Port>
  </Component>
  <Component>
    <ComponentName>PpServer</ComponentName>
    <Port><PortName>P4</PortName><PortType>In</PortType><MessageType>BenchStamp</MessageType></Port>
    <Port><PortName>P5</PortName><PortType>Out</PortType><MessageType>BenchStamp</MessageType></Port>
  </Component>
</CDL>
)";

#define PP_POOLED                                                             \
    "<PortAttributes><BufferSize>8</BufferSize><Threadpool>Dedicated</Threadpool>" \
    "<MinThreadpoolSize>1</MinThreadpoolSize><MaxThreadpoolSize>2</MaxThreadpoolSize>" \
    "</PortAttributes>"

const char* const kCcl = R"(<?xml version="1.0"?>
<Application>
  <ApplicationName>PerfPingPong</ApplicationName>
  <Component>
    <InstanceName>IMC</InstanceName>
    <ClassName>PpDriver</ClassName>
    <ComponentType>Immortal</ComponentType>
    <Connection>
      <Port><PortName>P1</PortName>
        <Link><PortType>Internal</PortType><ToComponent>MyClient</ToComponent><ToPort>P2</ToPort></Link>
      </Port>
    </Connection>
    <Component>
      <InstanceName>MyClient</InstanceName>
      <ClassName>PpClient</ClassName>
      <ComponentType>Scoped</ComponentType>
      <ScopeLevel>1</ScopeLevel>
      <Connection>
        <Port><PortName>P2</PortName>)" PP_POOLED R"(</Port>
        <Port><PortName>P3</PortName>
          <Link><PortType>External</PortType><ToComponent>MyServer</ToComponent><ToPort>P4</ToPort></Link>
        </Port>
        <Port><PortName>P6</PortName>)" PP_POOLED R"(</Port>
      </Connection>
    </Component>
    <Component>
      <InstanceName>MyServer</InstanceName>
      <ClassName>PpServer</ClassName>
      <ComponentType>Scoped</ComponentType>
      <ScopeLevel>1</ScopeLevel>
      <Connection>
        <Port><PortName>P4</PortName>)" PP_POOLED R"(</Port>
        <Port><PortName>P5</PortName>
          <Link><PortType>External</PortType><ToComponent>MyClient</ToComponent><ToPort>P6</ToPort></Link>
        </Port>
      </Connection>
    </Component>
  </Component>
  <RTSJAttributes>
    <ImmortalSize>8000000</ImmortalSize>
    <ScopedPool><ScopeLevel>1</ScopeLevel><ScopeSize>262144</ScopeSize><PoolSize>2</PoolSize></ScopedPool>
  </RTSJAttributes>
</Application>
)";

#undef PP_POOLED

/// Round-trip state shared by the caller and the three handlers.
struct PingState {
    explicit PingState(std::uint64_t seed) : book(seed, 1, sizeof(Stamp)) {}

    PayloadBook book;
    Tally* tally = nullptr;

    std::mutex mu;
    std::condition_variable cv;
    std::uint64_t done_seq = ~std::uint64_t{0};

    /// Traced runs: per-hop send-return and handler-entry times of the
    /// request in flight, and how many handlers have exited.
    std::atomic<std::int64_t> sent_ret[3] = {};
    std::atomic<std::int64_t> entry[3] = {};
    std::atomic<int> exits{0};
};

PingState* g_ping = nullptr;

/// Server transform the client checks: the reply's check word is the
/// complement of the request's.
std::uint64_t reply_check(std::uint64_t check) { return ~check; }

/// Handler epilogue for traced runs: the span of the handler body.
void note_exit(std::uint64_t seq, std::int64_t entry) {
    if (entry == 0) return;
    tracer().record(Layer::kHandler, Layer::kRequest, seq, entry, now_ns());
    g_ping->exits.fetch_add(1, std::memory_order_release);
}

/// get_message + send on `out`, bracketed when tracing; records the send
/// return time for the next hop's wake span.
void forward(core::OutPort<Stamp>& out, const Stamp& s, int hop) {
    const bool traced = tracer().on();
    const std::int64_t t0 = traced ? now_ns() : 0;
    Stamp* m = out.get_message();
    const std::int64_t t1 = traced ? now_ns() : 0;
    *m = s;
    out.send(m, 3);
    if (traced) {
        const std::int64_t t2 = now_ns();
        tracer().record(Layer::kGetMessage, Layer::kHandler, s.seq, t0, t1);
        tracer().record(Layer::kSend, Layer::kHandler, s.seq, t1, t2);
        g_ping->sent_ret[hop].store(t2, std::memory_order_release);
    }
}

std::int64_t on_entry(int hop) {
    if (!tracer().on()) return 0;
    const std::int64_t t = now_ns();
    g_ping->entry[hop].store(t, std::memory_order_release);
    return t;
}

class PpDriver : public core::Component {
public:
    explicit PpDriver(const core::ComponentContext& ctx) : core::Component(ctx) {
        add_out_port<Stamp>("P1", "BenchStamp");
    }
};

class PpClient : public core::Component {
public:
    explicit PpClient(const core::ComponentContext& ctx) : core::Component(ctx) {
        auto* p3 = &add_out_port<Stamp>("P3", "BenchStamp");
        add_in_port<Stamp>("P2", "BenchStamp", port_config("P2"),
                           [p3](Stamp& m, core::Smm&) {
                               const std::int64_t t = on_entry(0);
                               const Stamp s = m;
                               if (s.check != g_ping->book.check_of(s)) {
                                   g_ping->tally->corrupt.fetch_add(1);
                               }
                               forward(*p3, s, 1);
                               note_exit(s.seq, t);
                           });
        add_in_port<Stamp>("P6", "BenchStamp", port_config("P6"),
                           [](Stamp& m, core::Smm&) {
                               const std::int64_t t = on_entry(2);
                               const Stamp s = m;
                               if (s.check != reply_check(g_ping->book.check_of(s))) {
                                   g_ping->tally->corrupt.fetch_add(1);
                               }
                               {
                                   std::lock_guard lk(g_ping->mu);
                                   g_ping->done_seq = s.seq;
                               }
                               g_ping->cv.notify_one();
                               note_exit(s.seq, t);
                           });
    }
};

class PpServer : public core::Component {
public:
    explicit PpServer(const core::ComponentContext& ctx) : core::Component(ctx) {
        auto* p5 = &add_out_port<Stamp>("P5", "BenchStamp");
        add_in_port<Stamp>("P4", "BenchStamp", port_config("P4"),
                           [p5](Stamp& m, core::Smm&) {
                               const std::int64_t t = on_entry(1);
                               Stamp s = m;
                               if (s.check != g_ping->book.check_of(s)) {
                                   g_ping->tally->corrupt.fetch_add(1);
                               }
                               s.check = reply_check(s.check);
                               forward(*p5, s, 2);
                               note_exit(s.seq, t);
                           });
    }
};

struct SetupTimes {
    double parse_ms = 0, validate_ms = 0, assemble_ms = 0, start_ms = 0;
};

std::unique_ptr<core::Application> build(SetupTimes& t) {
    const auto ms = [](std::int64_t a, std::int64_t b) {
        return static_cast<double>(b - a) / 1e6;
    };
    const std::int64_t t0 = now_ns();
    const compiler::CdlModel cdl = compiler::parse_cdl_string(kCdl);
    const compiler::CclModel ccl = compiler::parse_ccl_string(kCcl);
    const std::int64_t t1 = now_ns();
    const compiler::AssemblyPlan plan = compiler::validate_and_plan(cdl, ccl);
    const std::int64_t t2 = now_ns();
    auto app = compiler::assemble(plan);
    const std::int64_t t3 = now_ns();
    app->start();
    const std::int64_t t4 = now_ns();
    t.parse_ms = ms(t0, t1);
    t.validate_ms = ms(t1, t2);
    t.assemble_ms = ms(t2, t3);
    t.start_ms = ms(t3, t4);
    return app;
}

} // namespace

void run_pingpong(const Options& opt, Report& report) {
    core::register_builtin_message_types();
    core::MessageTypeRegistry::global().register_type<Stamp>("BenchStamp");
    auto& classes = core::ComponentRegistry::global();
    classes.register_class<PpDriver>("PpDriver");
    classes.register_class<PpClient>("PpClient");
    classes.register_class<PpServer>("PpServer");

    PingState state(opt.seed);
    state.tally = &report.tally;
    g_ping = &state;

    std::vector<SetupTimes> times;
    std::unique_ptr<core::Application> app;
    core::OutPort<Stamp>* p1 = nullptr;

    constexpr std::int64_t timeout_ns = 2'000'000'000;
    std::uint64_t seq = 0;
    bool failed = false;
    // One round trip; its latency goes to the chunk it completed in.
    const auto round_trip = [&](bool traced) {
        const std::uint64_t s = seq++;
        report.tally.attempted.fetch_add(1, std::memory_order_relaxed);
        if (traced) state.exits.store(0, std::memory_order_relaxed);
        const std::int64_t t0 = now_ns();
        Stamp* m = p1->get_message();
        const std::int64_t t1 = traced ? now_ns() : 0;
        state.book.fill(reinterpret_cast<std::uint8_t*>(m), s, t0, sizeof(Stamp));
        p1->send(m, 2);
        const std::int64_t t2 = traced ? now_ns() : 0;
        if (traced) state.sent_ret[0].store(t2, std::memory_order_release);
        bool ok;
        {
            std::unique_lock lk(state.mu);
            ok = state.cv.wait_for(lk, std::chrono::nanoseconds(timeout_ns),
                                   [&] { return state.done_seq == s; });
        }
        const std::int64_t t3 = now_ns();
        if (!ok) {
            report.tally.lost.fetch_add(1);
            failed = true;
            return;
        }
        report.tally.completed.fetch_add(1, std::memory_order_relaxed);
        report.record_rtt(t3, t3 - t0);
        if (traced) {
            // Wait out the handlers' epilogues so every span is in.
            while (state.exits.load(std::memory_order_acquire) < 3) {
            }
            Tracer& tr = tracer();
            tr.record(Layer::kRequest, Layer::kCount, s, t0, t3);
            tr.record(Layer::kGetMessage, Layer::kRequest, s, t0, t1);
            tr.record(Layer::kSend, Layer::kRequest, s, t1, t2);
            for (int h = 0; h < 3; ++h) {
                const std::int64_t a = state.sent_ret[h].load(std::memory_order_acquire);
                const std::int64_t b = state.entry[h].load(std::memory_order_acquire);
                tr.record(Layer::kWake, Layer::kRequest, s, std::min(a, b), b);
            }
        }
    };

    const auto run = [&](double seconds) {
        warm_up(opt, [&](int, std::int64_t end) {
            while (!failed && now_ns() < end) round_trip(false);
        });
        std::unique_ptr<ReportMonitor> monitor;
        if (opt.trace) {
            monitor = std::make_unique<ReportMonitor>([&app] { (void)app->trace_report(); });
        }
        const core::TraceReport before = app->trace_report();
        CpuMeter cpu;
        cpu.add_generator(pthread_self());
        measure(report, seconds, opt.trace ? 2 : 1, cpu,
                [&] { return report.tally.completed.load(); },
                [&](int mode, std::int64_t end) {
                    while (!failed && now_ns() < end) round_trip(mode == 1);
                });
        const core::TraceReport after = app->trace_report();
        monitor.reset();
        if (!opt.trace) return;

        std::vector<double> parse, validate, assemble, start;
        for (const auto& t : times) {
            parse.push_back(t.parse_ms);
            validate.push_back(t.validate_ms);
            assemble.push_back(t.assemble_ms);
            start.push_back(t.start_ms);
        }
        auto& L = report.layers;
        L["compiler.parse_ms"] = median(parse);
        L["compiler.validate_ms"] = median(validate);
        L["compiler.assemble_ms"] = median(assemble);
        L["core.start_ms"] = median(start);
        const double m = static_cast<double>(std::max<std::uint64_t>(report.messages(), 1));
        L["core.locks_per_msg"] =
            static_cast<double>(after.queue_lock_acquisitions -
                                before.queue_lock_acquisitions) / m;
        L["core.credit_stalls_per_1k"] =
            static_cast<double>(after.credit_stalls - before.credit_stalls) * 1000.0 / m;
        std::size_t hwm = 0;
        for (const auto& p : after.ports) hwm = std::max(hwm, p.depth_high_water);
        L["core.depth_hwm"] = static_cast<double>(hwm);
    };

    run_cycles(opt, report,
               Cycle{[&] {
                         times.emplace_back();
                         app = build(times.back());
                         p1 = &app->component("IMC").out_port_t<Stamp>("P1");
                     },
                     run,
                     [&] {
                         app->stop();
                         app.reset();
                     }});
    if (failed) report.degraded.push_back("round trip timed out");
    g_ping = nullptr;
    report.config.emplace_back("assembly", "CDL+CCL via compiler::assemble");
    report.config.emplace_back("pooled_in_ports", "P2,P4,P6 (buffer 8, 1-2 threads)");
    report.config.emplace_back("reactor_backend", "none (no wire on the path)");
}

} // namespace perfbench
