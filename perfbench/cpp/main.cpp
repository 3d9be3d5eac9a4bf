// perfbench: the repository benchmark driver.
//
//   perfbench --workload <pingpong|orb_echo|tcp_stream|shm_mixed>
//             --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//   perfbench --selftest
//
// One workload per process. The last line of stdout is one JSON object
// with the keys correct, attempted, failed and metrics: the seven
// end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. The lines before it carry the host fingerprint, the
// effective configuration and diagnostics. Any wrong output or degraded
// path makes `correct` false and the exit code 1.
#include "harness.hpp"

#include "net/shm_transport.hpp"
#include "rt/thread.hpp"

#include <dirent.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <map>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

extern char** environ;

namespace perfbench {
namespace {

std::string json_escape(const std::string& s) {
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

std::string num(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string cpu_model() {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos) {
                const auto start = line.find_first_not_of(' ', colon + 1);
                return start == std::string::npos ? "" : line.substr(start);
            }
        }
    }
    return "unknown";
}

/// The environment may not change a workload: drop every COMPADRES_*
/// variable (reactor backend/threads, sample counts) before the product
/// can read one.
std::vector<std::string> scrub_environment() {
    std::vector<std::string> names;
    for (char** e = environ; *e != nullptr; ++e) {
        const std::string entry(*e);
        if (entry.rfind("COMPADRES_", 0) == 0) {
            names.push_back(entry.substr(0, entry.find('=')));
        }
    }
    for (const auto& n : names) unsetenv(n.c_str());
    return names;
}

/// This process's shm segments still present in /dev/shm.
std::vector<std::string> own_segments() {
    std::vector<std::string> out;
    const std::string prefix = "compadres." + std::to_string(getpid()) + ".";
    if (DIR* d = opendir("/dev/shm")) {
        while (const dirent* e = readdir(d)) {
            const std::string name(e->d_name);
            if (name.rfind(prefix, 0) == 0) out.push_back(name);
        }
        closedir(d);
    }
    return out;
}

int usage() {
    std::fprintf(stderr,
                 "usage: perfbench --workload <pingpong|orb_echo|tcp_stream|shm_mixed> "
                 "--seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]\n"
                 "       perfbench --selftest\n");
    return 2;
}

} // namespace
} // namespace perfbench

int main(int argc, char** argv) {
    using namespace perfbench;
    Options opt;
    std::string out_dir;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--selftest") return run_selftest() == 0 ? 0 : 1;
        if (i + 1 >= argc) return usage();
        const std::string v = argv[++i];
        if (a == "--workload") {
            opt.workload = v;
            have_workload = true;
        } else if (a == "--seed") {
            opt.seed = std::strtoull(v.c_str(), nullptr, 10);
        } else if (a == "--seconds") {
            opt.seconds = std::strtod(v.c_str(), nullptr);
        } else if (a == "--trace") {
            opt.trace = v == "1";
        } else if (a == "--out-dir") {
            out_dir = v;
        } else {
            return usage();
        }
    }
    if (!have_workload || opt.seconds <= 0) return usage();

    const std::vector<std::string> scrubbed = scrub_environment();
    const std::size_t swept = compadres::net::sweep_orphan_segments();
    if (opt.trace) tracer().enable(std::size_t{1} << 16, 64);

    const auto ticks0 = cpu_ticks();
    Report report;
    init_layers(report);
    try {
        if (opt.workload == "pingpong") {
            run_pingpong(opt, report);
        } else if (opt.workload == "orb_echo") {
            run_orb_echo(opt, report);
        } else if (opt.workload == "tcp_stream") {
            run_tcp_stream(opt, report);
        } else if (opt.workload == "shm_mixed") {
            run_shm_mixed(opt, report);
        } else {
            return usage();
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(), e.what());
        return 1;
    }
    const auto ticks1 = cpu_ticks();
    report.diag["host_steal_pct"] = 100.0 * steal_share(ticks0, ticks1);
    const std::vector<std::string> leftover = own_segments();
    if (!leftover.empty()) {
        report.degraded.push_back("shm segment left behind: /dev/shm/" + leftover.front());
    }

    // A lost or refused request counts at the run's timeout value, in
    // every untraced chunk, so failures can never improve a percentile.
    const std::uint64_t timed_out = report.tally.lost.load() + report.tally.refused.load();
    for (Chunk& c : report.chunks) {
        if (c.mode != 0) continue;
        for (std::uint64_t i = 0; i < std::min<std::uint64_t>(timed_out, 100'000); ++i) {
            c.rtt->record(2'000'000'000);
        }
    }

    // Per-chunk figures. Of each mode's chunks, those in which the
    // hypervisor stole the least CPU time are kept: every chunk at the
    // run's lowest steal reading (normally none at all), and at least an
    // eighth of them. Each figure is the interquartile mean over the kept
    // chunks. A single 10 ms steal tick inside a chunk is enough to lift
    // its p99 by an order of magnitude on the open-loop shm_mixed probes.
    std::map<int, std::vector<const Chunk*>> by_mode;
    for (const Chunk& c : report.chunks) by_mode[c.mode].push_back(&c);
    std::vector<const Chunk*> kept;
    double kept_steal = 0.0;
    for (auto& [mode, list] : by_mode) {
        std::stable_sort(list.begin(), list.end(),
                         [](const Chunk* a, const Chunk* b) { return a->steal < b->steal; });
        const double least = list.front()->steal;
        std::size_t keep = (list.size() + 7) / 8;
        while (keep < list.size() && list[keep]->steal <= least) ++keep;
        list.resize(keep);
        kept.insert(kept.end(), list.begin(), list.end());
        if (mode == 0) kept_steal = list.back()->steal;
    }
    report.diag["kept_chunk_steal_pct_max"] = 100.0 * kept_steal;
    std::map<int, std::vector<double>> p50, p99, rate, cpu_per_msg;
    std::uint64_t untraced_msgs = 0, untraced_allocs = 0, samples = 0;
    for (const Chunk* cp : kept) {
        const Chunk& c = *cp;
        const double m = static_cast<double>(std::max<std::uint64_t>(c.messages, 1));
        p50[c.mode].push_back(c.rtt->percentile(50));
        p99[c.mode].push_back(c.rtt->percentile(99));
        rate[c.mode].push_back(static_cast<double>(c.messages) / c.seconds);
        cpu_per_msg[c.mode].push_back(c.product_cpu_s * 1e6 / m);
        if (c.mode == 0) {
            untraced_msgs += c.messages;
            untraced_allocs += c.allocations;
            samples += c.rtt->count();
        }
    }

    const std::uint64_t attempted = std::max<std::uint64_t>(report.tally.attempted.load(), 1);
    const std::uint64_t failed = report.tally.failed();
    const bool correct = failed == 0 && report.degraded.empty() &&
                         report.tally.attempted.load() > 0 && untraced_msgs > 0;

    std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
    if (!opt.trace) {
        metrics = {
            {"setup_s", {median(report.setup_s), "s"}},
            {"rtt_p50_us", {interquartile_mean(p50[0]) / 1e3, "us"}},
            {"rtt_p99_us", {interquartile_mean(p99[0]) / 1e3, "us"}},
            {"msgs_per_s", {interquartile_mean(rate[0]), "1/s"}},
            {"cpu_us_per_msg", {interquartile_mean(cpu_per_msg[0]), "us"}},
            {"peak_rss_mb", {peak_rss_mb(), "MiB"}},
            {"ok_ratio", {1.0 - report.tally.fail_ratio(), "ratio"}},
        };
    } else {
        const double untraced = interquartile_mean(p50[0]);
        const double traced = interquartile_mean(p50[1]);
        report.layers["trace.overhead_pct"] =
            untraced > 0 ? (traced - untraced) / untraced * 100.0 : 0.0;
        report.layers["process.allocs_per_msg"] =
            static_cast<double>(untraced_allocs) /
            static_cast<double>(std::max<std::uint64_t>(untraced_msgs, 1));
        // Layers timed by spans: each workload records only the spans on
        // its path, so the others stay 0.
        const auto pick = [](Layer layer, double p, double scale) {
            return tracer().recorder(layer)->percentile(p) / scale;
        };
        auto& L = report.layers;
        L["core.get_message_ns_p50"] = pick(Layer::kGetMessage, 50, 1);
        L["core.get_message_ns_p99"] = pick(Layer::kGetMessage, 99, 1);
        L["core.send_ns_p50"] = pick(Layer::kSend, 50, 1);
        L["core.send_ns_p99"] = pick(Layer::kSend, 99, 1);
        L["core.wake_us_p50"] = pick(Layer::kWake, 50, 1e3);
        L["core.wake_us_p99"] = pick(Layer::kWake, 99, 1e3);
        L["remote.oneway_us_p50"] = pick(Layer::kOneway, 50, 1e3);
        L["remote.oneway_us_p99"] = pick(Layer::kOneway, 99, 1e3);
        L["cdr.encode_ns_p50"] = pick(Layer::kEncode, 50, 1);
        L["cdr.decode_ns_p50"] = pick(Layer::kDecode, 50, 1);
        L["obs.trace_report_us_p50"] = pick(Layer::kTraceReport, 50, 1e3);
        for (const auto& [name, unit] : layer_metrics()) {
            metrics.push_back({name, {report.layers.at(name), unit}});
        }
    }

    // Host fingerprint and effective configuration.
    utsname uts{};
    uname(&uts);
    std::ostringstream fp;
    fp << "{\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN) << ",\"cpu\":\""
       << json_escape(cpu_model()) << "\",\"kernel\":\"" << json_escape(uts.release)
       << "\",\"build_type\":\"" << PERFBENCH_BUILD_TYPE << "\",\"compiler\":\""
       << json_escape(__VERSION__) << "\"}";
    std::ostringstream cfg;
    cfg << "{\"workload\":\"" << opt.workload << "\",\"seed\":" << opt.seed
        << ",\"seconds\":" << num(opt.seconds) << ",\"trace\":" << (opt.trace ? 1 : 0)
        << ",\"setup_cycles\":" << kSetupCycles << ",\"orphans_swept\":" << swept
        << ",\"env_scrubbed\":" << scrubbed.size()
        << ",\"rt_threads_denied_fifo\":" << compadres::rt::rt_denied_count();
    for (const auto& [k, v] : report.config) {
        cfg << ",\"" << json_escape(k) << "\":\"" << json_escape(v) << "\"";
    }
    cfg << "}";
    std::ostringstream diag;
    const auto spread = [](const std::vector<double>& v) {
        if (v.empty()) return std::string("[]");
        const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
        return "[" + num(*lo / 1e3) + "," + num(*hi / 1e3) + "]";
    };
    diag << "{\"chunks\":" << report.chunks.size() << ",\"untraced_samples\":" << samples
         << ",\"chunk_rtt_p50_us_range\":" << spread(p50[0])
         << ",\"chunk_rtt_p99_us_range\":" << spread(p99[0])
         << ",\"messages\":" << report.messages()
         << ",\"lost\":" << report.tally.lost.load()
         << ",\"duplicated\":" << report.tally.duplicated.load()
         << ",\"corrupt\":" << report.tally.corrupt.load()
         << ",\"dropped\":" << report.tally.dropped.load()
         << ",\"refused\":" << report.tally.refused.load();
    for (const auto& [k, v] : report.diag) diag << ",\"" << k << "\":" << num(v);
    diag << ",\"degraded\":[";
    for (std::size_t i = 0; i < report.degraded.size(); ++i) {
        diag << (i ? "," : "") << "\"" << json_escape(report.degraded[i]) << "\"";
    }
    diag << "]";
    if (opt.trace) {
        diag << ",\"self_time_us_per_span\":{";
        const auto self = self_times(tracer().spans());
        bool first = true;
        for (const auto& [layer, st] : self) {
            diag << (first ? "" : ",") << "\"" << layer << "\":"
                 << num(st.first / 1e3 / static_cast<double>(std::max<std::uint64_t>(st.second, 1)));
            first = false;
        }
        diag << "},\"spans_dropped\":" << tracer().spans_dropped();
    }
    diag << "}";

    std::ostringstream result;
    result << "{\"correct\":" << (correct ? "true" : "false") << ",\"attempted\":" << attempted
           << ",\"failed\":" << failed << ",\"metrics\":{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        result << (i ? "," : "") << "\"" << metrics[i].first << "\":{\"value\":"
               << num(metrics[i].second.first) << ",\"unit\":\"" << metrics[i].second.second
               << "\"}";
    }
    result << "}}";

    if (!out_dir.empty()) {
        const std::string stem = out_dir + "/" + opt.workload + "-seed" +
                                 std::to_string(opt.seed) + "-trace" +
                                 (opt.trace ? "1" : "0");
        std::ofstream rec(stem + ".json");
        rec << "{\"host\":" << fp.str() << ",\"config\":" << cfg.str()
            << ",\"diagnostics\":" << diag.str() << ",\"result\":" << result.str() << "}\n";
        if (opt.trace) {
            std::ofstream trace(stem + ".trace.json");
            trace << chrome_trace_json(tracer().spans());
        }
    }

    std::printf("# host %s\n# config %s\n# diagnostics %s\n%s\n", fp.str().c_str(),
                cfg.str().c_str(), diag.str().c_str(), result.str().c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
