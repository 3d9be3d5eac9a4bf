#include "wire_common.hpp"

#include "remote/serializer.hpp"

#include <typeindex>

namespace perfbench {
namespace {

using namespace compadres;

/// The built-in OctetSeq codec the timed wrapper delegates to.
remote::Serializer g_base;

std::uint64_t seq_of(const core::OctetSeq& m) {
    std::uint64_t seq = 0;
    if (m.length >= sizeof seq) std::memcpy(&seq, m.data.data(), sizeof seq);
    return seq;
}

void timed_encode(const core::OctetSeq& m, cdr::OutputStream& out) {
    if (!tracer().on()) {
        g_base.encode(&m, out);
        return;
    }
    const std::int64_t t0 = now_ns();
    g_base.encode(&m, out);
    tracer().record(Layer::kEncode, Layer::kSend, seq_of(m), t0, now_ns());
}

void timed_decode(core::OctetSeq& m, cdr::InputStream& in) {
    if (!tracer().on()) {
        g_base.decode(&m, in);
        return;
    }
    const std::int64_t t0 = now_ns();
    g_base.decode(&m, in);
    tracer().record(Layer::kDecode, Layer::kOneway, seq_of(m), t0, now_ns());
}

} // namespace

void install_timed_octet_codec() {
    auto& reg = remote::SerializerRegistry::global();
    const remote::Serializer& current =
        reg.find(std::type_index(typeid(core::OctetSeq)));
    // Already wrapped (no bridge re-registered the built-ins since).
    if (current.encode_ctx == reinterpret_cast<const void*>(&timed_encode)) return;
    g_base = current;
    reg.register_custom_fn<core::OctetSeq>("OctetSeq", &timed_encode,
                                           &timed_decode);
}

std::map<std::string, std::uint64_t> bridge_counters(const core::TraceReport& report) {
    std::map<std::string, std::uint64_t> out;
    for (const auto& group : report.counters) {
        if (group.source.rfind("bridge:", 0) != 0) continue;
        for (const auto& [name, value] : group.counters) out[name] += value;
    }
    return out;
}

std::uint64_t delta(const std::map<std::string, std::uint64_t>& before,
                    const std::map<std::string, std::uint64_t>& after,
                    const std::string& name) {
    const auto a = after.find(name);
    const auto b = before.find(name);
    const std::uint64_t va = a == after.end() ? 0 : a->second;
    const std::uint64_t vb = b == before.end() ? 0 : b->second;
    return va > vb ? va - vb : 0;
}

void fabric_layers(const core::TraceReport& a0, const core::TraceReport& b0,
                   const core::TraceReport& a1, const core::TraceReport& b1,
                   std::uint64_t messages, Report& report) {
    const double m = static_cast<double>(std::max<std::uint64_t>(messages, 1));
    const std::uint64_t locks =
        (a1.queue_lock_acquisitions - a0.queue_lock_acquisitions) +
        (b1.queue_lock_acquisitions - b0.queue_lock_acquisitions);
    const std::uint64_t stalls =
        (a1.credit_stalls - a0.credit_stalls) + (b1.credit_stalls - b0.credit_stalls);
    std::size_t hwm = 0;
    for (const auto* r : {&a1, &b1}) {
        for (const auto& p : r->ports) hwm = std::max(hwm, p.depth_high_water);
    }
    report.layers["core.locks_per_msg"] = static_cast<double>(locks) / m;
    report.layers["core.credit_stalls_per_1k"] = static_cast<double>(stalls) * 1000.0 / m;
    report.layers["core.depth_hwm"] = static_cast<double>(hwm);
}

std::uint64_t port_drops(const core::TraceReport& report) {
    std::uint64_t n = 0;
    for (const auto& p : report.ports) n += p.dropped + p.overwritten;
    return n;
}

} // namespace perfbench
