// Pieces shared by the two bridged workloads (tcp_stream, shm_mixed).
#pragma once

#include "harness.hpp"

#include "core/application.hpp"
#include "core/messages.hpp"

#include <map>
#include <string>

namespace perfbench {

/// Traced runs: re-register the OctetSeq serializer as a wrapper that
/// brackets the built-in codec with cdr.encode / cdr.decode spans. Call
/// after every RemoteBridge is constructed (their constructors re-register
/// the built-ins) and before routes are exported or imported, which is
/// when a route resolves its codec.
void install_timed_octet_codec();

/// Every bridge counter in `report`, summed by name over its bridges.
std::map<std::string, std::uint64_t> bridge_counters(const compadres::core::TraceReport& report);

/// after[name] - before[name] (0 when absent).
std::uint64_t delta(const std::map<std::string, std::uint64_t>& before,
                    const std::map<std::string, std::uint64_t>& after,
                    const std::string& name);

/// Fills core.locks_per_msg, core.credit_stalls_per_1k and core.depth_hwm
/// from two applications' reports taken around the window.
void fabric_layers(const compadres::core::TraceReport& a0, const compadres::core::TraceReport& b0,
                   const compadres::core::TraceReport& a1, const compadres::core::TraceReport& b1,
                   std::uint64_t messages, Report& report);

/// Port-level drops (ring overwrites and drops) in one report.
std::uint64_t port_drops(const compadres::core::TraceReport& report);

/// An In port whose handler runs on the delivering thread (no pool).
inline compadres::core::InPortConfig sync_port() {
    compadres::core::InPortConfig cfg;
    cfg.min_threads = cfg.max_threads = 0;
    return cfg;
}

/// Stamped OctetSeq helpers.
inline void fill_octets(const PayloadBook& book, compadres::core::OctetSeq& m,
                        std::uint64_t seq, std::int64_t t_ns, std::uint32_t len) {
    book.fill(m.data.data(), seq, t_ns, len);
    m.length = len;
}
inline bool verify_octets(const PayloadBook& book, const compadres::core::OctetSeq& m,
                          Stamp& stamp) {
    return book.verify(m.data.data(), m.length, stamp);
}

} // namespace perfbench
