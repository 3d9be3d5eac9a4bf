// Self-tests of the benchmark's own arithmetic, run before every
// workload by run.py: the percentile pick, self time with overlapping
// children, seed determinism of the generated inputs, and failure
// accounting on a deliberately corrupted echo.
#include "harness.hpp"

#include <cmath>
#include <cstdio>

namespace perfbench {
namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
    if (!ok) {
        ++g_failures;
        std::fprintf(stderr, "selftest FAILED: %s\n", what);
    }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void test_percentile() {
    std::vector<std::uint32_t> v = {5, 1, 4, 2, 3};
    expect(near(percentile_pick(v, 50), 3), "p50 of 1..5 is 3");
    expect(near(percentile_pick(v, 99), 5), "p99 of 1..5 is 5");
    expect(near(percentile_pick(v, 20), 1), "p20 of 1..5 is 1 (nearest rank)");
    std::vector<std::uint32_t> h(100);
    for (std::uint32_t i = 0; i < 100; ++i) h[i] = 100 - i;
    expect(near(percentile_pick(h, 50), 50), "p50 of 1..100 is 50");
    expect(near(percentile_pick(h, 99), 99), "p99 of 1..100 is 99");
    std::vector<std::uint32_t> empty;
    expect(near(percentile_pick(empty, 50), 0), "empty set picks 0");
    expect(near(median({4.0, 1.0, 3.0, 2.0}), 2.5), "median of an even count");

    // A decimating recorder keeps a uniform subset once full.
    Recorder r(8);
    for (int i = 1; i <= 100; ++i) r.record(i);
    expect(r.count() == 100 && r.kept() <= 8, "recorder bounded by capacity");
    expect(r.percentile(50) > 25 && r.percentile(50) < 75,
           "decimated median stays central");
}

void test_self_time() {
    // Parent [0,100]; children [10,30] and [20,50] overlap, [70,80] apart,
    // [90,120] sticks out past the parent: covered = 40 + 10 + 10 = 60.
    std::vector<Span> spans = {
        {1, 0, 100, Layer::kRequest, Layer::kCount, 1},
        {1, 10, 30, Layer::kSend, Layer::kRequest, 1},
        {1, 20, 50, Layer::kWake, Layer::kRequest, 1},
        {1, 70, 80, Layer::kHandler, Layer::kRequest, 1},
        {1, 90, 120, Layer::kGetMessage, Layer::kRequest, 1},
        // Another request's child must not count against request 1.
        {2, 0, 100, Layer::kSend, Layer::kRequest, 1},
        // A grandchild counts against its own parent only.
        {1, 22, 28, Layer::kEncode, Layer::kSend, 1},
    };
    const auto self = self_times(spans);
    expect(near(self.at("request").first, 40), "request self time 100 - 60");
    expect(self.at("request").second == 1, "one request span");
    expect(near(self.at("core.send").first, 14 + 100), "send self time excludes encode");
    expect(near(self.at("cdr.encode").first, 6), "leaf self time is its span");
}

void test_seed_determinism() {
    const std::vector<std::uint32_t> choices = {32, 64, 128, 256, 512, 1024};
    expect(seeded_sizes(7, 1000, choices) == seeded_sizes(7, 1000, choices),
           "same seed, same size sequence");
    expect(seeded_sizes(7, 1000, choices) != seeded_sizes(8, 1000, choices),
           "different seed, different size sequence");
    expect(seeded_size_range(3, 1000, 32, 256) == seeded_size_range(3, 1000, 32, 256),
           "same seed, same size range sequence");
    expect(seeded_phases(5, 1000, 50'000) == seeded_phases(5, 1000, 50'000),
           "same seed, same probe phases");
    expect(seeded_phases(5, 1000, 50'000) != seeded_phases(6, 1000, 50'000),
           "different seed, different probe phases");
    bool in_range = true;
    for (const auto s : seeded_size_range(9, 1000, 32, 256)) in_range &= s >= 32 && s <= 256;
    for (const auto p : seeded_phases(9, 1000, 50'000)) in_range &= p >= 0 && p < 50'000;
    expect(in_range, "generated inputs stay in range");

    PayloadBook a(11, 4, 256), b(11, 4, 256);
    std::vector<std::uint8_t> pa(200), pb(200);
    a.fill(pa.data(), 42, 1000, 200);
    b.fill(pb.data(), 42, 1000, 200);
    expect(pa == pb, "same seed, same payload bytes");
}

void test_fail_accounting() {
    PayloadBook book(13, 4, 256);
    Tally tally;
    SeqTracker tracker;
    std::vector<std::uint8_t> p(128);
    // Five requests: 0 and 1 echo intact, 2 comes back with a flipped
    // byte, 1 is echoed twice, 3 never returns, 4 is intact.
    const auto echo = [&](std::uint64_t seq, bool corrupt) {
        book.fill(p.data(), seq, 0, static_cast<std::uint32_t>(p.size()));
        if (corrupt) p[100] ^= 0x40;
        Stamp s;
        if (!book.verify(p.data(), p.size(), s)) {
            tally.corrupt.fetch_add(1);
            return;
        }
        tracker.on_seq(s.seq, tally);
    };
    tally.attempted = 5;
    echo(0, false);
    echo(1, false);
    echo(1, false);
    echo(2, true);
    echo(4, false);
    tracker.finish(5, tally);
    expect(tally.corrupt == 1, "corrupted echo counted");
    expect(tally.duplicated == 1, "duplicate echo counted");
    // 2 (corrupt, never verified in order) and 3 (never returned) are gaps.
    expect(tally.lost == 2, "missing sequence numbers counted as lost");
    expect(near(tally.fail_ratio(), 4.0 / 5.0), "fail_ratio = failures / attempted");

    Stamp s;
    book.fill(p.data(), 9, 0, 64);
    expect(!book.verify(p.data(), 63, s), "short echo rejected");
    expect(book.verify(p.data(), 64, s) && s.seq == 9, "intact echo accepted");
}

} // namespace

int run_selftest() {
    test_percentile();
    test_self_time();
    test_seed_determinism();
    test_fail_accounting();
    if (g_failures == 0) std::fprintf(stderr, "selftest: all checks passed\n");
    return g_failures;
}

} // namespace perfbench
