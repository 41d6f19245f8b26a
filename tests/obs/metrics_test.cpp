#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "support/mini_json.hpp"

namespace scimpi::obs {
namespace {

TEST(MetricsRegistry, DisabledGaugesHaveNoSideEffects) {
    MetricsRegistry m;  // disabled by default
    Gauge& g = m.gauge("x.level");
    g.set(7.0);
    g.add(3.0);
    EXPECT_EQ(g.value(), 0.0);
    EXPECT_EQ(g.max(), 0.0);
    EXPECT_TRUE(m.gauge_maxima().size() == 1 && m.gauge_maxima()[0].second == 0.0);
}

TEST(MetricsRegistry, CountersCountWhileDisabledButExportZeros) {
    MetricsRegistry m;  // disabled by default
    Counter& c = m.counter("x.count");
    c.inc();
    c.add(100);
    EXPECT_EQ(c.value(), 101u);
    EXPECT_EQ(m.value("x.count"), 101u);
    ASSERT_EQ(m.counters().size(), 1u);
    EXPECT_EQ(m.counters()[0].second, 0u);  // the export is gated
    m.enable();
    EXPECT_EQ(m.counters()[0].second, 101u);
}

TEST(MetricsRegistry, LabelledSlotsSumToTheNamedValue) {
    MetricsRegistry m;
    m.enable();
    Counter& s2 = m.counter("sci.x", 2);
    s2.add(5);
    EXPECT_EQ(m.labels("sci.x"), 3u);  // slots 0..2, the lower two empty
    Counter& s0 = m.counter("sci.x");  // the unlabelled slot is slot 0
    s0.add(1);
    for (int l = 3; l < 64; ++l) m.counter("sci.x", l).inc();  // growth keeps handles
    EXPECT_EQ(&s2, &m.counter("sci.x", 2));
    s2.inc();
    EXPECT_EQ(m.value("sci.x", 0), 1u);
    EXPECT_EQ(m.value("sci.x", 1), 0u);
    EXPECT_EQ(m.value("sci.x", 2), 6u);
    EXPECT_EQ(m.value("sci.x", 64), 0u);  // past the last slot
    EXPECT_EQ(m.value("sci.x"), 1u + 6u + 61u);
    ASSERT_EQ(m.counters().size(), 1u);  // one name, one exported key
    EXPECT_EQ(m.counters()[0].second, m.value("sci.x"));
    EXPECT_EQ(m.labels("absent"), 0u);
    EXPECT_EQ(m.value("absent", 0), 0u);
}

TEST(MetricsRegistry, EnabledCountersAccumulate) {
    MetricsRegistry m;
    m.enable();
    Counter& c = m.counter("x.count");
    c.inc();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
    EXPECT_EQ(m.value("x.count"), 42u);
    EXPECT_EQ(m.value("never.registered"), 0u);
}

TEST(MetricsRegistry, FindOrCreateReturnsStableHandles) {
    MetricsRegistry m;
    m.enable();
    Counter* first = &m.counter("a");
    for (int i = 0; i < 100; ++i) m.counter("filler." + std::to_string(i));
    EXPECT_EQ(first, &m.counter("a"));
    first->inc();
    EXPECT_EQ(m.value("a"), 1u);
}

TEST(MetricsRegistry, GaugeTracksMaximum) {
    MetricsRegistry m;
    m.enable();
    Gauge& g = m.gauge("level");
    g.set(2.0);
    g.set(9.0);
    g.set(4.0);
    EXPECT_EQ(g.value(), 4.0);
    EXPECT_EQ(g.max(), 9.0);
}

TEST(MetricsRegistry, ResetZeroesValuesButKeepsHandles) {
    MetricsRegistry m;
    m.enable();
    Counter& c = m.counter("a");
    Gauge& g = m.gauge("b");
    c.add(5);
    g.set(5.0);
    m.reset();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(g.max(), 0.0);
    c.inc();  // same handle still wired to the registry
    EXPECT_EQ(m.value("a"), 1u);
}

TEST(MetricsRegistry, SnapshotIsSortedByName) {
    MetricsRegistry m;
    m.enable();
    m.counter("zeta").add(1);
    m.counter("alpha").add(2);
    const auto snap = m.counters();
    ASSERT_EQ(snap.size(), 2u);
    EXPECT_EQ(snap[0].first, "alpha");
    EXPECT_EQ(snap[1].first, "zeta");
}

TEST(MetricsRegistry, LifecycleAcrossResetKeepsHandlesAndRezeroesGauges) {
    // The cluster reset/re-init contract: modules resolve handles once (at
    // construction) and keep incrementing through them across reset().
    MetricsRegistry m;
    m.enable();
    Counter* c = &m.counter("mod.events");
    Gauge* g = &m.gauge("mod.depth");
    Histogram* h = &m.histogram("mod.latency_ns");
    c->add(7);
    g->set(9.0);
    h->record(128);

    m.reset();
    // Handles are still the registry's slots (node-based storage)...
    EXPECT_EQ(c, &m.counter("mod.events"));
    EXPECT_EQ(g, &m.gauge("mod.depth"));
    EXPECT_EQ(h, &m.histogram("mod.latency_ns"));
    // ...and every value (including the gauge high-water mark) re-zeroed.
    EXPECT_EQ(c->value(), 0u);
    EXPECT_EQ(g->value(), 0.0);
    EXPECT_EQ(g->max(), 0.0);
    EXPECT_EQ(h->count(), 0u);

    // A second "run" through the same handles behaves like the first.
    c->inc();
    g->set(3.0);
    h->record(64);
    EXPECT_EQ(m.value("mod.events"), 1u);
    EXPECT_EQ(g->max(), 3.0);
    EXPECT_EQ(h->count(), 1u);
}

TEST(MetricsRegistry, InternedNamesDoNotLeakOrCollideAcrossResets) {
    MetricsRegistry m;
    m.enable();
    for (int round = 0; round < 3; ++round) {
        // Re-registering the same names every "re-init" must find the
        // existing slots, not grow the registry (no interning leak).
        m.counter("a.count").inc();
        m.counter("b.count").inc();
        m.gauge("a.level").set(1.0);
        m.histogram("a.hist").record(1);
        EXPECT_EQ(m.counters().size(), 2u) << "round " << round;
        EXPECT_EQ(m.gauge_maxima().size(), 1u) << "round " << round;
        EXPECT_EQ(m.histograms().size(), 1u) << "round " << round;
        // Prefix-sharing names stay distinct slots (no collision).
        EXPECT_NE(&m.counter("a.count"), &m.counter("b.count"));
        m.reset();
        EXPECT_EQ(m.value("a.count"), 0u);
    }
}

TEST(MetricsRegistry, FreshRegistriesPerClusterDoNotAlias) {
    // Two clusters in sequence (re-init) own independent registries: same
    // names, different slots, no cross-talk.
    MetricsRegistry first;
    first.enable();
    Counter* c1 = &first.counter("x");
    c1->add(5);
    {
        MetricsRegistry second;
        second.enable();
        Counter* c2 = &second.counter("x");
        EXPECT_NE(c1, c2);
        c2->add(2);
        EXPECT_EQ(second.value("x"), 2u);
    }
    EXPECT_EQ(first.value("x"), 5u);  // unaffected by the second's lifetime
}

TEST(JsonEscape, EscapesQuotesBackslashesAndControlChars) {
    std::string out;
    json_escape(out, "a\"b\\c\n\t\x01z");
    EXPECT_EQ(out, "a\\\"b\\\\c\\n\\t\\u0001z");
}

TEST(RunReport, ToJsonIsValidEvenWithHostileNames) {
    MetricsRegistry m;
    m.enable();
    m.counter("weird \"name\"\\with\x02junk").add(3);
    m.gauge("g\nauge").set(1.5);

    RunReport r;
    r.world = 4;
    r.nodes = 2;
    r.sim_seconds = 0.25;
    r.events_dispatched = 99;
    r.stats_enabled = true;
    r.counters = m.counters();
    r.gauges = m.gauge_maxima();
    r.links.push_back({0, 100, 120, 10});

    const std::string json = r.to_json();
    EXPECT_TRUE(testsupport::json_valid(json)) << json;
    EXPECT_NE(json.find("\\\"name\\\""), std::string::npos);
    EXPECT_EQ(r.counter("weird \"name\"\\with\x02junk"), 3u);
    EXPECT_EQ(r.gauge("g\nauge"), 1.5);
    EXPECT_EQ(r.counter("absent"), 0u);
}

TEST(RunReport, WriteJsonRoundTripsThroughAFile) {
    RunReport r;
    r.world = 1;
    r.nodes = 1;
    const std::string path = ::testing::TempDir() + "/scimpi_report.json";
    ASSERT_TRUE(r.write_json(path).is_ok());
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    EXPECT_TRUE(testsupport::json_valid(ss.str()));
    std::remove(path.c_str());
}

TEST(RunReport, WriteJsonFailureNamesThePath) {
    RunReport r;
    const std::string path = "/nonexistent-dir-scimpi/report.json";
    const Status st = r.write_json(path);
    ASSERT_FALSE(st.is_ok());
    EXPECT_EQ(st.code(), Errc::io_error);
    EXPECT_NE(st.to_string().find(path), std::string::npos) << st.to_string();
}

}  // namespace
}  // namespace scimpi::obs
