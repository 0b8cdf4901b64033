/**
 * @file
 * Report-column tests: every stat a rate or counter column names is one
 * that some component registers, so a misspelled source cannot read as
 * a silent zero; and each column kind reads its measurement window.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/fault_plan.hh"
#include "core/report.hh"
#include "core/system.hh"
#include "net/workload/workload_spec.hh"

using namespace cdna;
using namespace cdna::core;

TEST(ReportColumns, CounterSourcesResolve)
{
    // Every kind of component a report counter comes from: each
    // architecture with TCP and a fault plan, oversubscribed CDNA
    // contexts, and an RPC workload's engines.
    auto faulty = [](SystemConfig cfg, bool kill_guest) {
        FaultPlan plan;
        plan.dropping(0.01)
            .corrupting(0.01)
            .duplicating(0.01)
            .delayingDma(0.01, 25.0)
            .stallingFirmware(0, 2.0, 1.0)
            .killingDriverDomain(3.0)
            .rebootingFirmware(1, 3.0);
        if (kill_guest)
            plan.killingGuest(1, 4.0);
        return cfg.transport(kTcp).withFaults(std::move(plan));
    };
    std::vector<SystemConfig> configs = {
        faulty(SystemConfig::native(), false),
        faulty(SystemConfig::xenIntel(2), true),
        faulty(SystemConfig::xenRice(2), true),
        faulty(SystemConfig::cdna(2), true),
        faulty(SystemConfig::swPassthrough(2), true),
        SystemConfig::cdna(40).withNics(1).oversubscribed(),
        SystemConfig::cdna(2).withNics(1).withWorkload(
            net::workload::WorkloadSpec{}.withClass(
                net::workload::FlowClass::rpc(512, 8192).poissonAt(
                    5000.0))),
    };

    std::set<std::pair<std::string, std::string>> registered;
    for (const SystemConfig &cfg : configs) {
        System sys(cfg);
        sys.run(sim::milliseconds(2), sim::milliseconds(4));
        for (const sim::SimObject *o : sys.ctx().objects())
            for (const auto &[stat, counter] : o->stats().counters())
                registered.insert({o->name(), stat});
    }

    std::size_t sourced = 0;
    for (const ReportColumn &c : reportColumns()) {
        std::vector<CounterSource> sources = counterSources(c);
        if (!c.count && !c.rate) {
            EXPECT_TRUE(sources.empty()) << c.key;
            continue;
        }
        sourced += !sources.empty();
        for (const CounterSource &src : sources) {
            bool found = false;
            for (const auto &[comp, stat] : registered)
                found = found || src.matches(comp, stat);
            EXPECT_TRUE(found) << c.key << " <- " << src.component << "."
                               << src.stat;
        }
    }
    // Every counter but the switch port's two, and every rate but
    // guest_intr_per_sec.
    EXPECT_EQ(sourced, 43u);
}

TEST(ReportColumns, SourcesParseQualifiedAndSummed)
{
    const ReportColumn *timeouts = findReportColumn("mailbox_timeouts");
    ASSERT_NE(timeouts, nullptr);
    std::vector<CounterSource> one = counterSources(*timeouts);
    ASSERT_EQ(one.size(), 1u);
    EXPECT_TRUE(one[0].matches("faults", "mailbox_timeouts"));
    EXPECT_FALSE(one[0].matches("cdnadrv0.0", "mailbox_timeouts"));

    const ReportColumn *lost = findReportColumn("outage_packets_lost");
    ASSERT_NE(lost, nullptr);
    std::vector<CounterSource> two = counterSources(*lost);
    ASSERT_EQ(two.size(), 2u);
    EXPECT_TRUE(two[0].matches("ddn0", "outage_rx_drops"));
    EXPECT_TRUE(two[1].matches("ddn0.vif-guest1", "tx_lost_crash"));
}

TEST(ReportColumns, KindsReadTheirWindow)
{
    // After a nonzero warmup each column below already reads nonzero at
    // the window's start, so a column tagged with the wrong kind in
    // report_columns.def reports a different number.
    FaultPlan plan;
    plan.dropping(0.01);
    System sys(SystemConfig::cdna(2).withFaults(std::move(plan)));
    auto dropped = [&] {
        return sys.faultInjector()->stats().findCounter("frames_dropped")
            ->value();
    };
    auto resident = [&] {
        std::uint64_t n = 0;
        for (std::uint32_t i = 0; i < sys.nicCount(); ++i)
            n += sys.cdnaNic(i)->residentPeak();
        return n;
    };
    const sim::Time window = sim::milliseconds(4);
    auto &eq = sys.ctx().events();
    sys.start();
    eq.runUntil(eq.now() + sim::milliseconds(4));
    sys.beginMeasurement();
    std::uint64_t drops0 = dropped();
    std::uint64_t calls0 = sys.hv().hypercallCount();
    eq.runUntil(eq.now() + window);
    std::uint64_t drops1 = dropped();
    std::uint64_t calls1 = sys.hv().hypercallCount();
    Report r = sys.endMeasurement(window);

    ASSERT_GT(drops0, 0u);
    ASSERT_GT(drops1, drops0);
    ASSERT_GT(calls0, 0u);
    ASSERT_GT(calls1, calls0);
    ASSERT_GT(resident(), 0u);
    // Count: the stat's end-minus-begin delta.
    EXPECT_EQ(r.faultFramesDropped, drops1 - drops0);
    // Rate: that delta over the window's seconds.
    EXPECT_DOUBLE_EQ(r.hypercallPerSec, static_cast<double>(calls1 - calls0) /
                                            sim::toSeconds(window));
    // Level: its end-of-window value.
    EXPECT_EQ(r.cxtResidentPeak, resident());
}
