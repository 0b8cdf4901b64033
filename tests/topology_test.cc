/**
 * @file
 * Multi-host topology tests: the 1-host degenerate case is
 * bit-identical to a standalone System, cross-host TCP traverses
 * guest -> NIC -> switch -> NIC -> guest, multi-host runs are
 * deterministic, a noisy neighbor on a shared uplink measurably
 * degrades a victim host, every host's components carry distinct
 * names and trace lanes, and each host's report counts only its own
 * components.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "core/report.hh"
#include "core/fault_plan.hh"
#include "core/system.hh"
#include "net/eth_switch.hh"
#include "sim/topology.hh"

using namespace cdna;

TEST(Topology, SingleHostMatchesStandalone)
{
    // Host 0 of a topology with no external fabrics builds the exact
    // standalone object graph (same names, same MAC block, same event
    // order): the paper's single-host configurations are the 1-host
    // special case, not a separate code path.
    auto cfg = core::SystemConfig::xenIntel(2).withSeed(7);
    core::System alone(cfg);
    auto r1 = alone.run(sim::milliseconds(20), sim::milliseconds(60));

    sim::Topology topo(cfg.seed);
    auto &h = topo.addHost(cfg, {});
    topo.run(sim::milliseconds(20), sim::milliseconds(60));
    auto r2 = topo.report(h);

    EXPECT_EQ(core::reportToJson(r1), core::reportToJson(r2));
}

TEST(Topology, CrossHostTcpGuestToGuest)
{
    // A guest on host A opens a closed-loop TCP flow to a guest on
    // host B; every segment and every ACK crosses both hosts' full
    // I/O paths and the switch in between.
    sim::Topology topo;
    auto &sw = topo.addSwitch("sw", 4);
    auto &a = topo.addHost(
        core::SystemConfig::cdna(1).withNics(1).transport(core::kTcp),
        {&sw});
    auto &b = topo.addHost(core::SystemConfig::cdna(1)
                               .receive()
                               .withNics(1)
                               .transport(core::kTcp),
                           {&sw});
    a.stack(0, 0).setDefaultDst(b.guestMac(0, 0));

    topo.run(sim::milliseconds(10), sim::milliseconds(40));
    auto ra = topo.report(a);
    auto rb = topo.report(b);

    // The receiving host's guest actually got a useful fraction of
    // line rate.  Goodput of a cross-host flow is measured where the
    // data is consumed (host B); the sender's side reports the wire
    // throughput its NIC injected.
    EXPECT_GT(rb.mbps, 100.0);
    EXPECT_GT(ra.wireMbps, 100.0);
    EXPECT_EQ(rb.switchDrops, sw.totalDrops());
}

TEST(Topology, ThreeHostRunsAreDeterministic)
{
    auto build_and_run = [] {
        sim::Topology topo(3);
        auto &sw = topo.addSwitch("sw", 8);
        std::vector<core::System *> hosts;
        hosts.push_back(&topo.addHost(
            core::SystemConfig::cdna(1).withNics(1).transport(core::kTcp),
            {&sw}));
        hosts.push_back(&topo.addHost(core::SystemConfig::cdna(1)
                                          .receive()
                                          .withNics(1)
                                          .transport(core::kTcp),
                                      {&sw}));
        hosts.push_back(&topo.addHost(core::SystemConfig::xenIntel(1)
                                          .receive()
                                          .withNics(1)
                                          .transport(core::kTcp),
                                      {&sw}));
        hosts[0]->stack(0, 0).setDefaultDst(hosts[1]->guestMac(0, 0));
        auto &peer = topo.addPeer("ext", sw);
        topo.ctx().events().schedule(sim::milliseconds(1), [&] {
            peer.applyWorkload(
                net::workload::WorkloadSpec{}
                    .overTcp({})
                    .toward({hosts[2]->guestMac(0, 0)})
                    .withClass(net::workload::FlowClass::saturating()));
        });
        topo.run(sim::milliseconds(10), sim::milliseconds(30));
        std::string all;
        for (std::size_t i = 0; i < topo.numHosts(); ++i)
            all += core::reportToJson(topo.report(i));
        return all;
    };
    std::string first = build_and_run();
    std::string second = build_and_run();
    EXPECT_EQ(first, second);
    // Three distinct hosts' flows all made progress.
    EXPECT_NE(first.find("\"label\""), std::string::npos);
}

TEST(Topology, NoisyNeighborOnSharedUplinkDegradesVictim)
{
    // Senders sit on a core switch; the victim and noisy hosts share
    // one access switch fed by a single trunk.  When the noisy
    // sender saturates the trunk with open-loop line-rate traffic,
    // the victim's closed-loop TCP flow loses its share and must
    // retransmit around trunk-queue drops.
    auto victim_mbps = [](bool noisy, std::uint64_t *drops) {
        sim::Topology topo(11);
        auto &core_sw = topo.addSwitch("core", 4);
        auto &access = topo.addSwitch("access", 4);
        auto &trunk = topo.link(core_sw, access);

        auto &victim = topo.addHost(core::SystemConfig::cdna(1)
                                        .receive()
                                        .withNics(1)
                                        .transport(core::kTcp),
                                    {&access});
        auto &other = topo.addHost(core::SystemConfig::cdna(1)
                                       .receive()
                                       .withNics(1),
                                   {&access});
        auto &vsrc = topo.addPeer("vsrc", core_sw);
        auto &nsrc = topo.addPeer("nsrc", core_sw);

        // MACs living behind the trunk must be pinned through it on
        // the sender-side switch.
        core_sw.setRoute(victim.guestMac(0, 0), trunk.portOnA());
        core_sw.setRoute(other.guestMac(0, 0), trunk.portOnA());
        access.setRoute(vsrc.mac(), trunk.portOnB());
        access.setRoute(nsrc.mac(), trunk.portOnB());

        topo.ctx().events().schedule(sim::milliseconds(1), [&] {
            vsrc.applyWorkload(
                net::workload::WorkloadSpec{}
                    .overTcp({})
                    .toward({victim.guestMac(0, 0)})
                    .withClass(net::workload::FlowClass::saturating()));
            if (noisy)
                nsrc.applyWorkload(
                    net::workload::WorkloadSpec{}
                        .toward({other.guestMac(0, 0)})
                        .withClass(net::workload::FlowClass::saturating()));
        });
        topo.run(sim::milliseconds(10), sim::milliseconds(40));
        if (drops)
            *drops = core_sw.totalDrops();
        return topo.report(victim).mbps;
    };

    std::uint64_t drops_alone = 0, drops_noisy = 0;
    double alone = victim_mbps(false, &drops_alone);
    double contended = victim_mbps(true, &drops_noisy);
    EXPECT_GT(alone, 400.0);
    EXPECT_LT(contended, 0.75 * alone);
    EXPECT_EQ(drops_alone, 0u);
    EXPECT_GT(drops_noisy, 0u);
}

TEST(Topology, ComponentNamesAreUniqueAcrossHosts)
{
    // Every component a host builds takes the host's name prefix, so
    // stats dumps and trace lanes never merge two hosts.
    sim::Topology topo;
    auto &sw = topo.addSwitch("sw", 4);
    topo.addHost(core::SystemConfig::cdna(1).withNics(1).withIommu(
                     mem::Iommu::Mode::kPerContext),
                 {&sw});
    topo.addHost(core::SystemConfig::xenRice(1).withNics(1).withIommu(
                     mem::Iommu::Mode::kPerDevice),
                 {&sw});
    topo.addHost(core::SystemConfig::swPassthrough(1)
                     .withNics(1)
                     .withIommu(mem::Iommu::Mode::kPerDevice)
                     .withFaults(core::FaultPlan{}.killingDriverDomain(5)),
                 {&sw});
    topo.run(sim::milliseconds(2), sim::milliseconds(8));

    std::set<std::string> names;
    for (const sim::SimObject *o : topo.ctx().objects())
        EXPECT_TRUE(names.insert(o->name()).second) << o->name();
    EXPECT_EQ(names.count("phys-mem"), 1u);
    EXPECT_EQ(names.count("h1.grant-table"), 1u);
    EXPECT_EQ(names.count("h2.availability"), 1u);
}

TEST(Topology, HypervisorTraceLanePerHost)
{
    // Each host's hypervisor execution spans land on its own
    // hypervisor component's lane; host 0 keeps "hypervisor".
    sim::Topology topo;
    topo.ctx().tracer().enable();
    auto &sw = topo.addSwitch("sw", 4);
    auto &h0 = topo.addHost(core::SystemConfig::xenIntel(1).withNics(1),
                            {&sw});
    auto &h1 = topo.addHost(
        core::SystemConfig::xenIntel(2).receive().withNics(1), {&sw});
    topo.run(sim::milliseconds(1), sim::milliseconds(4));

    const sim::Tracer &tr = topo.ctx().tracer();
    ASSERT_EQ(tr.droppedCount(), 0u);
    std::map<std::string, std::uint64_t> spans;
    const std::string json = tr.toChromeJson();
    const std::string key = "{\"name\":\"hv\",\"ph\":\"X\",\"pid\":0,\"tid\":";
    for (auto at = json.find(key); at != std::string::npos;
         at = json.find(key, at + 1))
        ++spans[tr.laneName(std::stoul(json.substr(at + key.size())))];
    EXPECT_EQ(spans.size(), 2u);
    EXPECT_GT(h0.cpu().hvItemsRun(), 0u);
    EXPECT_GT(h1.cpu().hvItemsRun(), 0u);
    EXPECT_EQ(spans["hypervisor"], h0.cpu().hvItemsRun());
    EXPECT_EQ(spans["h1.hypervisor"], h1.cpu().hvItemsRun());
}

namespace {

/** TCP counters of a host's guest stacks, summed. */
struct StackTcp
{
    std::uint64_t retrans = 0, fastRtx = 0, rto = 0, dupAcks = 0;
    std::uint64_t badCsum = 0;
};

StackTcp
stackTcp(core::System &h)
{
    StackTcp s;
    for (std::uint32_t g = 0; g < h.config().numGuests; ++g) {
        for (std::uint32_t i = 0; i < h.nicCount(); ++i) {
            os::NetStack &st = h.stack(g, i);
            s.badCsum += st.rxDropsBadCsum();
            if (const auto *t = st.tcp()) {
                s.retrans += t->retransSegs();
                s.fastRtx += t->fastRetransmits();
                s.rto += t->rtoEvents();
                s.dupAcks += t->dupAcksRx();
            }
        }
    }
    return s;
}

void
expectWindowMatches(const core::Report &r, const StackTcp &a,
                    const StackTcp &b)
{
    EXPECT_EQ(r.tcpRetransSegs, b.retrans - a.retrans) << r.label;
    EXPECT_EQ(r.tcpFastRetransmits, b.fastRtx - a.fastRtx) << r.label;
    EXPECT_EQ(r.tcpRtoEvents, b.rto - a.rto) << r.label;
    EXPECT_EQ(r.tcpDupAcks, b.dupAcks - a.dupAcks) << r.label;
    EXPECT_EQ(r.rxDropsBadCsum, b.badCsum - a.badCsum) << r.label;
}

} // namespace

TEST(Topology, HostReportCountsOnlyItsOwnComponents)
{
    {
        // Incast: host 0 (empty name prefix) shares the context with
        // external senders whose TCP endpoints retransmit into a
        // shallow switch buffer; none of that is host 0's.
        sim::Topology topo(5);
        net::EthSwitchParams params;
        params.bufBytesPerPort = 32 * 1024;
        auto &sw = topo.addSwitch("sw", 5, params);
        auto &host = topo.addHost(core::SystemConfig::xenIntel(1)
                                      .receive()
                                      .withNics(1)
                                      .transport(core::kTcp),
                                  {&sw});
        std::vector<net::TrafficPeer *> senders;
        for (int i = 0; i < 4; ++i)
            senders.push_back(&topo.addPeer("snd" + std::to_string(i), sw));
        topo.ctx().events().schedule(sim::milliseconds(1), [&] {
            for (auto *p : senders)
                p->applyWorkload(
                    net::workload::WorkloadSpec{}
                        .overTcp({})
                        .toward({host.guestMac(0, 0)})
                        .withClass(net::workload::FlowClass::saturating()));
        });
        StackTcp begin;
        std::uint64_t sender_begin = 0;
        topo.run(sim::milliseconds(5), sim::milliseconds(20), [&] {
            begin = stackTcp(host);
            for (auto *p : senders)
                sender_begin += p->tcp()->retransSegs();
        });
        std::uint64_t sender_end = 0;
        for (auto *p : senders)
            sender_end += p->tcp()->retransSegs();
        ASSERT_GT(sender_end, sender_begin); // the senders did retransmit
        expectWindowMatches(topo.report(host), begin, stackTcp(host));
    }
    {
        // Two TCP hosts; host 0 carries the (context-wide) loss plan,
        // so its fault injector's counts are its own as well.
        sim::Topology topo(3);
        auto &sw = topo.addSwitch("sw", 4);
        auto &a = topo.addHost(
            core::SystemConfig::cdna(1).withNics(1).transport(core::kTcp)
                .withFaults(core::FaultPlan{}.dropping(0.01).corrupting(
                    0.01)),
            {&sw});
        auto &b = topo.addHost(core::SystemConfig::cdna(1)
                                   .receive()
                                   .withNics(1)
                                   .transport(core::kTcp),
                               {&sw});
        a.stack(0, 0).setDefaultDst(b.guestMac(0, 0));
        StackTcp a0, b0;
        topo.run(sim::milliseconds(5), sim::milliseconds(20), [&] {
            a0 = stackTcp(a);
            b0 = stackTcp(b);
        });
        core::Report ra = topo.report(a);
        core::Report rb = topo.report(b);
        EXPECT_GT(ra.tcpRetransSegs, 0u);
        EXPECT_GT(rb.rxDropsBadCsum, 0u);
        expectWindowMatches(ra, a0, stackTcp(a));
        expectWindowMatches(rb, b0, stackTcp(b));
        EXPECT_GT(ra.faultFramesDropped, 0u);
        EXPECT_EQ(rb.faultFramesDropped, 0u);
        EXPECT_EQ(rb.faultFramesCorrupted, 0u);
    }
}
