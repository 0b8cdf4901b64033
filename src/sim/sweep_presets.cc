#include "sim/sweep_presets.hh"

#include <algorithm>
#include <array>
#include <cstdio>

#include "net/eth_switch.hh"
#include "sim/topology.hh"

namespace cdna::sim::presets {

namespace {

core::SystemConfig
xenIntelG(std::uint32_t g)
{
    return core::SystemConfig::xenIntel(g);
}

core::SystemConfig
cdnaG(std::uint32_t g)
{
    return core::SystemConfig::cdna(g);
}

} // namespace

ExperimentSpec
table1()
{
    auto xen = core::SystemConfig::xenIntel(1);
    xen.numNics = 6;
    return ExperimentSpec("table1")
        .config("native", core::SystemConfig::native(6))
        .config("xen", xen)
        .directions(true, true);
}

ExperimentSpec
table2()
{
    return ExperimentSpec("table2")
        .config("xen-intel", core::SystemConfig::xenIntel(1))
        .config("xen-ricenic", core::SystemConfig::xenRice(1))
        .config("cdna", core::SystemConfig::cdna(1));
}

ExperimentSpec
table3()
{
    return ExperimentSpec("table3")
        .config("xen-intel", core::SystemConfig::xenIntel(1))
        .config("xen-ricenic", core::SystemConfig::xenRice(1))
        .config("cdna", core::SystemConfig::cdna(1))
        .directions(false, true);
}

ExperimentSpec
table4()
{
    return ExperimentSpec("table4")
        .config("cdna", core::SystemConfig::cdna(1))
        .directions(true, true)
        .vary("protection",
              {{"prot",
                [](core::SystemConfig &c) { c.withProtection(true); }},
               {"noprot",
                [](core::SystemConfig &c) { c.withProtection(false); }}});
}

ExperimentSpec
fig3()
{
    return ExperimentSpec("fig3")
        .config("xen", xenIntelG)
        .config("cdna", cdnaG)
        .guests({1, 2, 4, 8, 12, 16, 20, 24});
}

ExperimentSpec
fig4()
{
    return ExperimentSpec("fig4")
        .config("xen", xenIntelG)
        .config("cdna", cdnaG)
        .guests({1, 2, 4, 8, 12, 16, 20, 24})
        .directions(false, true);
}

ExperimentSpec
latency()
{
    using Cfg = core::SystemConfig;
    namespace wl = net::workload;
    // Tail latency of a Poisson request/response RPC workload: peers
    // fire 512 B requests at the guests, which answer with 8 KB
    // responses; the engines histogram request-to-last-response-byte
    // and the report carries p50/p99/p999.  The xen column rides the
    // RiceNIC so the fwreboot fault has firmware to reboot (and dom0
    // funnels every guest, so both outage classes stall all four).
    auto rpcLoad = [](double rate) {
        return [rate](Cfg &c) {
            c.withWorkload(wl::WorkloadSpec{}.withClass(
                wl::FlowClass::rpc(512, 8192)
                    .poissonAt(rate)
                    .timingOutAfter(sim::milliseconds(50))));
        };
    };
    auto oversub = core::SystemConfig::cdna(4).withNics(1).receive();
    oversub.cdnaParams.numContexts = 2; // 4 guests over 2 slots
    oversub.oversubscribed();
    return ExperimentSpec("latency")
        .config("xen", core::SystemConfig::xenRice(4).withNics(1).receive())
        .config("cdna", core::SystemConfig::cdna(4).withNics(1).receive())
        .config("cdna-oversub", oversub)
        .config("swpt",
                core::SystemConfig::swPassthrough(4).withNics(1).receive())
        .vary("load",
              {{"load2k", rpcLoad(2000.0)}, {"load10k", rpcLoad(10000.0)}})
        .vary("fault",
              {{"healthy", [](Cfg &) {}},
               {"domkill",
                [](Cfg &c) {
                    c.withFaults(core::FaultPlan{}.killingDriverDomain(150));
                }},
               {"fwreboot", [](Cfg &c) {
                    c.withFaults(core::FaultPlan{}.rebootingFirmware(0, 150));
                }}});
}

ExperimentSpec
coalesce()
{
    std::vector<std::pair<std::string, ExperimentSpec::Mutator>> windows;
    for (double us : {18.0, 36.0, 72.0, 145.0, 290.0, 580.0}) {
        char label[32];
        std::snprintf(label, sizeof(label), "w%.0fus", us);
        windows.emplace_back(label, [us](core::SystemConfig &c) {
            c.costs.cdnaCoalesce.delay = sim::microseconds(us);
        });
    }
    return ExperimentSpec("coalesce")
        .config("cdna", core::SystemConfig::cdna(1))
        .vary("window", std::move(windows));
}

ExperimentSpec
protectionAblation()
{
    using Cfg = core::SystemConfig;
    return ExperimentSpec("protection")
        .config("cdna", core::SystemConfig::cdna(1))
        .vary("variant",
              {{"full", [](Cfg &) {}},
               {"free-validate",
                [](Cfg &c) { c.costs.protValidatePerPage = 0; }},
               {"free-pin",
                [](Cfg &c) {
                    c.costs.protPinPerPage = 0;
                    c.costs.protUnpinPerPage = 0;
                }},
               {"free-enqueue",
                [](Cfg &c) { c.costs.protEnqueuePerDesc = 0; }},
               {"free-hypercall",
                [](Cfg &c) { c.costs.hv.hypercallOverhead = 0; }},
               {"disabled", [](Cfg &c) { c.withProtection(false); }}});
}

ExperimentSpec
contexts()
{
    return ExperimentSpec("contexts")
        .config("cdna1nic",
                [](std::uint32_t g) {
                    return core::SystemConfig::cdna(g).withNics(1);
                })
        .guests({1, 2, 4, 8, 16, 24, 30})
        .probe([](core::System &sys, const RunPoint &,
                  std::map<std::string, double> &extra) {
            extra["fw_util"] =
                sys.cdnaNic(0)->firmwareUtilization(sys.cpu().elapsed());
        });
}

ExperimentSpec
iommu()
{
    using Mode = mem::Iommu::Mode;
    return ExperimentSpec("iommu")
        .config("swprot", core::SystemConfig::cdna(2))
        .config("noprot-noiommu",
                core::SystemConfig::cdna(2).withProtection(false))
        .config("percontext", core::SystemConfig::cdna(2)
                                  .withProtection(false)
                                  .withIommu(Mode::kPerContext))
        .config("perdevice", core::SystemConfig::cdna(2)
                                 .withProtection(false)
                                 .withIommu(Mode::kPerDevice))
        // The per-device IOMMU can hold only one binding per NIC; bind
        // every NIC to guest 0, which blocks guest 1's DMA -- the
        // section 5.3 argument that per-device granularity cannot
        // express per-guest contexts.
        .setup([](core::System &sys, const RunPoint &) {
            if (sys.config().iommuMode != Mode::kPerDevice)
                return;
            for (std::uint32_t i = 0; i < sys.nicCount(); ++i)
                sys.iommu()->bindDevice(i, sys.guestDomain(0)->id());
        })
        .probe([](core::System &sys, const RunPoint &,
                  std::map<std::string, double> &extra) {
            extra["iommu_blocked"] =
                sys.iommu()
                    ? static_cast<double>(sys.iommu()->blockedCount())
                    : 0.0;
        });
}

ExperimentSpec
flipcopy()
{
    return ExperimentSpec("flipcopy")
        .config("xen-flip",
                [](std::uint32_t g) {
                    return core::SystemConfig::xenIntel(g).receive();
                })
        .config("xen-copy",
                [](std::uint32_t g) {
                    return core::SystemConfig::xenIntel(g).receive().withRxCopy(
                        true);
                })
        .config("cdna",
                [](std::uint32_t g) {
                    return core::SystemConfig::cdna(g).receive();
                })
        .guests({1, 8});
}

ExperimentSpec
tcpLoss()
{
    using Cfg = core::SystemConfig;
    std::vector<std::pair<std::string, ExperimentSpec::Mutator>> loss;
    loss.emplace_back("drop0", [](Cfg &) {});
    for (double rate : {0.0001, 0.001, 0.01}) {
        char label[32];
        std::snprintf(label, sizeof(label), "drop%g", rate);
        loss.emplace_back(label, [rate](Cfg &c) {
            c.withFaults(core::FaultPlan{}.dropping(rate));
        });
    }
    loss.emplace_back("corrupt0.001", [](Cfg &c) {
        c.withFaults(core::FaultPlan{}.corrupting(0.001));
    });
    return ExperimentSpec("tcp-loss")
        .config("xen", core::SystemConfig::xenIntel(1).transport(core::kTcp))
        .config("cdna", core::SystemConfig::cdna(1).transport(core::kTcp))
        .config("swpt",
                core::SystemConfig::swPassthrough(1).transport(core::kTcp))
        .vary("loss", std::move(loss));
}

ExperimentSpec
availability()
{
    using Cfg = core::SystemConfig;
    return ExperimentSpec("availability")
        .config("xen", core::SystemConfig::xenIntel(2).transport(core::kTcp))
        // The firmware-reboot column needs a firmware NIC behind dom0:
        // Xen/RiceNIC funnels every guest through the driver domain's
        // single context, so one firmware reboot stalls them all.
        .config("xen-rice",
                core::SystemConfig::xenRice(2).transport(core::kTcp))
        .config("cdna", core::SystemConfig::cdna(2).transport(core::kTcp))
        // The swpt column stresses both outage classes: a driver-domain
        // kill stalls the hypervisor validator (all guests down), and a
        // firmware reboot resets the one shared Intel NIC.
        .config("swpt",
                core::SystemConfig::swPassthrough(2).transport(core::kTcp))
        .vary("fault",
              {{"healthy", [](Cfg &) {}},
               {"domkill",
                [](Cfg &c) {
                    c.withFaults(core::FaultPlan{}.killingDriverDomain(150));
                }},
               {"fwreboot", [](Cfg &c) {
                    c.withFaults(core::FaultPlan{}.rebootingFirmware(0, 150));
                }}});
}

ExperimentSpec
oversub()
{
    // Scaling past the paper's 32 hardware contexts: plain CDNA refuses
    // to boot more than 32 guests per NIC, so the "cdna" series enables
    // the virtual-context fallback only where it must, while
    // "cdna-oversub" always runs through the pager.  Guest counts reach
    // 8x the slot count; the measurement window is short because the
    // 256-guest cells are large.
    return ExperimentSpec("oversub")
        .config("xen",
                [](std::uint32_t g) {
                    return core::SystemConfig::xenIntel(g).withNics(1);
                })
        .config("cdna",
                [](std::uint32_t g) {
                    auto c = core::SystemConfig::cdna(g).withNics(1);
                    if (g > nic::kMaxContexts)
                        c.oversubscribed(); // exhaustion fallback
                    return c;
                })
        .config("cdna-oversub",
                [](std::uint32_t g) {
                    return core::SystemConfig::cdna(g)
                        .withNics(1)
                        .oversubscribed();
                })
        .guests({8, 16, 32, 64, 128, 256})
        .warmup(sim::milliseconds(5))
        .measure(sim::milliseconds(20))
        .probe([](core::System &sys, const RunPoint &,
                  std::map<std::string, double> &extra) {
            const core::CdnaNic *nic = sys.cdnaNic(0);
            extra["cxt_traps"] =
                nic ? static_cast<double>(nic->pageTraps()) : 0.0;
            extra["cxt_evictions"] =
                nic ? static_cast<double>(nic->pageEvictions()) : 0.0;
            extra["cxt_resident_peak"] =
                nic ? static_cast<double>(nic->residentPeak()) : 0.0;
        });
}

namespace {

/** Snapshot of one sender-side TCP flow for windowed deltas. */
struct FlowBase
{
    std::uint64_t acked = 0;
    std::uint64_t retrans = 0;
};

FlowBase
flowNow(net::TrafficPeer &peer)
{
    const net::transport::TcpEndpoint *tcp = peer.tcp();
    return {tcp->sndUnaTotal(), tcp->retransSegs()};
}

} // namespace

ExperimentSpec
incast()
{
    using Cfg = core::SystemConfig;
    std::vector<std::pair<std::string, ExperimentSpec::Mutator>> fanouts;
    for (std::uint32_t n : {2u, 4u, 8u, 16u}) {
        char label[16];
        std::snprintf(label, sizeof(label), "f%u", n);
        fanouts.emplace_back(label, [n](Cfg &c) {
            c.withScenario("fanout", static_cast<double>(n));
        });
    }
    return ExperimentSpec("incast")
        .config("xen", core::SystemConfig::xenIntel(1)
                           .receive()
                           .withNics(1)
                           .transport(core::kTcp))
        .config("cdna", core::SystemConfig::cdna(1)
                            .receive()
                            .withNics(1)
                            .transport(core::kTcp))
        .config("swpt", core::SystemConfig::swPassthrough(1)
                            .receive()
                            .withNics(1)
                            .transport(core::kTcp))
        .vary("fanout", std::move(fanouts))
        .vary("buffer",
              {{"buf32k",
                [](Cfg &c) {
                    c.withScenario("switch_buf_bytes", 32.0 * 1024.0);
                }},
               {"buf256k",
                [](Cfg &c) {
                    c.withScenario("switch_buf_bytes", 256.0 * 1024.0);
                }}})
        .warmup(sim::milliseconds(10))
        .measure(sim::milliseconds(40))
        .runner([](const RunPoint &point,
                   std::map<std::string, double> &extra) {
            const Cfg &cfg = point.config;
            auto fanout =
                static_cast<std::uint32_t>(cfg.scenarioOr("fanout", 4.0));
            net::EthSwitchParams sw_params;
            sw_params.bufBytesPerPort = static_cast<std::uint64_t>(
                cfg.scenarioOr("switch_buf_bytes",
                               static_cast<double>(
                                   cfg.costs.switchBufBytesPerPort)));
            sw_params.forwardLatency = cfg.costs.switchForwardLatency;

            Topology topo(cfg.seed);
            auto &sw = topo.addSwitch("sw", fanout + 1, sw_params);
            auto &host = topo.addHost(cfg, {&sw});
            std::vector<net::TrafficPeer *> senders;
            for (std::uint32_t i = 0; i < fanout; ++i) {
                auto &p = topo.addPeer("snd" + std::to_string(i), sw);
                senders.push_back(&p);
            }
            topo.ctx().events().schedule(
                sim::milliseconds(1), [&host, &senders, &cfg] {
                    for (auto *p : senders)
                        p->applyWorkload(
                            net::workload::WorkloadSpec{}
                                .overTcp(cfg.tcpParams)
                                .toward({host.guestMac(0, 0)})
                                .withClass(
                                    net::workload::FlowClass::saturating()));
                });

            std::vector<FlowBase> base(senders.size());
            topo.run(point.warmup, point.measure, [&] {
                for (std::size_t i = 0; i < senders.size(); ++i)
                    base[i] = flowNow(*senders[i]);
            });

            double secs = sim::toSeconds(point.measure);
            double lo = 0.0, hi = 0.0, sum = 0.0;
            std::uint64_t retrans = 0;
            for (std::size_t i = 0; i < senders.size(); ++i) {
                FlowBase end = flowNow(*senders[i]);
                double mbps = static_cast<double>(end.acked -
                                                  base[i].acked) *
                              8.0 / secs / 1.0e6;
                lo = i == 0 ? mbps : std::min(lo, mbps);
                hi = std::max(hi, mbps);
                sum += mbps;
                retrans += end.retrans - base[i].retrans;
            }
            extra["flow_mbps_min"] = lo;
            extra["flow_mbps_mean"] =
                sum / static_cast<double>(senders.size());
            extra["flow_mbps_max"] = hi;
            extra["sender_retrans"] = static_cast<double>(retrans);
            return topo.report(host);
        });
}

ExperimentSpec
noisyNeighbor()
{
    using Cfg = core::SystemConfig;
    return ExperimentSpec("noisy-neighbor")
        .config("xen", core::SystemConfig::xenIntel(1)
                           .receive()
                           .withNics(1)
                           .transport(core::kTcp))
        .config("cdna", core::SystemConfig::cdna(1)
                            .receive()
                            .withNics(1)
                            .transport(core::kTcp))
        .vary("neighbor",
              {{"alone", [](Cfg &) {}},
               {"noisy",
                [](Cfg &c) { c.withScenario("noisy", 1.0); }}})
        .warmup(sim::milliseconds(10))
        .measure(sim::milliseconds(40))
        .runner([](const RunPoint &point,
                   std::map<std::string, double> &extra) {
            const Cfg &cfg = point.config;
            bool noisy = cfg.scenarioOr("noisy", 0.0) != 0.0;
            net::EthSwitchParams sw_params;
            sw_params.bufBytesPerPort = cfg.costs.switchBufBytesPerPort;
            sw_params.forwardLatency = cfg.costs.switchForwardLatency;

            Topology topo(cfg.seed);
            auto &core_sw = topo.addSwitch("core", 4, sw_params);
            auto &access = topo.addSwitch("access", 4, sw_params);
            auto &trunk = topo.link(core_sw, access);
            auto &victim = topo.addHost(cfg, {&access});
            auto &other = topo.addHost(
                core::SystemConfig::cdna(1).receive().withNics(1),
                {&access});
            auto &vsrc = topo.addPeer("vsrc", core_sw);
            auto &nsrc = topo.addPeer("nsrc", core_sw);
            core_sw.setRoute(victim.guestMac(0, 0), trunk.portOnA());
            core_sw.setRoute(other.guestMac(0, 0), trunk.portOnA());
            access.setRoute(vsrc.mac(), trunk.portOnB());
            access.setRoute(nsrc.mac(), trunk.portOnB());

            topo.ctx().events().schedule(
                sim::milliseconds(1),
                [&victim, &other, &vsrc, &nsrc, &cfg, noisy] {
                    vsrc.applyWorkload(
                        net::workload::WorkloadSpec{}
                            .overTcp(cfg.tcpParams)
                            .toward({victim.guestMac(0, 0)})
                            .withClass(
                                net::workload::FlowClass::saturating()));
                    if (noisy)
                        nsrc.applyWorkload(
                            net::workload::WorkloadSpec{}
                                .toward({other.guestMac(0, 0)})
                                .withClass(
                                    net::workload::FlowClass::saturating()));
                });

            FlowBase base;
            std::uint64_t drops0 = 0;
            topo.run(point.warmup, point.measure, [&] {
                base = flowNow(vsrc);
                drops0 = core_sw.totalDrops();
            });
            FlowBase end = flowNow(vsrc);
            extra["victim_flow_mbps"] =
                static_cast<double>(end.acked - base.acked) * 8.0 /
                sim::toSeconds(point.measure) / 1.0e6;
            extra["victim_retrans"] =
                static_cast<double>(end.retrans - base.retrans);
            extra["trunk_drops"] =
                static_cast<double>(core_sw.totalDrops() - drops0);
            return topo.report(victim);
        });
}

ExperimentSpec
swpt()
{
    // The three-way headline: as guest count grows, every architecture
    // multiplexes the same single NIC, but they pay differently --
    // Xen in driver-domain copies, CDNA in per-guest hardware contexts,
    // swpt in doorbell traps + per-descriptor validation.  The swpt_*
    // report keys localize the software cost so the crossover against
    // CDNA is readable directly from the sweep.
    return ExperimentSpec("swpt")
        .config("xen",
                [](std::uint32_t g) {
                    return core::SystemConfig::xenIntel(g).withNics(1);
                })
        .config("cdna",
                [](std::uint32_t g) {
                    return core::SystemConfig::cdna(g).withNics(1);
                })
        .config("swpt",
                [](std::uint32_t g) {
                    return core::SystemConfig::swPassthrough(g).withNics(1);
                })
        .guests({1, 2, 4, 8, 16})
        .directions(true, true)
        .probe([](core::System &sys, const RunPoint &,
                  std::map<std::string, double> &extra) {
            const vmm::SwptValidator *v = sys.swptValidator(0);
            extra["swpt_traps"] =
                v ? static_cast<double>(v->doorbellTraps()) : 0.0;
            extra["swpt_validated"] =
                v ? static_cast<double>(v->descValidated()) : 0.0;
        });
}

namespace {

/** The nine execution-profile columns of the paper's Tables 2-4. */
constexpr std::array<const char *, 9> kProfile = {
    "mbps",         "hyp_pct",          "drv_os_pct",
    "drv_user_pct", "guest_os_pct",     "guest_user_pct",
    "idle_pct",     "drv_intr_per_sec", "guest_intr_per_sec"};

/** Paper rows for whole Tables 2-4 lines: one value per kProfile key. */
std::vector<PaperRow>
profileRows(
    std::initializer_list<
        std::pair<const char *, std::array<double, kProfile.size()>>>
        lines)
{
    std::vector<PaperRow> rows;
    for (const auto &[cell, values] : lines)
        for (std::size_t i = 0; i < values.size(); ++i)
            rows.push_back({cell, kProfile[i], values[i]});
    return rows;
}

} // namespace

const std::vector<Preset> &
all()
{
    static const std::vector<Preset> presets = {
        {.name = "table1",
         .make = table1,
         .columns = {"mbps"},
         .paper = {{"native/tx", "mbps", 5126},
                   {"native/rx", "mbps", 3629},
                   {"xen/tx", "mbps", 1602},
                   {"xen/rx", "mbps", 1112}}},
        {.name = "table2",
         .make = table2,
         .columns = {kProfile.begin(), kProfile.end()},
         .paper = profileRows(
             {{"xen-intel",
               {1602, 19.8, 35.7, 0.8, 39.7, 1.0, 3.0, 7438, 7853}},
              {"xen-ricenic",
               {1674, 13.7, 41.5, 0.5, 39.5, 1.0, 3.8, 8839, 5661}},
              {"cdna",
               {1867, 10.2, 0.3, 0.2, 37.8, 0.7, 50.8, 0, 13659}}})},
        {.name = "table3",
         .make = table3,
         .columns = {kProfile.begin(), kProfile.end()},
         .paper = profileRows(
             {{"xen-intel/rx",
               {1112, 25.7, 36.8, 0.5, 31.0, 1.0, 5.0, 11138, 5193}},
              {"xen-ricenic/rx",
               {1075, 30.6, 39.4, 0.6, 28.8, 0.6, 0.0, 10946, 5163}},
              {"cdna/rx",
               {1874, 9.9, 0.3, 0.2, 48.0, 0.7, 40.9, 0, 7402}}})},
        {.name = "table4",
         .make = table4,
         .columns = {kProfile.begin(), kProfile.end()},
         .paper = profileRows(
             {{"cdna/tx/prot",
               {1867, 10.2, 0.3, 0.2, 37.8, 0.7, 50.8, 0, 13659}},
              {"cdna/tx/noprot",
               {1867, 1.9, 0.2, 0.2, 37.0, 0.3, 60.4, 0, 13680}},
              {"cdna/rx/prot",
               {1874, 9.9, 0.3, 0.2, 48.0, 0.7, 40.9, 0, 7402}},
              {"cdna/rx/noprot",
               {1874, 1.9, 0.2, 0.2, 47.2, 0.3, 50.2, 0, 7243}}})},
        // Figures 3-4 observe the smallest CDNA run: its trace stays
        // readable and exercises every lane (CPU, hypervisor, NIC, DMA
        // protection).
        {.name = "fig3",
         .make = fig3,
         .columns = {"mbps", "idle_pct"},
         .paper = {{"xen/g1", "mbps", 1602},
                   {"xen/g24", "mbps", 891},
                   {"cdna/g1", "mbps", 1867},
                   {"cdna/g1", "idle_pct", 50.8},
                   {"cdna/g2", "idle_pct", 25.4},
                   {"cdna/g4", "idle_pct", 5.9},
                   {"cdna/g8", "idle_pct", 0.0}},
         .ratios = {{"xen/g1", "xen/g24", "mbps", 1602.0 / 891.0},
                    {"cdna/g24", "xen/g24", "mbps", 2.1}},
         .observe = "cdna/g1"},
        {.name = "fig4",
         .make = fig4,
         .columns = {"mbps", "idle_pct"},
         .paper = {{"xen/g1/rx", "mbps", 1112},
                   {"xen/g24/rx", "mbps", 558},
                   {"cdna/g1/rx", "mbps", 1874},
                   {"cdna/g1/rx", "idle_pct", 40.9},
                   {"cdna/g2/rx", "idle_pct", 29.1},
                   {"cdna/g4/rx", "idle_pct", 12.6},
                   {"cdna/g8/rx", "idle_pct", 0.0}},
         .ratios = {{"xen/g1/rx", "xen/g24/rx", "mbps", 1112.0 / 558.0},
                    {"cdna/g24/rx", "xen/g24/rx", "mbps", 3.3}},
         .observe = "cdna/g1/rx"},
        {.name = "latency",
         .make = latency,
         .columns = {"rpc_offered_rps", "rpc_achieved_rps",
                     "rpc_lat_p50_us", "rpc_lat_p99_us", "rpc_lat_p999_us",
                     "rpc_timeouts"},
         .ratios = {{"xen/load10k/healthy", "cdna/load10k/healthy",
                     "rpc_lat_p99_us"},
                    {"xen/load10k/healthy", "cdna/load10k/healthy",
                     "rpc_lat_p999_us"}},
         .observe = "xen/load10k/healthy"},
        // The default 145 us window is the paper's TX operating point.
        {.name = "coalesce",
         .make = coalesce,
         .columns = {"mbps", "guest_intr_per_sec", "idle_pct", "hyp_pct"},
         .paper = {{"cdna/w145us", "guest_intr_per_sec", 13659}}},
        // The end points are Table 4's TX rows.
        {.name = "protection",
         .make = protectionAblation,
         .columns = {"mbps", "hyp_pct", "idle_pct"},
         .paper = {{"cdna/full", "mbps", 1867},
                   {"cdna/full", "hyp_pct", 10.2},
                   {"cdna/full", "idle_pct", 50.8},
                   {"cdna/disabled", "mbps", 1867},
                   {"cdna/disabled", "hyp_pct", 1.9},
                   {"cdna/disabled", "idle_pct", 60.4}}},
        {.name = "contexts",
         .make = contexts,
         .columns = {"mbps", "fw_util", "fairness", "idle_pct"}},
        {.name = "iommu",
         .make = iommu,
         .columns = {"mbps", "hyp_pct", "iommu_blocked", "dma_violations"}},
        // xen-flip/g1 is Table 3's Xen/Intel receive configuration.
        {.name = "flipcopy",
         .make = flipcopy,
         .columns = {kProfile.begin(), kProfile.end()},
         .paper = {{"xen-flip/g1", "mbps", 1112}, {"cdna/g1", "mbps", 1874}}},
        {.name = "tcp-loss",
         .make = tcpLoss,
         .columns = {"mbps", "wire_mbps", "tcp_retrans_segs",
                     "tcp_fast_retransmits", "tcp_rto_events",
                     "rx_drops_bad_csum"},
         .ratios = {{"cdna/drop0.01", "cdna/drop0", "mbps"}},
         .observe = "cdna/drop0.001"},
        {.name = "availability",
         .make = availability,
         .columns = {"mbps", "fe_reconnects", "per_guest_downtime_us",
                     "per_guest_ttfp_us", "pages_quarantined",
                     "quarantine_released", "outage_packets_lost"},
         .observe = "xen/domkill"},
        {.name = "oversub",
         .make = oversub,
         .columns = {"mbps", "cxt_page_traps", "cxt_evictions",
                     "cxt_page_ins", "cxt_resident_peak",
                     "protection_faults"},
         // The paper's NIC holds 32 contexts: the resident ceiling.
         .paper = {{"cdna-oversub/g256", "cxt_resident_peak", 32}},
         .ratios = {{"cdna-oversub/g256", "xen/g256", "mbps"}},
         .observe = "cdna-oversub/g256"},
        {.name = "incast",
         .make = incast,
         .columns = {"mbps", "switch_drops", "sender_retrans",
                     "flow_mbps_min", "flow_mbps_mean",
                     "switch_queue_peak_bytes"},
         .ratios = {{"cdna/f16/buf32k", "cdna/f16/buf256k", "mbps"},
                    {"cdna/f16/buf32k", "cdna/f16/buf256k",
                     "flow_mbps_min"}}},
        {.name = "noisy-neighbor",
         .make = noisyNeighbor,
         .columns = {"mbps", "victim_flow_mbps", "victim_retrans",
                     "trunk_drops"}},
        {.name = "swpt",
         .make = swpt,
         .columns = {"mbps", "hyp_pct", "swpt_doorbell_traps",
                     "swpt_validation_us"},
         .ratios = {{"swpt/g16/tx", "cdna/g16/tx", "mbps"},
                    {"swpt/g16/rx", "cdna/g16/rx", "mbps"},
                    {"swpt/g16/rx", "xen/g16/rx", "mbps"}},
         .observe = "swpt/g4/tx"},
    };
    return presets;
}

const Preset *
find(const std::string &name)
{
    for (const Preset &p : all())
        if (p.name == name)
            return &p;
    return nullptr;
}

std::optional<ExperimentSpec>
byName(const std::string &name)
{
    const Preset *p = find(name);
    return p ? std::optional<ExperimentSpec>(p->make()) : std::nullopt;
}

} // namespace cdna::sim::presets
