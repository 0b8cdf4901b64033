#include "core/system.hh"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>

#include "sim/assert.hh"

namespace cdna::core {

System::System(SystemConfig cfg) : System(std::move(cfg), nullptr, {})
{
}

System::System(SystemConfig cfg, sim::SimContext &shared,
               std::vector<net::Fabric *> nic_fabrics)
    : System(std::move(cfg), &shared, std::move(nic_fabrics))
{
}

System::System(SystemConfig cfg, sim::SimContext *shared,
               std::vector<net::Fabric *> nic_fabrics)
    : cfg_(std::move(cfg)),
      ownedCtx_(shared ? nullptr
                       : std::make_unique<sim::SimContext>(cfg_.seed)),
      ctx_(shared ? *shared : *ownedCtx_),
      extFabrics_(std::move(nic_fabrics))
{
    // Guest/driver MAC blocks are 1 Mi ids apart; cap hostId well clear
    // of the 0xFE0000 range traffic peers hash their names into.
    SIM_ASSERT(cfg_.hostId <= 12, "hostId out of range for the MAC plan");
    ownObjects_.first = ctx_.objects().size();
    // Install the injector before any component is built so fault
    // hooks (driver watchdogs, link faults) see it from the start.  An
    // empty plan installs nothing, keeping the run bit-identical to a
    // fault-free build.  The injector is context-global, so in a shared
    // topology at most one host may carry a fault plan.
    if (!cfg_.faults.empty()) {
        SIM_ASSERT(ctx_.faultInjector() == nullptr,
                   "shared context already has a fault plan installed");
        faults_ = std::make_unique<sim::FaultInjector>(
            ctx_, nm("faults"), cfg_.seed, cfg_.faults.rates());
        ctx_.setFaultInjector(faults_.get());
    }
    arch_ = IoArch::create(*this);
    buildCommon();
    arch_->build();
    startTimers();
    registerGauges();
    if (faults_) {
        setupAvailability();
        scheduleFaultEvents();
    }
    ownObjects_.second = ctx_.objects().size();
}

System::~System()
{
    if (faults_ && ctx_.faultInjector() == faults_.get())
        ctx_.setFaultInjector(nullptr);
}

net::MacAddr
System::guestMac(std::uint32_t guest, std::uint32_t nic) const
{
    // Host 0 is bit-identical to the classic single-host layout; other
    // hosts shift into disjoint 1 Mi-id blocks of the 24-bit MAC space.
    return net::MacAddr::fromId(cfg_.hostId * 0x00100000u + 0x010000u +
                                guest * 256u + nic);
}

net::MacAddr
System::driverMac(std::uint32_t nic) const
{
    return net::MacAddr::fromId(cfg_.hostId * 0x00100000u + 0x020000u + nic);
}

net::Port &
System::nicPort(std::uint32_t i)
{
    return nics_[i]->port();
}

void
System::buildCommon()
{
    mem_ = std::make_unique<mem::PhysMemory>(ctx_, cfg_.memoryPages,
                                             nm("phys-mem"));
    cpu_ = std::make_unique<cpu::SimCpu>(ctx_, nm("cpu0"),
                                         cfg_.costs.cpuParams);
    hv_ = std::make_unique<vmm::Hypervisor>(ctx_, *cpu_, *mem_,
                                            cfg_.costs.hv, cfg_.namePrefix);
    if (cfg_.iommuMode != mem::Iommu::Mode::kNone)
        iommu_ = std::make_unique<mem::Iommu>(ctx_, *mem_, cfg_.iommuMode,
                                              nm("iommu"));

    for (std::uint32_t i = 0; i < cfg_.numNics; ++i) {
        std::string suffix = std::to_string(i);
        buses_.push_back(
            std::make_unique<mem::PciBus>(ctx_, nm("pci" + suffix)));
        net::Fabric *fab = nullptr;
        if (nicExternal(i)) {
            // The topology builder owns the fabric (and whatever peers
            // sit on its far ports); this NIC only binds a port.
            links_.push_back(nullptr);
            peers_.push_back(nullptr);
            fab = extFabrics_[i];
        } else {
            links_.push_back(
                std::make_unique<net::EthLink>(ctx_, nm("eth" + suffix)));
            peers_.push_back(std::make_unique<net::TrafficPeer>(
                ctx_, nm("peer" + suffix), *links_.back()));
            net::workload::WorkloadSpec knobs;
            knobs.ackingEvery(cfg_.costs.ackPerFrames);
            if (cfg_.transportKind == TransportKind::kTcp)
                knobs.overTcp(cfg_.tcpParams);
            peers_.back()->applyWorkload(knobs);
            fab = links_.back().get();
        }
        if (arch_->nicModel() == NicModel::kIntel) {
            auto params = cfg_.intelParams;
            params.coalesce = cfg_.costs.intelCoalesce;
            nics_.push_back(std::make_unique<nic::IntelNic>(
                ctx_, nm("intel" + suffix), *buses_.back(), *mem_, i,
                *fab, params));
        } else {
            auto params = cfg_.cdnaParams;
            params.coalesce = cfg_.transmitDir ? cfg_.costs.cdnaCoalesce
                                               : cfg_.costs.cdnaCoalesceRx;
            params.seqnoCheck = cfg_.dmaProtection;
            arch_->tuneCdnaNic(params);
            nics_.push_back(std::make_unique<CdnaNic>(
                ctx_, nm("cdna" + suffix), *buses_.back(), *mem_, i,
                *fab, params));
        }
        if (iommu_)
            nics_.back()->dma().setIommu(iommu_.get());
    }
}

void
System::registerGauges()
{
    // Utilization gauges report the busy fraction since the previous
    // sample as a percentage; each keeps the prior cumulative value.
    // resetAccounting() can move cumulative time backwards, which
    // restarts the delta from the post-reset value.  All callbacks are
    // read-only with respect to simulated state, so sampling cannot
    // perturb results.
    auto util_pct = [this](std::function<sim::Time()> busy_time) {
        return [this, busy_time = std::move(busy_time), prev = sim::Time{0},
                prevAt = sim::Time{0}]() mutable {
            sim::Time busy = busy_time();
            sim::Time at = ctx_.events().now();
            double pct = busy < prev || at <= prevAt
                             ? 0.0
                             : 100.0 * static_cast<double>(busy - prev) /
                                   static_cast<double>(at - prevAt);
            prev = busy;
            prevAt = at;
            return pct;
        };
    };

    for (const auto &dom : hv_->domains()) {
        const vmm::Domain *d = dom.get();
        metrics_.addGauge("cpu." + d->name() + ".util_pct",
                          util_pct([this, d] {
                              const auto &prof = cpu_->profile();
                              return prof.domainTime(d->id(),
                                                     cpu::Bucket::kOs) +
                                     prof.domainTime(d->id(),
                                                     cpu::Bucket::kUser);
                          }));
    }
    metrics_.addGauge("cpu.hypervisor_pct", util_pct([this] {
                          return cpu_->profile().hypervisor();
                      }));
    metrics_.addGauge("cpu.idle_pct", util_pct([this] {
                          cpu_->syncIdle(); // flush the in-progress span
                          return cpu_->profile().idle();
                      }));

    for (std::uint32_t i = 0; i < nicCount(); ++i) {
        CdnaNic *nic = cdnaNic(i);
        if (!nic)
            continue;
        metrics_.addGauge("nic." + nic->name() + ".fw_util_pct",
                          util_pct([nic] { return nic->firmwareBusyTime(); }));
        metrics_.addGauge(
            "nic." + nic->name() + ".intr_ring_occupancy", [nic] {
                const InterruptRing *ring = nic->interruptRing();
                if (!ring)
                    return 0.0;
                return static_cast<double>(ring->producer() -
                                           ring->consumer());
            });
    }
    if (DmaProtection *prot = protection()) {
        metrics_.addGauge("protection.pinned_pages", [prot] {
            return static_cast<double>(prot->pagesPinned() -
                                       prot->pagesUnpinned());
        });
    }
    metrics_.addGauge("sim.pending_events", [this] {
        return static_cast<double>(ctx_.events().pendingCount());
    });
    // cwnd trajectories, one gauge per transport endpoint.
    for (const auto &st : stacks_)
        if (net::transport::TcpEndpoint *t = st->tcp())
            metrics_.addGauge(t->name() + ".cwnd_bytes",
                              [t] { return t->cwndBytes(); });
    for (const auto &p : peers_)
        if (p)
            if (net::transport::TcpEndpoint *t = p->tcp())
                metrics_.addGauge(t->name() + ".cwnd_bytes",
                                  [t] { return t->cwndBytes(); });
}

void
System::plumbGuest(std::uint32_t g, std::uint32_t i, os::NetDevice &dev)
{
    std::string id = std::to_string(g) + "." + std::to_string(i);
    stacks_.push_back(std::make_unique<os::NetStack>(
        ctx_, nm("stack" + id), *guests_[g], dev, cfg_.costs));
    if (peers_[i])
        stacks_.back()->setDefaultDst(peers_[i]->mac());
    if (cfg_.transportKind == TransportKind::kTcp)
        stacks_.back()->enableTcp(cfg_.tcpParams);
    workload::TrafficApp::Params ap;
    ap.connections = cfg_.connectionsPerVif;
    ap.transmit = cfg_.transmitDir;
    ap.rpcServer = cfg_.workload.hasRpc();
    apps_.push_back(std::make_unique<workload::TrafficApp>(
        ctx_, nm("app" + id), *stacks_.back(), cfg_.costs, ap));
}

void
System::startTimers()
{
    sim::Time period = sim::kSecond / cfg_.costs.timerHz;
    sim::Time cost = cfg_.costs.timerTickCost;
    for (const auto &dom : hv_->domains())
        domainTimerStopped_.resize(
            std::max<std::size_t>(domainTimerStopped_.size(),
                                  dom->id() + 1),
            0);
    for (const auto &dom : hv_->domains()) {
        vmm::Domain *d = dom.get();
        // The System owns the tick callback; the lambda captures a raw
        // pointer to reschedule itself without a shared_ptr cycle.  A
        // killed domain's tick stops rescheduling (killGuest).
        timerTicks_.push_back(std::make_unique<std::function<void()>>());
        std::function<void()> *tick = timerTicks_.back().get();
        *tick = [this, d, period, cost, tick] {
            if (domainTimerStopped_[d->id()])
                return;
            d->vcpu().post(cpu::Bucket::kOs, cost);
            ctx_.events().schedule(period, *tick);
        };
        sim::Time phase = sim::microseconds(137.0) * d->id();
        ctx_.events().schedule(phase + period, *tick);
    }
}

void
System::start()
{
    if (started_)
        return;
    started_ = true;
    for (auto &app : apps_)
        app->start();
    auto guest_macs = [this](std::uint32_t nic) {
        std::vector<net::MacAddr> macs;
        for (std::uint32_t g = 0; g < guests_.size(); ++g)
            macs.push_back(guestMac(g, nic));
        return macs;
    };
    if (!cfg_.workload.empty()) {
        // Declarative workload: each local peer runs the spec against
        // the guests' MACs (or the spec's explicit targets), started
        // once the guests have had a moment to post RX buffers.  The
        // system seed replaces the spec seed so sweeps that vary only
        // the seed stay deterministic without touching the spec.
        for (std::uint32_t i = 0; i < cfg_.numNics; ++i) {
            net::TrafficPeer *p = peers_[i].get();
            if (!p)
                continue; // external fabric: the topology drives sources
            net::workload::WorkloadSpec spec = cfg_.workload;
            spec.seed = cfg_.seed;
            if (spec.targets.empty())
                spec.targets = guest_macs(i);
            ctx_.events().schedule(sim::milliseconds(1.0),
                                   [p, spec = std::move(spec)] {
                                       p->applyWorkload(spec);
                                   });
        }
    } else if (!cfg_.transmitDir) {
        // Receive experiments: the peer floods the guests' MACs at line
        // rate once the guests have had a moment to post RX buffers.
        for (std::uint32_t i = 0; i < cfg_.numNics; ++i) {
            net::TrafficPeer *p = peers_[i].get();
            if (!p)
                continue; // external fabric: the topology drives sources
            net::workload::WorkloadSpec flood;
            flood.toward(guest_macs(i))
                .withClass(net::workload::FlowClass::saturating());
            ctx_.events().schedule(sim::milliseconds(1.0),
                                   [p, flood = std::move(flood)] {
                                       p->applyWorkload(flood);
                                   });
        }
    }
}

CdnaNic *
System::cdnaNic(std::uint32_t i)
{
    return i < nics_.size() ? dynamic_cast<CdnaNic *>(nics_[i].get())
                            : nullptr;
}

nic::IntelNic *
System::intelNic(std::uint32_t i)
{
    return i < nics_.size() ? dynamic_cast<nic::IntelNic *>(nics_[i].get())
                            : nullptr;
}

vmm::Domain *
System::guestDomain(std::uint32_t g)
{
    return g < guests_.size() ? guests_[g] : nullptr;
}

void
System::scheduleFaultEvents()
{
    for (const auto &fs : cfg_.faults.firmwareStalls) {
        CdnaNic *nic = cdnaNic(fs.nic);
        if (!nic)
            continue; // no CDNA NIC with that index in this mode
        ctx_.events().schedule(
            sim::milliseconds(fs.atMs), [this, nic, fs] {
                faults_->noteFirmwareStall();
                nic->stallFirmware(sim::milliseconds(fs.durMs),
                                   fs.watchdogReset);
            });
    }
    for (const auto &gk : cfg_.faults.guestKills)
        ctx_.events().schedule(sim::milliseconds(gk.atMs),
                               [this, g = gk.guest] { killGuest(g); });
    for (const auto &dk : cfg_.faults.driverDomainKills)
        ctx_.events().schedule(sim::milliseconds(dk.atMs),
                               [this] { killDriverDomain(); });
    for (const auto &fr : cfg_.faults.firmwareReboots)
        ctx_.events().schedule(sim::milliseconds(fr.atMs),
                               [this, nic = fr.nic]
                               { rebootNicFirmware(nic); });
}

void
System::setupAvailability()
{
    // The tracker (and the Xen frontend reconnection watchdogs) exist
    // only when the plan schedules an outage-class fault, so every
    // other configuration keeps its exact event sequence.
    if (cfg_.faults.driverDomainKills.empty() &&
        cfg_.faults.firmwareReboots.empty())
        return;
    auto guests = static_cast<std::uint32_t>(guests_.size());
    avail_ = std::make_unique<AvailabilityTracker>(ctx_, guests,
                                                   nm("availability"));

    // Per-guest progress: any stack of guest g (on any NIC) moving
    // data end-to-end counts, which is what makes a CDNA guest with a
    // surviving path score zero downtime.
    for (std::size_t idx = 0; idx < stacks_.size(); ++idx) {
        auto g = static_cast<std::uint32_t>(idx % guests);
        stacks_[idx]->setProgressHook(
            [this, g] { avail_->noteProgress(g); });
    }
    arch_->trackAvailability(*avail_);
}

bool
System::killDriverDomain()
{
    if (!driverDom_ || driverDomainDown_)
        return false;
    driverDomainDown_ = true;
    if (faults_)
        faults_->noteDriverDomainKill();
    if (avail_)
        avail_->noteOutageStartAll();
    arch_->driverDomainKilled();

    // Revoke every grant mapping the dead domain held.  Pages with DMA
    // possibly in flight sit in quarantine until the drain delay
    // passes; only then do they return to the allocator.
    hv_->grants().revokeMappingsOf(driverDom_->id());
    ctx_.events().schedule(cfg_.costs.dmaQuarantineDrain,
                           [this] { hv_->grants().drainQuarantine(); });

    ctx_.events().schedule(cfg_.costs.driverDomainReboot,
                           [this] { restartDriverDomain(); });
    return true;
}

void
System::restartDriverDomain()
{
    driverDomainDown_ = false;
    arch_->driverDomainRestarted();
    if (faults_)
        faults_->noteDriverDomainRestart();
}

bool
System::rebootNicFirmware(std::uint32_t nic)
{
    return arch_->rebootNicFirmware(nic);
}

bool
System::killGuest(std::uint32_t guest)
{
    if (guest >= guests_.size())
        return false;
    bool any = false;
    for (std::uint32_t i = 0; i < cfg_.numNics; ++i)
        any = arch_->revokeGuest(guest, i) || any;
    if (!any)
        return false;
    // Silence the dead guest's software: stop its workload, cancel
    // every pending transport timer (an armed TCP RTO or delayed ACK
    // would otherwise fire into the dead domain), and stop its timer
    // tick from rescheduling.
    for (std::uint32_t i = 0; i < cfg_.numNics; ++i) {
        app(guest, i).stop();
        stack(guest, i).shutdown();
    }
    auto id = static_cast<std::size_t>(guests_[guest]->id());
    if (id < domainTimerStopped_.size())
        domainTimerStopped_[id] = 1;
    if (faults_)
        faults_->noteGuestKill();
    return true;
}

bool
System::revokeGuestContext(std::uint32_t guest, std::uint32_t nic)
{
    return hasSlot(guest, nic) && arch_->revokeGuest(guest, nic);
}

vmm::SwptValidator *
System::swptValidator(std::uint32_t i)
{
    return arch_->swptValidator(i);
}

os::SwptDriver *
System::swptDriver(std::uint32_t guest, std::uint32_t nic)
{
    return hasSlot(guest, nic)
               ? dynamic_cast<os::SwptDriver *>(&stack(guest, nic).device())
               : nullptr;
}

CdnaGuestDriver *
System::cdnaDriver(std::uint32_t guest, std::uint32_t nic)
{
    return hasSlot(guest, nic)
               ? dynamic_cast<CdnaGuestDriver *>(&stack(guest, nic).device())
               : nullptr;
}

os::NetStack &
System::stack(std::uint32_t guest, std::uint32_t nic)
{
    if (!hasSlot(guest, nic))
        throw std::out_of_range("System::stack: no such guest/NIC");
    return *stacks_[slot(guest, nic)];
}

workload::TrafficApp &
System::app(std::uint32_t guest, std::uint32_t nic)
{
    if (!hasSlot(guest, nic))
        throw std::out_of_range("System::app: no such guest/NIC");
    return *apps_[slot(guest, nic)];
}

namespace {

SystemConfig
inMode(IoMode mode, std::uint32_t guests)
{
    SystemConfig cfg;
    cfg.mode = mode;
    cfg.numGuests = guests;
    return cfg;
}

} // namespace

SystemConfig
SystemConfig::native(std::uint32_t nics)
{
    return inMode(IoMode::kNative, 1).withNics(nics);
}

SystemConfig
SystemConfig::xenIntel(std::uint32_t guests)
{
    return inMode(IoMode::kXenIntel, guests);
}

SystemConfig
SystemConfig::xenRice(std::uint32_t guests)
{
    return inMode(IoMode::kXenRice, guests);
}

SystemConfig
SystemConfig::cdna(std::uint32_t guests)
{
    return inMode(IoMode::kCdna, guests);
}

SystemConfig
SystemConfig::swPassthrough(std::uint32_t guests)
{
    return inMode(IoMode::kSwPassthrough, guests);
}

std::string
SystemConfig::effectiveLabel() const
{
    if (!label.empty())
        return label;
    std::string base;
    switch (mode) {
      case IoMode::kNative:
        base = "native";
        break;
      case IoMode::kXenIntel:
        base = "xen-intel";
        break;
      case IoMode::kXenRice:
        base = "xen-ricenic";
        break;
      case IoMode::kCdna:
        base = "cdna";
        break;
      case IoMode::kSwPassthrough:
        base = "swpt";
        break;
    }
    base += transmitDir ? "/tx" : "/rx";
    if (transportKind == TransportKind::kTcp)
        base += "/tcp";
    if (mode == IoMode::kCdna && !dmaProtection)
        base += "/noprot";
    if (mode == IoMode::kCdna && ctxOversub)
        base += "/oversub";
    return base;
}

} // namespace cdna::core
