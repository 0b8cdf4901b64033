/**
 * @file
 * System's measurement window: a snapshot of every counter the report
 * needs, and the Report built from the snapshots at the window's two
 * ends.
 */

#include <algorithm>
#include <string_view>

#include "core/system.hh"
#include "net/workload/workload_engine.hh"
#include "sim/assert.hh"
#include "vmm/swpt_validator.hh"

namespace cdna::core {

Snapshot
System::snapshot() const
{
    Snapshot s;
    Report &t = s.totals;
    // Every stat-backed counter column sums the stats it names over
    // this host's own components: whatever its constructor registered,
    // plus the workload engines start() puts on its local peers.
    auto add_stats = [&](const sim::SimObject &o) {
        std::string_view name = o.name();
        SIM_ASSERT(name.starts_with(cfg_.namePrefix),
                   "component name lacks the host's prefix");
        name.remove_prefix(cfg_.namePrefix.size());
        addSourcedCounters(t, name, o.stats());
    };
    const std::vector<sim::SimObject *> &objects = ctx_.objects();
    for (std::size_t k = ownObjects_.first; k < ownObjects_.second; ++k)
        add_stats(*objects[k]);

    for (const auto &p : peers_) {
        if (!p)
            continue;
        s.peerRxPayload += p->payloadDelivered();
        if (const auto *e = p->engine())
            add_stats(*e);
    }
    for (const auto &st : stacks_) {
        s.stackRxBytes += st->rxBytes();
        t.txBacklogPeak = std::max(t.txBacklogPeak, st->txBacklogPeak());
        t.txBacklogNow += st->txBacklogDepth();
    }
    // Raw payload carried on the wire in the goodput direction: what
    // the NIC ports injected (tx), or what the far peers injected /
    // the NIC ports were delivered (rx).
    for (std::size_t i = 0; i < nics_.size(); ++i) {
        const net::Port &port = nics_[i]->port();
        if (cfg_.transmitDir)
            s.wirePayload += port.payloadCarried();
        else
            s.wirePayload += peers_[i] ? peers_[i]->port().payloadCarried()
                                       : port.payloadDelivered();
    }

    s.perGuestBytes.assign(guests_.size(), 0);
    for (std::uint32_t g = 0; g < guests_.size(); ++g) {
        for (std::uint32_t i = 0; i < cfg_.numNics; ++i) {
            if (cfg_.transmitDir) {
                if (!peers_[i])
                    continue; // cross-host tx is measured at the receiver
                auto it = peers_[i]->receivedBySrc().find(guestMac(g, i));
                if (it != peers_[i]->receivedBySrc().end())
                    s.perGuestBytes[g] += it->second;
            } else {
                s.perGuestBytes[g] += stacks_[slot(g, i)]->rxBytes();
            }
        }
    }

    for (const auto *g : guests_)
        t.guestIntrPerSec += static_cast<double>(g->virtIrqCount());
    for (std::uint32_t i = 0; i < nics_.size(); ++i) {
        const nic::NicBase &n = *nics_[i];
        // The switch port toward this NIC counts its drops; a
        // point-to-point link never drops.
        const net::Port &port = n.port();
        t.switchDrops += port.egressDrops();
        t.switchDropBytes += port.egressDropBytes();
        t.switchQueuePeakBytes =
            std::max(t.switchQueuePeakBytes, port.queuePeakBytes());
        if (const auto *cnic = dynamic_cast<const CdnaNic *>(&n))
            t.cxtResidentPeak += cnic->residentPeak();
        if (const vmm::SwptValidator *v = arch_->swptValidator(i))
            s.swptValidation += v->validationTime();
    }
    return s;
}

Report
System::run(sim::Time warmup, sim::Time measure)
{
    start();
    auto &eq = ctx_.events();
    eq.runUntil(eq.now() + warmup);
    beginMeasurement();
    eq.runUntil(eq.now() + measure);
    return endMeasurement(measure);
}

void
System::beginMeasurement()
{
    cpu_->resetAccounting();
    measureBegin_ = snapshot();
}

Report
System::endMeasurement(sim::Time window)
{
    cpu_->syncIdle();
    return buildReport(measureBegin_, snapshot(), window);
}

Report
System::buildReport(const Snapshot &a, const Snapshot &b, sim::Time window)
{
    // Counters are the change between the two snapshots' totals, and
    // rates that change per second; levels and peaks keep their
    // end-of-window value.
    double secs = sim::toSeconds(window);
    Report r = b.totals;
    for (const ReportColumn &c : reportColumns()) {
        if (c.count)
            r.*c.count -= a.totals.*c.count;
        if (c.rate)
            r.*c.rate = (r.*c.rate - a.totals.*c.rate) / secs;
    }
    r.label = cfg_.effectiveLabel();
    r.window = window;

    std::uint64_t goodput_bytes = cfg_.transmitDir
        ? b.peerRxPayload - a.peerRxPayload
        : b.stackRxBytes - a.stackRxBytes;
    r.mbps = static_cast<double>(goodput_bytes) * 8.0 / secs / 1.0e6;
    r.wireMbps = static_cast<double>(b.wirePayload - a.wirePayload) * 8.0 /
                 secs / 1.0e6;

    const auto &prof = cpu_->profile();
    auto pct = [&](sim::Time t) {
        return 100.0 * static_cast<double>(t) /
               static_cast<double>(window);
    };
    r.hypPct = pct(prof.hypervisor());
    r.idlePct = pct(prof.idle());
    if (driverDom_) {
        r.drvOsPct = pct(prof.domainTime(driverDom_->id(),
                                         cpu::Bucket::kOs));
        r.drvUserPct = pct(prof.domainTime(driverDom_->id(),
                                           cpu::Bucket::kUser));
    }
    for (const auto *g : guests_) {
        r.guestOsPct += pct(prof.domainTime(g->id(), cpu::Bucket::kOs));
        r.guestUserPct += pct(prof.domainTime(g->id(),
                                              cpu::Bucket::kUser));
    }

    r.swptValidationUs =
        static_cast<double>(b.swptValidation - a.swptValidation) / 1.0e6;

    r.perGuestMbps.resize(guests_.size());
    for (std::size_t g = 0; g < guests_.size(); ++g) {
        r.perGuestMbps[g] =
            static_cast<double>(b.perGuestBytes[g] - a.perGuestBytes[g]) *
            8.0 / secs / 1.0e6;
    }

    // Availability (absolute, not windowed: an outage is a property of
    // the whole run).  Zero-filled without an outage fault plan.
    r.perGuestDowntimeUs.assign(guests_.size(), 0.0);
    r.perGuestTtfpUs.assign(guests_.size(), 0.0);
    if (avail_) {
        for (std::uint32_t g = 0; g < avail_->guests(); ++g) {
            r.perGuestDowntimeUs[g] = avail_->downtimeUs(g);
            r.perGuestTtfpUs[g] = avail_->ttfpUs(g);
        }
    }

    // End-to-end latency: peers measure transmitted data, guest stacks
    // measure received data.
    sim::Histogram merged;
    double lat_sum = 0.0;
    std::uint64_t lat_n = 0;
    if (cfg_.transmitDir) {
        for (const auto &p : peers_) {
            if (!p)
                continue;
            merged.merge(p->latencyHist());
            lat_sum += p->latency().sum();
            lat_n += p->latency().count();
        }
    } else {
        for (const auto &st : stacks_) {
            merged.merge(st->rxLatencyHist());
            lat_sum += st->rxLatency().sum();
            lat_n += st->rxLatency().count();
        }
    }
    if (lat_n > 0) {
        r.latencyMeanUs = lat_sum / static_cast<double>(lat_n);
        r.latencyP50Us = static_cast<double>(merged.quantile(0.5));
        r.latencyP99Us = static_cast<double>(merged.quantile(0.99));
    }

    // RPC tail quantiles come from the engines' fine-grained cumulative
    // histograms (like the data-frame latency above, they include
    // warmup).
    sim::Histogram rpc_hist(net::workload::kRpcHistBuckets,
                            net::workload::kRpcHistSubBits);
    double rpc_sum = 0.0;
    std::uint64_t rpc_n = 0;
    for (const auto &p : peers_) {
        if (!p)
            continue;
        if (const auto *e = p->engine()) {
            rpc_hist.merge(e->rpcLatencyHist());
            rpc_sum += e->rpcLatency().sum();
            rpc_n += e->rpcLatency().count();
        }
    }
    if (rpc_n > 0) {
        r.rpcLatMeanUs = rpc_sum / static_cast<double>(rpc_n);
        r.rpcLatP50Us = static_cast<double>(rpc_hist.quantile(0.5));
        r.rpcLatP99Us = static_cast<double>(rpc_hist.quantile(0.99));
        r.rpcLatP999Us = static_cast<double>(rpc_hist.quantile(0.999));
    }
    return r;
}

} // namespace cdna::core
