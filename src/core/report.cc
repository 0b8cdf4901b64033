#include "core/report.hh"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <utility>

#include "sim/stats.hh"

namespace cdna::core {

std::string
Report::header()
{
    return "config                    Mb/s    Hyp  DrvOS DrvUsr  GstOS "
           "GstUsr   Idle   drvIrq/s gstIrq/s";
}

std::string
Report::row() const
{
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%-22s %7.0f  %5.1f  %5.1f  %5.1f  %5.1f  %5.1f  %5.1f "
                  "  %8.0f %8.0f",
                  label.c_str(), mbps, hypPct, drvOsPct, drvUserPct,
                  guestOsPct, guestUserPct, idlePct, drvIntrPerSec,
                  guestIntrPerSec);
    return buf;
}

bool
Report::anyFaultActivity() const
{
    return faultFramesDropped || faultFramesCorrupted ||
           faultFramesDuplicated || faultDmaDelays || firmwareStalls ||
           guestKills || mailboxTimeouts || ringResyncs ||
           driverDomainKills || firmwareReboots || feReconnects ||
           grantsRevoked || pagesQuarantined || mailboxThrottled ||
           outagePacketsLost || switchDrops;
}

std::string
Report::faultSummary() const
{
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "  drops: nodesc=%llu nobuf=%llu filter=%llu | faults: "
        "drop=%llu corrupt=%llu dup=%llu dmadelay=%llu fwstall=%llu "
        "kill=%llu | recovery: timeout=%llu resync=%llu",
        static_cast<unsigned long long>(rxDropsNoDesc),
        static_cast<unsigned long long>(rxDropsNoBuf),
        static_cast<unsigned long long>(rxDropsFilter),
        static_cast<unsigned long long>(faultFramesDropped),
        static_cast<unsigned long long>(faultFramesCorrupted),
        static_cast<unsigned long long>(faultFramesDuplicated),
        static_cast<unsigned long long>(faultDmaDelays),
        static_cast<unsigned long long>(firmwareStalls),
        static_cast<unsigned long long>(guestKills),
        static_cast<unsigned long long>(mailboxTimeouts),
        static_cast<unsigned long long>(ringResyncs));
    std::string out = buf;
    if (driverDomainKills || firmwareReboots || feReconnects ||
        grantsRevoked || outagePacketsLost) {
        std::snprintf(
            buf, sizeof(buf),
            " | outage: domkill=%llu fwreboot=%llu reconnect=%llu "
            "revoked=%llu quarantined=%llu lost=%llu",
            static_cast<unsigned long long>(driverDomainKills),
            static_cast<unsigned long long>(firmwareReboots),
            static_cast<unsigned long long>(feReconnects),
            static_cast<unsigned long long>(grantsRevoked),
            static_cast<unsigned long long>(pagesQuarantined),
            static_cast<unsigned long long>(outagePacketsLost));
        out += buf;
    }
    if (switchDrops) {
        std::snprintf(
            buf, sizeof(buf),
            " | fabric: swdrops=%llu (%llu bytes, qpeak=%llu)",
            static_cast<unsigned long long>(switchDrops),
            static_cast<unsigned long long>(switchDropBytes),
            static_cast<unsigned long long>(switchQueuePeakBytes));
        out += buf;
    }
    return out;
}

double
Report::fairness() const
{
    if (perGuestMbps.empty())
        return 1.0;
    double lo = *std::min_element(perGuestMbps.begin(), perGuestMbps.end());
    double hi = *std::max_element(perGuestMbps.begin(), perGuestMbps.end());
    return hi > 0 ? lo / hi : 1.0;
}

// Table-row shorthands: a double metric, an integer counter windowed
// over the measurement (exact in a double far past any window's count)
// with the stats it sums, an integer level or peak, and a per-guest
// array.
#define CDNA_REAL(key, expr)                                              \
    {key, "%.4f", [](const Report &r) { return r.expr; }}
#define CDNA_LEVEL(key, field)                                            \
    {key, "%.0f",                                                         \
     [](const Report &r) { return static_cast<double>(r.field); }}
#define CDNA_COUNT(key, field, source)                                    \
    {key, "%.0f",                                                         \
     [](const Report &r) { return static_cast<double>(r.field); },        \
     nullptr, &Report::field, source}
#define CDNA_LIST(key, field, fmt)                                        \
    {key, fmt, nullptr,                                                   \
     [](const Report &r) -> const std::vector<double> & {                 \
         return r.field;                                                  \
     }}

const std::vector<ReportColumn> &
reportColumns()
{
    static const std::vector<ReportColumn> columns = {
        CDNA_REAL("mbps", mbps),
        CDNA_REAL("hyp_pct", hypPct),
        CDNA_REAL("drv_os_pct", drvOsPct),
        CDNA_REAL("drv_user_pct", drvUserPct),
        CDNA_REAL("guest_os_pct", guestOsPct),
        CDNA_REAL("guest_user_pct", guestUserPct),
        CDNA_REAL("idle_pct", idlePct),
        CDNA_REAL("drv_intr_per_sec", drvIntrPerSec),
        CDNA_REAL("guest_intr_per_sec", guestIntrPerSec),
        CDNA_REAL("phys_irq_per_sec", physIrqPerSec),
        CDNA_REAL("hypercall_per_sec", hypercallPerSec),
        CDNA_REAL("domain_switch_per_sec", domainSwitchPerSec),
        CDNA_REAL("latency_mean_us", latencyMeanUs),
        CDNA_REAL("latency_p50_us", latencyP50Us),
        CDNA_REAL("latency_p99_us", latencyP99Us),
        CDNA_REAL("fairness", fairness()),
        CDNA_REAL("wire_mbps", wireMbps),
        CDNA_REAL("rpc_lat_mean_us", rpcLatMeanUs),
        CDNA_REAL("rpc_lat_p50_us", rpcLatP50Us),
        CDNA_REAL("rpc_lat_p99_us", rpcLatP99Us),
        CDNA_REAL("rpc_lat_p999_us", rpcLatP999Us),
        CDNA_REAL("rpc_offered_rps", rpcOfferedRps),
        CDNA_REAL("rpc_achieved_rps", rpcAchievedRps),
        CDNA_REAL("swpt_validation_us", swptValidationUs),
        CDNA_COUNT("protection_faults", protectionFaults, "faults"),
        CDNA_COUNT("dma_violations", dmaViolations, "dma_violations"),
        CDNA_COUNT("rx_drops_no_desc", rxDropsNoDesc, "rx_drop_no_desc"),
        CDNA_COUNT("rx_drops_no_buf", rxDropsNoBuf, "rx_drop_no_buf"),
        CDNA_COUNT("rx_drops_filter", rxDropsFilter, "rx_drop_filter"),
        CDNA_COUNT("frames_dropped", faultFramesDropped, "frames_dropped"),
        CDNA_COUNT("frames_corrupted", faultFramesCorrupted,
                   "frames_corrupted"),
        CDNA_COUNT("frames_duplicated", faultFramesDuplicated,
                   "frames_duplicated"),
        CDNA_COUNT("dma_delays", faultDmaDelays, "dma_delays"),
        CDNA_COUNT("firmware_stalls", firmwareStalls, "firmware_stalls"),
        CDNA_COUNT("guest_kills", guestKills, "guest_kills"),
        CDNA_COUNT("mailbox_timeouts", mailboxTimeouts,
                   "faults.mailbox_timeouts"),
        CDNA_COUNT("ring_resyncs", ringResyncs, "faults.ring_resyncs"),
        CDNA_COUNT("rx_drops_bad_csum", rxDropsBadCsum, "rx_drops_bad_csum"),
        CDNA_LEVEL("tx_backlog_peak", txBacklogPeak),
        CDNA_LEVEL("tx_backlog_now", txBacklogNow),
        CDNA_COUNT("tcp_retrans_segs", tcpRetransSegs, "segs_retransmitted"),
        CDNA_COUNT("tcp_fast_retransmits", tcpFastRetransmits,
                   "fast_retransmits"),
        CDNA_COUNT("tcp_rto_events", tcpRtoEvents, "rto_events"),
        CDNA_COUNT("tcp_dup_acks", tcpDupAcks, "dup_acks_received"),
        CDNA_COUNT("driver_domain_kills", driverDomainKills,
                   "driver_domain_kills"),
        CDNA_COUNT("firmware_reboots", firmwareReboots, "firmware_reboots"),
        CDNA_COUNT("fe_reconnects", feReconnects, "frontend_reconnects"),
        CDNA_COUNT("grants_revoked", grantsRevoked, "revoked"),
        CDNA_COUNT("pages_quarantined", pagesQuarantined, "quarantined"),
        CDNA_COUNT("quarantine_released", quarantineReleased,
                   "quarantine_released"),
        CDNA_COUNT("mailbox_throttled", mailboxThrottled, "mailbox_throttled"),
        CDNA_COUNT("outage_packets_lost", outagePacketsLost,
                   "outage_rx_drops+tx_lost_crash"),
        CDNA_COUNT("cxt_page_traps", cxtPageTraps, "cxt_page_traps"),
        CDNA_COUNT("cxt_evictions", cxtEvictions, "cxt_evictions"),
        CDNA_COUNT("cxt_page_ins", cxtPageIns, "cxt_page_ins"),
        CDNA_LEVEL("cxt_resident_peak", cxtResidentPeak),
        CDNA_COUNT("switch_drops", switchDrops, nullptr),
        CDNA_COUNT("switch_drop_bytes", switchDropBytes, nullptr),
        CDNA_LEVEL("switch_queue_peak_bytes", switchQueuePeakBytes),
        CDNA_COUNT("rpc_requests", rpcRequests, "rpc_requests"),
        CDNA_COUNT("rpc_responses", rpcResponses, "rpc_responses"),
        CDNA_COUNT("rpc_timeouts", rpcTimeouts, "rpc_timeouts"),
        CDNA_COUNT("flows_started", flowsStarted, "flows_started"),
        CDNA_COUNT("flows_completed", flowsCompleted, "flows_completed"),
        CDNA_COUNT("swpt_doorbell_traps", swptDoorbellTraps, "doorbell_traps"),
        CDNA_COUNT("swpt_desc_validated", swptDescValidated, "desc_validated"),
        CDNA_COUNT("swpt_desc_rejected", swptDescRejected, "desc_rejected"),
        CDNA_LIST("per_guest_mbps", perGuestMbps, "%.2f"),
        CDNA_LIST("per_guest_downtime_us", perGuestDowntimeUs, "%.1f"),
        CDNA_LIST("per_guest_ttfp_us", perGuestTtfpUs, "%.1f"),
    };
    return columns;
}

#undef CDNA_REAL
#undef CDNA_LEVEL
#undef CDNA_COUNT
#undef CDNA_LIST

const ReportColumn *
findReportColumn(const std::string &key)
{
    for (const ReportColumn &c : reportColumns())
        if (key == c.key)
            return &c;
    return nullptr;
}

std::vector<CounterSource>
counterSources(const ReportColumn &c)
{
    std::vector<CounterSource> out;
    if (!c.source)
        return out;
    std::string_view rest = c.source;
    while (!rest.empty()) {
        std::string_view one = rest.substr(0, rest.find('+'));
        rest.remove_prefix(std::min(rest.size(), one.size() + 1));
        std::size_t dot = one.rfind('.');
        if (dot == std::string_view::npos)
            out.push_back({"", std::string(one)});
        else
            out.push_back({std::string(one.substr(0, dot)),
                           std::string(one.substr(dot + 1))});
    }
    return out;
}

void
addSourcedCounters(Report &totals, std::string_view component,
                   const sim::StatGroup &stats)
{
    // Stat name -> (source, field) for every sourced column.
    using Feed = std::pair<CounterSource, std::uint64_t Report::*>;
    static const std::unordered_map<std::string, std::vector<Feed>> feeds =
        [] {
            std::unordered_map<std::string, std::vector<Feed>> m;
            for (const ReportColumn &c : reportColumns())
                for (CounterSource &src : counterSources(c))
                    m[src.stat].push_back({std::move(src), c.windowed});
            return m;
        }();
    for (const auto &[name, counter] : stats.counters()) {
        auto it = feeds.find(name);
        if (it == feeds.end())
            continue;
        for (const auto &[src, field] : it->second)
            if (src.matches(component, name))
                totals.*field += counter->value();
    }
}

std::string
reportToJson(const Report &r)
{
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "{\n  \"schema_version\": %d,\n  \"label\": \"%s\",\n",
                  kReportSchemaVersion, r.label.c_str());
    std::string out = buf;
    const std::vector<ReportColumn> &columns = reportColumns();
    for (std::size_t i = 0; i < columns.size(); ++i) {
        const ReportColumn &c = columns[i];
        out += "  \"";
        out += c.key;
        out += "\": ";
        if (c.get) {
            std::snprintf(buf, sizeof(buf), c.format, c.get(r));
            out += buf;
        } else {
            const std::vector<double> &values = c.list(r);
            out += '[';
            for (std::size_t k = 0; k < values.size(); ++k) {
                if (k)
                    out += ", ";
                std::snprintf(buf, sizeof(buf), c.format, values[k]);
                out += buf;
            }
            out += ']';
        }
        out += i + 1 < columns.size() ? ",\n" : "\n";
    }
    out += "}\n";
    return out;
}

} // namespace cdna::core
