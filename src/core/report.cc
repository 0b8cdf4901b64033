#include "core/report.hh"

#include <algorithm>
#include <cstdio>

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
// over the measurement (exact in a double far past any window's count),
// an integer level or peak, and a per-guest array.
#define CDNA_REAL(key, expr)                                              \
    {key, "%.4f", [](const Report &r) { return r.expr; }}
#define CDNA_LEVEL(key, field)                                            \
    {key, "%.0f",                                                         \
     [](const Report &r) { return static_cast<double>(r.field); }}
#define CDNA_COUNT(key, field)                                            \
    {key, "%.0f",                                                         \
     [](const Report &r) { return static_cast<double>(r.field); },        \
     nullptr, &Report::field}
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
        CDNA_COUNT("protection_faults", protectionFaults),
        CDNA_COUNT("dma_violations", dmaViolations),
        CDNA_COUNT("rx_drops_no_desc", rxDropsNoDesc),
        CDNA_COUNT("rx_drops_no_buf", rxDropsNoBuf),
        CDNA_COUNT("rx_drops_filter", rxDropsFilter),
        CDNA_COUNT("frames_dropped", faultFramesDropped),
        CDNA_COUNT("frames_corrupted", faultFramesCorrupted),
        CDNA_COUNT("frames_duplicated", faultFramesDuplicated),
        CDNA_COUNT("dma_delays", faultDmaDelays),
        CDNA_COUNT("firmware_stalls", firmwareStalls),
        CDNA_COUNT("guest_kills", guestKills),
        CDNA_COUNT("mailbox_timeouts", mailboxTimeouts),
        CDNA_COUNT("ring_resyncs", ringResyncs),
        CDNA_COUNT("rx_drops_bad_csum", rxDropsBadCsum),
        CDNA_LEVEL("tx_backlog_peak", txBacklogPeak),
        CDNA_LEVEL("tx_backlog_now", txBacklogNow),
        CDNA_COUNT("tcp_retrans_segs", tcpRetransSegs),
        CDNA_COUNT("tcp_fast_retransmits", tcpFastRetransmits),
        CDNA_COUNT("tcp_rto_events", tcpRtoEvents),
        CDNA_COUNT("tcp_dup_acks", tcpDupAcks),
        CDNA_COUNT("driver_domain_kills", driverDomainKills),
        CDNA_COUNT("firmware_reboots", firmwareReboots),
        CDNA_COUNT("fe_reconnects", feReconnects),
        CDNA_COUNT("grants_revoked", grantsRevoked),
        CDNA_COUNT("pages_quarantined", pagesQuarantined),
        CDNA_COUNT("quarantine_released", quarantineReleased),
        CDNA_COUNT("mailbox_throttled", mailboxThrottled),
        CDNA_COUNT("outage_packets_lost", outagePacketsLost),
        CDNA_COUNT("cxt_page_traps", cxtPageTraps),
        CDNA_COUNT("cxt_evictions", cxtEvictions),
        CDNA_COUNT("cxt_page_ins", cxtPageIns),
        CDNA_LEVEL("cxt_resident_peak", cxtResidentPeak),
        CDNA_COUNT("switch_drops", switchDrops),
        CDNA_COUNT("switch_drop_bytes", switchDropBytes),
        CDNA_LEVEL("switch_queue_peak_bytes", switchQueuePeakBytes),
        CDNA_COUNT("rpc_requests", rpcRequests),
        CDNA_COUNT("rpc_responses", rpcResponses),
        CDNA_COUNT("rpc_timeouts", rpcTimeouts),
        CDNA_COUNT("flows_started", flowsStarted),
        CDNA_COUNT("flows_completed", flowsCompleted),
        CDNA_COUNT("swpt_doorbell_traps", swptDoorbellTraps),
        CDNA_COUNT("swpt_desc_validated", swptDescValidated),
        CDNA_COUNT("swpt_desc_rejected", swptDescRejected),
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
