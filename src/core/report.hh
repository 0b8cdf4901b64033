/**
 * @file
 * Experiment report: the columns of the paper's Tables 1-4.
 *
 * Throughput, the Xenoprof-style execution profile (hypervisor /
 * driver-domain OS+user / guest OS+user / idle), and interrupt rates,
 * plus protection-related counters used by the security experiments.
 */

#ifndef CDNA_CORE_REPORT_HH
#define CDNA_CORE_REPORT_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.hh"

namespace cdna::sim {
class StatGroup;
}

namespace cdna::core {

/**
 * Version of the JSON report schema (single-run reports and the sweep
 * aggregate share it).  Bump when a key is added, removed, renamed, or
 * reordered; consumers should reject versions they do not know.
 *
 * History:
 *   1  initial versioned schema: the PR-2 report keys plus
 *      "schema_version" itself (sweep aggregates wrap these per-run
 *      objects under "runs[].report").
 *   2  transport subsystem: "wire_mbps" appended after "fairness";
 *      "rx_drops_bad_csum", "tx_backlog_peak", "tx_backlog_now",
 *      "tcp_retrans_segs", "tcp_fast_retransmits", "tcp_rto_events",
 *      and "tcp_dup_acks" appended after "ring_resyncs".  All version-1
 *      keys keep their order and formatting.
 *   3  failure-domain recovery: "driver_domain_kills",
 *      "firmware_reboots", "fe_reconnects", "grants_revoked",
 *      "pages_quarantined", "quarantine_released", "mailbox_throttled",
 *      and "outage_packets_lost" appended after "tcp_dup_acks";
 *      "per_guest_downtime_us" and "per_guest_ttfp_us" arrays appended
 *      after "per_guest_mbps".  All version-2 keys keep their order and
 *      formatting.
 *   4  virtual-context oversubscription: "cxt_page_traps",
 *      "cxt_evictions", "cxt_page_ins", and "cxt_resident_peak"
 *      appended after "outage_packets_lost" (all zero -- except the
 *      resident peak, which counts allocated contexts -- unless
 *      oversubscription is enabled and contexts exceed slots).  All
 *      version-3 keys keep their order and formatting.
 *   5  network fabric: "switch_drops", "switch_drop_bytes", and
 *      "switch_queue_peak_bytes" appended after "cxt_resident_peak"
 *      (all zero on a point-to-point link; nonzero only when a NIC
 *      rides an output-queued switch that tail-dropped or queued
 *      frames toward it).  All version-4 keys keep their order and
 *      formatting.
 *   6  workload/RPC layer: "rpc_lat_mean_us", "rpc_lat_p50_us",
 *      "rpc_lat_p99_us", "rpc_lat_p999_us", "rpc_offered_rps", and
 *      "rpc_achieved_rps" appended after "wire_mbps"; "rpc_requests",
 *      "rpc_responses", "rpc_timeouts", "flows_started", and
 *      "flows_completed" appended after "switch_queue_peak_bytes"
 *      (all zero unless the run carries an engine-backed
 *      WorkloadSpec).  All version-5 keys keep their order and
 *      formatting.
 *   7  software-only passthrough: "swpt_validation_us" appended after
 *      "rpc_achieved_rps"; "swpt_doorbell_traps", "swpt_desc_validated",
 *      and "swpt_desc_rejected" appended after "flows_completed" (all
 *      zero outside swPassthrough mode).  All version-6 keys keep
 *      their order and formatting.
 */
inline constexpr int kReportSchemaVersion = 7;

struct Report
{
    std::string label;

    /** Aggregate goodput in Mb/s over the measurement window. */
    double mbps = 0.0;

    /**
     * Raw wire payload throughput in Mb/s (includes retransmissions and
     * frames later discarded by the checksum check).  Equals goodput in
     * open-loop runs; under TCP, goodput <= wire throughput, with the
     * gap being retransmitted or corrupted bytes.
     */
    double wireMbps = 0.0;

    // Execution profile (percent of elapsed time).
    double hypPct = 0.0;
    double drvOsPct = 0.0;
    double drvUserPct = 0.0;
    double guestOsPct = 0.0;
    double guestUserPct = 0.0;
    double idlePct = 0.0;

    // Interrupt rates (per second of simulated time).
    double drvIntrPerSec = 0.0;   //!< virtual interrupts to the driver dom
    double guestIntrPerSec = 0.0; //!< virtual interrupts to all guests
    double physIrqPerSec = 0.0;
    double hypercallPerSec = 0.0;
    double domainSwitchPerSec = 0.0;

    // Protection / integrity counters (totals over the window).
    std::uint64_t protectionFaults = 0;
    std::uint64_t dmaViolations = 0;
    std::uint64_t rxDropsNoDesc = 0;
    std::uint64_t rxDropsNoBuf = 0;  //!< NIC packet buffer exhausted
    std::uint64_t rxDropsFilter = 0; //!< frame matched no context MAC

    // Fault injection & recovery (totals over the window; all zero
    // unless the run carries a fault plan).
    std::uint64_t faultFramesDropped = 0;
    std::uint64_t faultFramesCorrupted = 0;
    std::uint64_t faultFramesDuplicated = 0;
    std::uint64_t faultDmaDelays = 0;
    std::uint64_t firmwareStalls = 0;
    std::uint64_t guestKills = 0;
    std::uint64_t mailboxTimeouts = 0; //!< driver watchdog expiries
    std::uint64_t ringResyncs = 0;     //!< producer mailboxes re-rung

    /** Frames discarded by receivers' checksum check (both transports). */
    std::uint64_t rxDropsBadCsum = 0;

    // Guest-stack TX backlog (packets queued behind a full device).
    std::uint64_t txBacklogPeak = 0; //!< high-watermark across stacks
    std::uint64_t txBacklogNow = 0;  //!< depth at the end of the window

    // TCP transport recovery activity (zero in open-loop runs).
    std::uint64_t tcpRetransSegs = 0;
    std::uint64_t tcpFastRetransmits = 0;
    std::uint64_t tcpRtoEvents = 0;
    std::uint64_t tcpDupAcks = 0;

    // Failure-domain recovery (schema 3; all zero without an
    // outage-class fault plan).
    std::uint64_t driverDomainKills = 0;
    std::uint64_t firmwareReboots = 0;
    std::uint64_t feReconnects = 0;     //!< Xen frontend reconnections
    std::uint64_t grantsRevoked = 0;    //!< mappings revoked at crash
    std::uint64_t pagesQuarantined = 0; //!< in-flight-DMA pages held
    std::uint64_t quarantineReleased = 0;
    std::uint64_t mailboxThrottled = 0; //!< doorbells rate-limited
    std::uint64_t outagePacketsLost = 0;

    // Virtual-context oversubscription (schema 4).
    std::uint64_t cxtPageTraps = 0;    //!< doorbells to paged-out contexts
    std::uint64_t cxtEvictions = 0;    //!< contexts evicted from a slot
    std::uint64_t cxtPageIns = 0;      //!< contexts restored into a slot
    std::uint64_t cxtResidentPeak = 0; //!< max simultaneously resident

    // Network fabric (schema 5; all zero on point-to-point links).
    std::uint64_t switchDrops = 0;     //!< frames tail-dropped toward us
    std::uint64_t switchDropBytes = 0; //!< wire bytes of those frames
    std::uint64_t switchQueuePeakBytes = 0; //!< egress-queue high water

    /** Per-guest goodput (fairness analysis), Mb/s. */
    std::vector<double> perGuestMbps;

    // Per-guest availability (schema 3): accumulated downtime, and the
    // recovery-to-first-packet lag, both in microseconds.
    std::vector<double> perGuestDowntimeUs;
    std::vector<double> perGuestTtfpUs;

    /**
     * End-to-end data-frame latency in microseconds (stack entry to
     * peer on transmit tests; wire to user space on receive tests).
     * Accumulated from simulation start (includes warmup).  P50/p99 are
     * power-of-two bucket upper bounds.
     */
    double latencyMeanUs = 0.0;
    double latencyP50Us = 0.0;
    double latencyP99Us = 0.0;

    /**
     * RPC request/response tail latency in microseconds (schema 6; all
     * zero without an RPC workload class).  Request enqueue at the
     * client engine to last response byte back at the client.
     * Quantiles come from the fine-grained sub-bucketed histogram, so
     * p999 is meaningful at microsecond scales.
     */
    double rpcLatMeanUs = 0.0;
    double rpcLatP50Us = 0.0;
    double rpcLatP99Us = 0.0;
    double rpcLatP999Us = 0.0;

    // Offered vs. achieved RPC load over the measurement window,
    // requests per second (schema 6).
    double rpcOfferedRps = 0.0;
    double rpcAchievedRps = 0.0;

    // Workload-engine activity (schema 6; totals over the window).
    std::uint64_t rpcRequests = 0;
    std::uint64_t rpcResponses = 0;
    std::uint64_t rpcTimeouts = 0;
    std::uint64_t flowsStarted = 0;
    std::uint64_t flowsCompleted = 0;

    /**
     * Software-only passthrough activity (schema 7; all zero outside
     * swPassthrough mode).  Validation time is the hypervisor time
     * spent on the doorbell path -- trap plus per-descriptor audit and
     * shadow copy -- in microseconds over the window.
     */
    double swptValidationUs = 0.0;
    std::uint64_t swptDoorbellTraps = 0;
    std::uint64_t swptDescValidated = 0;
    std::uint64_t swptDescRejected = 0;

    sim::Time window = 0;

    /** Paper-style table row. */
    std::string row() const;

    /** Header matching row(). */
    static std::string header();

    /** True when any fault was injected or recovered from. */
    bool anyFaultActivity() const;

    /**
     * One-line summary of RX drops and fault/recovery counters, for
     * the text report ("drops: nodesc=3 ... resync=2").
     */
    std::string faultSummary() const;

    /** Min/max per-guest throughput ratio (1.0 = perfectly fair). */
    double fairness() const;
};

/**
 * One report key: its JSON name, how one value is printed, and how to
 * read it.  A column is either a scalar (get) or an array (list).
 *
 * A counter column names the stat it sums in source.  A source is a
 * stat name, or "component.stat" when more than one kind of component
 * registers that name ("faults.mailbox_timeouts"); the component is
 * written without the host's name prefix.  Several sources are joined
 * by '+' ("outage_rx_drops+tx_lost_crash").  System::snapshot() sums
 * each source over every counter its host's own components register,
 * so adding a report counter takes three edits: register the stat, add
 * a Report field, and add one CDNA_COUNT row naming the stat in
 * reportColumns().
 */
struct ReportColumn
{
    const char *key;
    /** printf conversion of one value; counters use "%.0f". */
    const char *format;
    double (*get)(const Report &) = nullptr;
    const std::vector<double> &(*list)(const Report &) = nullptr;
    /** A counter reported as its change over the measurement window
     *  (null for rates, levels, peaks and arrays). */
    std::uint64_t Report::*windowed = nullptr;
    /** The stats a windowed counter sums (null when System fills it
     *  explicitly, as it does the switch port's drop counts). */
    const char *source = nullptr;
};

/** One stat a counter column sums (see ReportColumn::source). */
struct CounterSource
{
    std::string component; //!< empty: any component of the host
    std::string stat;

    /** True for stat @p name of component @p comp (prefix stripped). */
    bool
    matches(std::string_view comp, std::string_view name) const
    {
        return name == stat && (component.empty() || comp == component);
    }
};

/** Column @p c's sources, in order; empty without a source. */
std::vector<CounterSource> counterSources(const ReportColumn &c);

/**
 * Add every counter in @p stats, registered by component @p component
 * (its name without the host prefix), to the windowed fields of
 * @p totals whose columns name it as a source.
 */
void addSourcedCounters(Report &totals, std::string_view component,
                        const sim::StatGroup &stats);

/**
 * Every report key after schema_version and label, in JSON order:
 *
 *   the double-valued metrics (mbps, the six profile percentages, the
 *   five rate counters, the three latency quantiles, fairness,
 *   wire_mbps, then the schema-6 RPC latency quantiles and
 *   offered/achieved rates, then schema 7's swpt_validation_us), then
 *   the integer counters (protection/drop counters, the
 *   fault/recovery counters, then the checksum/backlog/TCP counters
 *   added in schema 2, the outage counters added in schema 3, the
 *   context-paging counters added in schema 4, the switch counters
 *   added in schema 5, the RPC/flow counters added in schema 6, and
 *   the swpt counters added in schema 7), then per_guest_mbps followed
 *   by the schema-3 per_guest_downtime_us and per_guest_ttfp_us
 *   arrays.  New keys are only ever appended at the end of their block
 *   so older goldens remain a line-subset of newer reports.
 */
const std::vector<ReportColumn> &reportColumns();

/** The column named @p key, or nullptr. */
const ReportColumn *findReportColumn(const std::string &key);

/**
 * Render a report as a JSON object: schema_version, label, then
 * reportColumns() in order.
 *
 * Key-order contract: stable across runs, platforms, and thread
 * counts; relied on by the sweep determinism tests, which compare
 * whole documents byte-for-byte.  Doubles are printed with "%.4f",
 * integers as decimal, arrays in index order; no locale-dependent
 * formatting is used anywhere.
 */
std::string reportToJson(const Report &r);

} // namespace cdna::core

#endif // CDNA_CORE_REPORT_HH
