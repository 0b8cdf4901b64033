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

    // One member per column of report_columns.def, in its order.
#define CDNA_COLUMN(kind, field, key, format, source) CDNA_FIELD_##kind(field)
#define CDNA_FIELD_Real(field) double field = 0.0;
#define CDNA_FIELD_Rate(field) double field = 0.0;
#define CDNA_FIELD_Count(field) std::uint64_t field = 0;
#define CDNA_FIELD_Level(field) std::uint64_t field = 0;
#define CDNA_FIELD_List(field) std::vector<double> field;
#define CDNA_FIELD_Computed(field)
#include "core/report_columns.def"
#undef CDNA_FIELD_Real
#undef CDNA_FIELD_Rate
#undef CDNA_FIELD_Count
#undef CDNA_FIELD_Level
#undef CDNA_FIELD_List
#undef CDNA_FIELD_Computed

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
 * reportColumns() builds one per entry of report_columns.def.
 *
 * A rate or counter column names the stats it sums in source.  A
 * source is a stat name, or "component.stat" to read only one
 * component's stat ("faults.mailbox_timeouts", "dom0.virt_irqs"); the
 * component is written without the host's name prefix.  Several
 * sources are joined by '+' ("outage_rx_drops+tx_lost_crash").
 * System::snapshot() sums each source over every counter its host's
 * own components register, so adding a report counter takes two edits:
 * register the stat, and add one entry naming it to report_columns.def,
 * e.g.
 *
 *   CDNA_COLUMN(Count, tcpRtoEvents, "tcp_rto_events", "%.0f",
 *               "rto_events")
 */
struct ReportColumn
{
    const char *key;
    /** printf conversion of one value; integers use "%.0f". */
    const char *format;
    /** The stats a rate or counter sums (null when System fills the
     *  column itself). */
    const char *source = nullptr;
    double (*get)(const Report &) = nullptr;
    const std::vector<double> &(*list)(const Report &) = nullptr;
    /** A rate: in a Snapshot the field holds a running count, and the
     *  report divides its change over the window by the seconds. */
    double Report::*rate = nullptr;
    /** A counter reported as its change over the measurement window. */
    std::uint64_t Report::*count = nullptr;
};

/** One stat a rate or counter column sums (see ReportColumn::source). */
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
 * (its name without the host prefix), to the rate and counter fields
 * of @p totals whose columns name it as a source.
 */
void addSourcedCounters(Report &totals, std::string_view component,
                        const sim::StatGroup &stats);

/**
 * Every report key after schema_version and label, in JSON order: one
 * column per entry of report_columns.def.
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
