/**
 * @file
 * Declarative workload description: composable flow classes with
 * stochastic arrival processes and (heavy-tailed) size distributions.
 *
 * A WorkloadSpec is a value type in the fluent house style of
 * SystemConfig / ExperimentSpec.  One idempotent `applyWorkload(spec)`
 * call is TrafficPeer's single configuration entry point (the old
 * order-sensitive imperative setters are gone), and a spec describes
 * traffic those setters never could: Poisson / ON-OFF arrivals,
 * bounded-Pareto flow sizes, and closed-loop request/response RPC with
 * per-request latency tracking.
 *
 * Determinism contract (mirrors sim/fault_injector.hh): all workload
 * randomness is drawn from a dedicated RNG stream derived from
 * `workloadStreamSeed(spec.seed)` and the generating endpoint's MAC --
 * never from the shared context RNG -- so enabling, disabling, or
 * re-ordering workload classes cannot perturb any other subsystem's
 * random sequence, and a run's report is byte-identical across
 * `-j1` / `-jN` sweep execution.
 */

#ifndef CDNA_NET_WORKLOAD_WORKLOAD_SPEC_HH
#define CDNA_NET_WORKLOAD_WORKLOAD_SPEC_HH

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "net/packet.hh"
#include "net/transport/tcp.hh"
#include "sim/event_queue.hh"

namespace cdna::net::workload {

/**
 * Derive the dedicated workload RNG stream from the system seed.
 * Distinct from the context stream and from faultStreamSeed so that
 * workload draws never alias another subsystem's sequence.
 */
constexpr std::uint64_t
workloadStreamSeed(std::uint64_t system_seed)
{
    return system_seed ^ 0xF10CA5CADE5EED01ull;
}

/** Geometry of the fine-grained RPC latency histograms (microsecond
 *  samples; 2^-3 = 12.5% bucket resolution, range beyond 4M us). */
constexpr int kRpcHistBuckets = 160;
constexpr int kRpcHistSubBits = 3;

/** What a flow of this class does once started. */
enum class FlowKind : std::uint8_t {
    kOpenLoopStream, ///< raw frames, no feedback (legacy source)
    kBulkTcp,        ///< closed-loop bulk transfer over the transport
    kRpc,            ///< request out, response back, latency measured
};

/** When new flows (or requests) of this class start. */
enum class Arrival : std::uint8_t {
    kSaturate,   ///< back-to-back at line rate (legacy startSource)
    kFixedRate,  ///< deterministic 1/rate interarrival
    kPoisson,    ///< exponential interarrival at `ratePerSec`
    kOnOff,      ///< Poisson bursts: ON for onFraction of burstPeriod
    kClosedLoop, ///< `concurrency` always outstanding; next on completion
};

/** How a flow's size (or an RPC request's size) is drawn. */
enum class SizeDist : std::uint8_t {
    kFixed,         ///< always `sizeBytes`
    kBoundedPareto, ///< heavy tail in [sizeBytes, sizeMaxBytes], `paretoAlpha`
};

/**
 * One class of traffic inside a WorkloadSpec.  Fluent setters return
 * *this so classes compose inline; static factories name the common
 * shapes.
 */
struct FlowClass
{
    FlowKind kind = FlowKind::kOpenLoopStream;
    Arrival arrival = Arrival::kSaturate;

    /** Mean arrival rate (flows or requests per second); <= 0 is inert
     *  for every arrival process except kSaturate / kClosedLoop. */
    double ratePerSec = 0.0;
    /** kOnOff: fraction of each burstPeriod spent ON. */
    double onFraction = 0.5;
    /** kOnOff: length of one ON+OFF cycle. */
    sim::Time burstPeriod = sim::milliseconds(10);

    SizeDist sizeDist = SizeDist::kFixed;
    /** Fixed size, or the lower bound of the distribution. */
    std::uint64_t sizeBytes = kMss;
    /** Upper bound for kBoundedPareto. */
    std::uint64_t sizeMaxBytes = kMss;
    /** Bounded-Pareto shape (heavier tail as alpha -> 1). */
    double paretoAlpha = 1.3;

    /** kClosedLoop: requests/flows kept outstanding at all times. */
    std::uint32_t concurrency = 1;

    /** kRpc: response payload the server returns per request. */
    std::uint32_t rpcRespBytes = 8192;
    /** kRpc: a request unanswered for this long counts as timed out. */
    sim::Time rpcTimeout = sim::milliseconds(20);

    // ------------------------------------------------- fluent setters ----
    FlowClass &at(double rate)
    {
        arrival = Arrival::kFixedRate;
        ratePerSec = rate;
        return *this;
    }
    FlowClass &poissonAt(double rate)
    {
        arrival = Arrival::kPoisson;
        ratePerSec = rate;
        return *this;
    }
    FlowClass &burstyAt(double rate, double on_fraction,
                        sim::Time period)
    {
        arrival = Arrival::kOnOff;
        ratePerSec = rate;
        onFraction = on_fraction;
        burstPeriod = period;
        return *this;
    }
    FlowClass &closedLoop(std::uint32_t outstanding)
    {
        arrival = Arrival::kClosedLoop;
        concurrency = outstanding;
        return *this;
    }
    FlowClass &sized(std::uint64_t bytes)
    {
        sizeDist = SizeDist::kFixed;
        sizeBytes = bytes;
        sizeMaxBytes = bytes;
        return *this;
    }
    FlowClass &sizedPareto(std::uint64_t lo, std::uint64_t hi,
                           double alpha)
    {
        sizeDist = SizeDist::kBoundedPareto;
        sizeBytes = lo;
        sizeMaxBytes = hi;
        paretoAlpha = alpha;
        return *this;
    }
    FlowClass &timingOutAfter(sim::Time t)
    {
        rpcTimeout = t;
        return *this;
    }

    // ----------------------------------------------- named factories ----
    /** The legacy line-rate open-loop source (receive experiments). */
    static FlowClass
    saturating(std::uint32_t payload = kMss)
    {
        FlowClass fc;
        fc.kind = FlowKind::kOpenLoopStream;
        fc.arrival = Arrival::kSaturate;
        fc.sized(payload);
        return fc;
    }
    /** Rate-driven open-loop stream (defaults to fixed-rate). */
    static FlowClass
    stream(std::uint64_t bytes, double rate)
    {
        FlowClass fc;
        fc.kind = FlowKind::kOpenLoopStream;
        fc.at(rate).sized(bytes);
        return fc;
    }
    /** Request/response RPC (defaults to Poisson arrivals). */
    static FlowClass
    rpc(std::uint64_t req_bytes, std::uint32_t resp_bytes)
    {
        FlowClass fc;
        fc.kind = FlowKind::kRpc;
        fc.arrival = Arrival::kPoisson;
        fc.sized(req_bytes);
        fc.rpcRespBytes = resp_bytes;
        return fc;
    }
    /** Bulk transfer over the TCP transport (requires overTcp()). */
    static FlowClass
    bulk(std::uint64_t bytes)
    {
        FlowClass fc;
        fc.kind = FlowKind::kBulkTcp;
        fc.arrival = Arrival::kPoisson;
        fc.sized(bytes);
        return fc;
    }
};

/**
 * The complete declarative description a TrafficPeer (or a System's
 * peers) accepts through applyWorkload().  Endpoint knobs are
 * std::optional: unset means "leave the endpoint's current setting
 * alone", so a spec carrying only flow classes composes with knobs
 * applied earlier (exactly how the legacy shims are built on top).
 */
struct WorkloadSpec
{
    std::vector<FlowClass> classes;

    std::optional<bool> macFilter;
    std::optional<std::uint32_t> ackEvery;
    std::optional<std::uint32_t> sourceWindow;
    std::optional<transport::TcpParams> tcp;

    /** Destinations, cycled round-robin per class.  When the spec is
     *  attached to a SystemConfig and left empty, System fills in the
     *  guest MACs of each NIC (matching the legacy receive flood). */
    std::vector<MacAddr> targets;

    /** Workload stream seed (System overrides with SystemConfig::seed). */
    std::uint64_t seed = 1;

    // ------------------------------------------------- fluent setters ----
    WorkloadSpec &
    withClass(FlowClass fc)
    {
        classes.push_back(fc);
        return *this;
    }
    WorkloadSpec &
    filteringMac(bool on = true)
    {
        macFilter = on;
        return *this;
    }
    WorkloadSpec &
    ackingEvery(std::uint32_t every)
    {
        ackEvery = every;
        return *this;
    }
    WorkloadSpec &
    windowed(std::uint32_t frames)
    {
        sourceWindow = frames;
        return *this;
    }
    WorkloadSpec &
    overTcp(const transport::TcpParams &params)
    {
        tcp = params;
        return *this;
    }
    WorkloadSpec &
    toward(std::vector<MacAddr> dsts)
    {
        targets = std::move(dsts);
        return *this;
    }
    WorkloadSpec &
    seeded(std::uint64_t s)
    {
        seed = s;
        return *this;
    }

    /** No flow classes: System falls back to the legacy source path. */
    bool empty() const { return classes.empty(); }

    bool
    hasRpc() const
    {
        for (const auto &fc : classes)
            if (fc.kind == FlowKind::kRpc)
                return true;
        return false;
    }

    /** True when any class needs the WorkloadEngine (anything beyond
     *  the legacy saturating open-loop source). */
    bool
    needsEngine() const
    {
        for (const auto &fc : classes)
            if (fc.kind != FlowKind::kOpenLoopStream ||
                fc.arrival != Arrival::kSaturate)
                return true;
        return false;
    }
};

} // namespace cdna::net::workload

#endif // CDNA_NET_WORKLOAD_WORKLOAD_SPEC_HH
