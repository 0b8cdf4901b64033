/**
 * @file
 * One benchmark run of one workload: builds the workload from the
 * library's public API, times set-up and the measurement window from
 * outside, and prints the raw measurements as one JSON object on the
 * last line of stdout.  run.py derives the reported metrics from that
 * object and applies the correctness gate.
 *
 *   perfbench --workload cdna_tx_bulk --seed 1 --seconds 10 --trace 0
 *
 * The window is a fixed simulated length (seconds x the workload's
 * calibrated simulated-per-host rate), stepped with runUntil() in
 * kSlices equal slices, so every simulated statistic is a function of
 * (workload, seed, seconds) alone.  Host time is read per slice, and a
 * fixed reference kernel runs between slices (and between set-ups) so
 * run.py can cancel the shared host's speed drift.
 *
 * --trace 0 runs the workload untraced, then a short untraced/traced
 * pair whose reports must match byte for byte.  --trace 1 runs the
 * window twice (untraced, then with the simulator's tracer on and
 * host-time spans around every call into the library), times a few
 * layers' public functions in isolation, and writes the spans as a
 * Chrome trace to --trace-out.
 *
 * Single-threaded by design: it never touches the sweep thread pool.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <queue>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/cdna_nic.hh"
#include "core/dma_protection.hh"
#include "core/report.hh"
#include "core/system.hh"
#include "cpu/sim_cpu.hh"
#include "mem/dma_engine.hh"
#include "mem/grant_table.hh"
#include "mem/pci_bus.hh"
#include "mem/phys_memory.hh"
#include "net/eth_link.hh"
#include "net/eth_switch.hh"
#include "net/traffic_peer.hh"
#include "net/transport/tcp.hh"
#include "net/workload/workload_engine.hh"
#include "nic/firmware.hh"
#include "nic/mailbox.hh"
#include "nic/nic_base.hh"
#include "os/net_stack.hh"
#include "os/xen_net.hh"
#include "sim/topology.hh"
#include "vmm/hypervisor.hh"
#include "vmm/swpt_validator.hh"

namespace {

using namespace cdna;
using Clock = std::chrono::steady_clock;

/** Slices per measurement window: 12 of 240 lie beyond the p95. */
constexpr int kSlices = 240;
/** Set-ups per run; setup_s is their median.  One set-up takes a few
 *  milliseconds, so a single one would be mostly timer and page-fault
 *  noise. */
constexpr int kSetups = 21;
/** Slices of the short untraced/traced identity pair (--trace 0). */
constexpr int kIdentitySlices = 10;
constexpr sim::Time kIdentitySlice = sim::milliseconds(5);

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Keeps timed loops' results observable so they cannot be elided. */
volatile std::uint64_t gSink = 0;

// ------------------------------------------------------------ spans ----

/**
 * Host-time spans: name, start, end and parent.  Every span measures
 * its own duration; only an enabled recorder keeps it for the trace.
 */
class SpanRecorder
{
  public:
    class Span
    {
      public:
        Span(SpanRecorder &rec, const char *name)
            : rec_(rec), start_(Clock::now()), id_(rec.open(name, start_))
        {}
        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;
        ~Span()
        {
            if (open_)
                close();
        }

        /** End the span; returns its duration in seconds. */
        double
        close()
        {
            open_ = false;
            Clock::time_point end = Clock::now();
            rec_.closeSpan(id_, end);
            return secondsBetween(start_, end);
        }

      private:
        SpanRecorder &rec_;
        Clock::time_point start_;
        int id_;
        bool open_ = true;
    };

    explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

    void setEnabled(bool on) { enabled_ = on; }

    /** Self time (duration minus child spans) summed per span name. */
    std::map<std::string, std::pair<int, double>>
    selfTimes() const
    {
        std::vector<double> self(spans_.size());
        for (std::size_t i = 0; i < spans_.size(); ++i)
            self[i] = spans_[i].end - spans_[i].start;
        for (const auto &s : spans_)
            if (s.parent >= 0)
                self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
        std::map<std::string, std::pair<int, double>> out;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            auto &slot = out[spans_[i].name];
            slot.first += 1;
            slot.second += self[i];
        }
        return out;
    }

    /**
     * Write the spans with sim::Tracer's Chrome trace-event writer, so
     * one viewer opens both this file and a simulator trace.  Span i is
     * trace event i; its "parent" argument is the parent's index + 1
     * (0 for a root span).
     */
    bool
    writeChromeJson(const std::string &path) const
    {
        sim::Tracer tracer;
        auto lane = tracer.lane("perfbench host time");
        tracer.enable(std::max<std::size_t>(spans_.size(), 1));
        for (const auto &s : spans_)
            tracer.span(lane, s.name, toPs(s.start), toPs(s.end - s.start),
                        "parent", static_cast<std::uint64_t>(s.parent + 1));
        return tracer.writeChromeJson(path);
    }

  private:
    struct Record
    {
        const char *name;
        double start;
        double end;
        int parent;
    };

    static sim::Time
    toPs(double seconds)
    {
        return static_cast<sim::Time>(seconds * 1.0e12);
    }

    int
    open(const char *name, Clock::time_point at)
    {
        if (!enabled_)
            return -1;
        int parent = stack_.empty() ? -1 : stack_.back();
        spans_.push_back({name, secondsBetween(origin_, at), 0.0, parent});
        stack_.push_back(static_cast<int>(spans_.size() - 1));
        return stack_.back();
    }

    void
    closeSpan(int id, Clock::time_point at)
    {
        if (id < 0)
            return;
        spans_[static_cast<std::size_t>(id)].end = secondsBetween(origin_, at);
        stack_.pop_back();
    }

    bool enabled_;
    Clock::time_point origin_ = Clock::now();
    std::vector<Record> spans_;
    std::vector<int> stack_;
};

// -------------------------------------------------------- reference ----

/**
 * A fixed workload owned by the benchmark, run between measured slices
 * and between set-ups.  On a shared machine the host's throughput
 * drifts by up to 2x within minutes; dividing each slice's host time by
 * the reference times measured right before and after it cancels that
 * drift.  The
 * kernel imitates the simulator's own mix -- a heap of pending
 * timestamps and scattered memory updates -- and uses no simulator
 * code, so no change to the program can change it.  Changing it
 * changes every normalized number.
 */
class ReferenceKernel
{
  public:
    /** Host seconds one run defines on the reference machine. */
    static constexpr double kNominalS = 0.005;

    /** Run the fixed work once; returns its host seconds. */
    double
    run()
    {
        using Entry = std::pair<std::uint64_t, std::uint32_t>;
        std::uint64_t state = 0x9E3779B97F4A7C15ULL;
        auto next = [&state] {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            return state;
        };
        const std::uint64_t mask = mem_.size() - 1;
        std::vector<Entry> heap;
        heap.reserve(kPending + 1);
        for (std::uint32_t i = 0; i < kPending; ++i)
            heap.emplace_back(next() % 100000,
                              static_cast<std::uint32_t>(next() & mask));
        std::priority_queue<Entry, std::vector<Entry>, std::greater<>> pq(
            std::greater<>{}, std::move(heap));
        Clock::time_point t0 = Clock::now();
        for (int i = 0; i < kOps; ++i) {
            auto [t, idx] = pq.top();
            pq.pop();
            mem_[idx] += t;
            sink_ += mem_[(idx * 2654435761ULL) & mask];
            pq.emplace(t + next() % 100000,
                       static_cast<std::uint32_t>(next() & mask));
        }
        double s = secondsBetween(t0, Clock::now());
        gSink = gSink + sink_;
        return s;
    }

  private:
    static constexpr std::uint32_t kPending = 4096;
    static constexpr int kOps = 20000;
    std::vector<std::uint64_t> mem_ = std::vector<std::uint64_t>(1u << 18, 1);
    std::uint64_t sink_ = 0;
};

// -------------------------------------------------------- workloads ----

/** A built workload: the measured host and whatever owns it. */
struct Bench
{
    std::unique_ptr<core::System> system;  //!< single-host workloads
    std::unique_ptr<sim::Topology> topology; //!< switched workloads
    core::System *host = nullptr;

    sim::SimContext &ctx() { return host->ctx(); }
};

struct WorkloadDef
{
    const char *name;
    /** Simulated milliseconds measured per requested host second,
     *  calibrated so a run takes about --seconds on a 4-core host. */
    double simMsPerHostSecond;
    std::function<std::unique_ptr<Bench>(std::uint64_t seed)> build;
};

std::unique_ptr<Bench>
singleHost(core::SystemConfig cfg)
{
    auto b = std::make_unique<Bench>();
    b->system = std::make_unique<core::System>(std::move(cfg));
    b->host = b->system.get();
    return b;
}

std::unique_ptr<Bench>
buildIncast(std::uint64_t seed)
{
    constexpr std::uint32_t kSenders = 8;
    auto cfg = core::SystemConfig::xenIntel(1)
                   .receive()
                   .withNics(1)
                   .transport(core::kTcp)
                   .withSeed(seed);
    net::EthSwitchParams sw_params;
    sw_params.bufBytesPerPort = 32 * 1024;
    sw_params.forwardLatency = cfg.costs.switchForwardLatency;

    auto b = std::make_unique<Bench>();
    b->topology = std::make_unique<sim::Topology>(seed);
    sim::Topology &topo = *b->topology;
    auto &sw = topo.addSwitch("sw", kSenders + 1, sw_params);
    b->host = &topo.addHost(cfg, {&sw});
    std::vector<net::TrafficPeer *> senders;
    for (std::uint32_t i = 0; i < kSenders; ++i)
        senders.push_back(&topo.addPeer("snd" + std::to_string(i), sw));
    net::workload::WorkloadSpec spec =
        net::workload::WorkloadSpec{}
            .overTcp(cfg.tcpParams)
            .toward({b->host->guestMac(0, 0)})
            .withClass(net::workload::FlowClass::saturating())
            .seeded(seed);
    topo.ctx().events().schedule(sim::milliseconds(1), [senders, spec] {
        for (auto *p : senders)
            p->applyWorkload(spec);
    });
    return b;
}

const std::vector<WorkloadDef> &
workloads()
{
    static const std::vector<WorkloadDef> defs = {
        {"cdna_tx_bulk", 1600.0,
         [](std::uint64_t seed) {
             return singleHost(core::SystemConfig::cdna(24).withSeed(seed));
         }},
        {"xen_tcp_incast", 4000.0, buildIncast},
        {"cdna_rpc", 5500.0,
         [](std::uint64_t seed) {
             namespace wl = net::workload;
             return singleHost(
                 core::SystemConfig::cdna(4)
                     .withNics(1)
                     .receive()
                     .withSeed(seed)
                     .withWorkload(wl::WorkloadSpec{}.withClass(
                         wl::FlowClass::rpc(512, 8192)
                             .poissonAt(10000.0)
                             .timingOutAfter(sim::milliseconds(50)))));
         }},
        {"swpt_tcp_tx", 2200.0,
         [](std::uint64_t seed) {
             return singleHost(core::SystemConfig::swPassthrough(24)
                                   .transport(core::kTcp)
                                   .withSeed(seed));
         }},
    };
    return defs;
}

constexpr sim::Time kWarmup = sim::milliseconds(100);

// --------------------------------------------------- layer counters ----

using Counts = std::map<std::string, double>;

/**
 * Window-relevant counters of every registered component, summed per
 * layer.  Components are classified by type, never by name, so a
 * refactor that renames or regroups components cannot silently empty
 * a layer; a counter a type no longer registers reads as absent.
 */
Counts
layerCounts(const sim::SimContext &ctx)
{
    Counts m;
    for (sim::SimObject *o : ctx.objects()) {
        const sim::StatGroup &st = o->stats();
        auto c = [&st](const char *name) {
            const sim::Counter *k = st.findCounter(name);
            return k ? static_cast<double>(k->value()) : 0.0;
        };
        auto sumSuffix = [&st](const std::string &suffix) {
            double total = 0.0;
            for (const auto &[name, k] : st.counters())
                if (name.size() >= suffix.size() &&
                    name.compare(name.size() - suffix.size(), suffix.size(),
                                 suffix) == 0)
                    total += static_cast<double>(k->value());
            return total;
        };

        if (dynamic_cast<mem::PciBus *>(o)) {
            m["mem.pci_transfers"] += c("transfers");
        } else if (dynamic_cast<mem::DmaEngine *>(o)) {
            m["mem.dma_ops"] += c("reads") + c("writes");
        } else if (dynamic_cast<mem::GrantTable *>(o)) {
            // Xen TX maps granted pages; Xen RX flips pages instead.
            m["mem.grant_ops"] += c("grants") + c("maps") + c("flips");
        } else if (dynamic_cast<mem::PhysMemory *>(o)) {
            m["core.dma_violations"] += c("dma_violations");
        } else if (dynamic_cast<nic::FirmwareProc *>(o)) {
            m["nic.firmware_tasks"] += c("jobs");
        } else if (dynamic_cast<nic::NicBase *>(o)) {
            m["nic.phys_irqs"] += c("irqs");
            if (dynamic_cast<core::CdnaNic *>(o))
                m["core.mailbox_events"] += c("mailbox_events");
        } else if (dynamic_cast<core::DmaProtection *>(o)) {
            m["core.protection_enqueues"] += c("enqueue_calls");
            m["core.pages_pinned"] += c("pages_pinned");
            m["nic.descriptors"] += c("descriptors");
        } else if (dynamic_cast<vmm::Hypervisor *>(o)) {
            m["vmm.hypercalls"] += c("hypercalls");
            m["vmm.virt_irqs"] += c("virt_irqs");
            m["vmm.protection_faults"] += c("faults");
        } else if (dynamic_cast<cpu::SimCpu *>(o)) {
            m["vmm.domain_switches"] += c("domain_switches");
        } else if (dynamic_cast<os::DriverDomainNet *>(o)) {
            m["os.bridge_packets"] += c("bridge_packets");
        } else if (dynamic_cast<vmm::SwptValidator *>(o)) {
            m["vmm.swpt_doorbell_traps"] += c("doorbell_traps");
            m["vmm.swpt_desc_validated"] += c("desc_validated");
            m["nic.descriptors"] += c("desc_validated");
        } else if (dynamic_cast<net::EthLink *>(o)) {
            m["net.wire_frames"] += sumSuffix("_tx_frames");
            m["net.wire_payload_bytes"] += sumSuffix("_tx_payload_bytes");
        } else if (dynamic_cast<net::EthSwitch *>(o)) {
            m["net.wire_frames"] += sumSuffix("_tx_frames");
            m["net.wire_payload_bytes"] += sumSuffix("_tx_payload_bytes");
            m["net.switch_frames_in"] += sumSuffix("_tx_frames");
            m["net.switch_drops"] += sumSuffix("_egress_drops");
        } else if (dynamic_cast<net::transport::TcpEndpoint *>(o)) {
            m["net.tcp_segs_sent"] += c("segs_sent");
            m["net.tcp_segs_retransmitted"] += c("segs_retransmitted");
            m["net.tcp_rto_events"] += c("rto_events");
            m["net.tcp_dup_acks"] += c("dup_acks_received");
        } else if (dynamic_cast<net::TrafficPeer *>(o)) {
            m["net.goodput_bytes"] += c("rx_payload_bytes");
        } else if (dynamic_cast<os::NetStack *>(o)) {
            m["net.goodput_bytes"] += c("rx_bytes");
        } else if (dynamic_cast<net::workload::WorkloadEngine *>(o)) {
            m["workload.rpc_requests"] += c("rpc_requests");
            m["workload.rpc_responses"] += c("rpc_responses");
            m["workload.rpc_timeouts"] += c("rpc_timeouts");
            m["workload.flows_completed"] += c("flows_completed");
        }
    }
    return m;
}

/** Modelled latency quantiles of the whole run, in microseconds: RPC
 *  round trips when the run carries RPC traffic, else data frames (the
 *  histograms System's report merges for its p50/p99). */
std::vector<double>
latencyQuantiles(sim::SimContext &ctx, const core::System &host)
{
    sim::Histogram rpc(net::workload::kRpcHistBuckets,
                       net::workload::kRpcHistSubBits);
    sim::Histogram data;
    bool tx = host.config().transmitDir;
    for (sim::SimObject *o : ctx.objects()) {
        if (auto *e = dynamic_cast<net::workload::WorkloadEngine *>(o))
            rpc.merge(e->rpcLatencyHist());
        else if (auto *p = dynamic_cast<net::TrafficPeer *>(o); p && tx)
            data.merge(p->latencyHist());
        else if (auto *s = dynamic_cast<os::NetStack *>(o); s && !tx)
            data.merge(s->rxLatencyHist());
    }
    const sim::Histogram &h = rpc.count() > 0 ? rpc : data;
    return {static_cast<double>(h.quantile(0.5)),
            static_cast<double>(h.quantile(0.99)),
            static_cast<double>(h.quantile(0.999))};
}

// ------------------------------------------------------------- runs ----

struct WindowResult
{
    std::string report;
    std::vector<double> sliceHostS;
    /** Reference kernel before the first slice and after each one. */
    std::vector<double> refS;
    std::vector<double> pending;
    double sliceSimS = 0.0;
    double events = 0.0;
    double measureHostS = 0.0;
    double endMeasurementS = 0.0;
    Counts delta;
    Counts total;
    std::vector<double> latency;
    double lineMbps = 0.0;
};

/** Line rate of the measured host's NIC 0 fabric. */
double
lineBitsPerSec(Bench &b)
{
    if (b.host->nicExternal(0))
        return b.host->nicFabric(0).bitsPerSec();
    for (sim::SimObject *o : b.ctx().objects())
        if (auto *link = dynamic_cast<net::EthLink *>(o))
            return link->bitsPerSec();
    throw std::runtime_error("measured host has no NIC link");
}

/** Warm up, then measure @p slices slices of @p slice each. */
WindowResult
measure(Bench &b, int slices, sim::Time slice, SpanRecorder &rec,
        ReferenceKernel *ref)
{
    WindowResult w;
    sim::EventQueue &eq = b.ctx().events();
    {
        SpanRecorder::Span s(rec, "warmup");
        eq.runUntil(kWarmup);
    }
    {
        SpanRecorder::Span s(rec, "begin_measurement");
        b.host->beginMeasurement();
    }
    Counts before = layerCounts(b.ctx());
    std::uint64_t ev0 = eq.dispatchedCount();
    {
        SpanRecorder::Span window(rec, "measure");
        if (ref) {
            SpanRecorder::Span r(rec, "reference");
            w.refS.push_back(ref->run());
        }
        for (int i = 1; i <= slices; ++i) {
            SpanRecorder::Span s(rec, "slice");
            eq.runUntil(kWarmup + slice * i);
            w.sliceHostS.push_back(s.close());
            w.measureHostS += w.sliceHostS.back();
            w.pending.push_back(static_cast<double>(eq.pendingCount()));
            if (ref) {
                SpanRecorder::Span r(rec, "reference");
                w.refS.push_back(ref->run());
            }
        }
    }
    w.events = static_cast<double>(eq.dispatchedCount() - ev0);
    w.total = layerCounts(b.ctx());
    for (const auto &[k, v] : w.total)
        w.delta[k] = v - (before.count(k) ? before[k] : 0.0);
    {
        SpanRecorder::Span s(rec, "end_measurement");
        w.report = core::reportToJson(
            b.host->endMeasurement(slice * slices));
        w.endMeasurementS = s.close();
    }
    w.sliceSimS = sim::toSeconds(slice);
    w.latency = latencyQuantiles(b.ctx(), *b.host);
    w.lineMbps = b.host->nicCount() * lineBitsPerSec(b) / 1.0e6;
    return w;
}

struct SetupResult
{
    std::unique_ptr<Bench> bench;
    double constructS = 0.0;
    double startS = 0.0;
};

SetupResult
setUp(const WorkloadDef &def, std::uint64_t seed, SpanRecorder &rec,
      bool sim_trace = false)
{
    SetupResult r;
    SpanRecorder::Span setup(rec, "setup");
    {
        SpanRecorder::Span s(rec, "construct");
        r.bench = def.build(seed);
        r.constructS = s.close();
    }
    if (sim_trace)
        r.bench->ctx().tracer().enable();
    {
        SpanRecorder::Span s(rec, "start");
        r.bench->host->start();
        r.startS = s.close();
    }
    return r;
}

// ------------------------------------------------ timed layer calls ----

/** EventQueue::schedule + runOne at a fixed pending depth. */
double
timeQueue(std::uint64_t seed, std::size_t depth)
{
    constexpr int kOps = 400000;
    sim::EventQueue q;
    sim::Rng rng(seed);
    std::uint64_t fired = 0;
    for (std::size_t i = 0; i < depth; ++i)
        q.schedule(static_cast<sim::Time>(rng.below(1000000) + 1),
                   [&fired] { ++fired; });
    std::vector<sim::Time> delays(kOps);
    for (auto &d : delays)
        d = static_cast<sim::Time>(rng.below(1000000) + 1);
    Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kOps; ++i) {
        q.schedule(delays[static_cast<std::size_t>(i)], [&fired] { ++fired; });
        q.runOne();
    }
    double s = secondsBetween(t0, Clock::now());
    gSink = gSink + fired;
    return s * 1.0e9 / kOps;
}

/** PciBus::transfer plus dispatching its completion. */
double
timePci(std::uint64_t seed)
{
    constexpr int kOps = 200000;
    sim::SimContext ctx(seed);
    mem::PciBus bus(ctx, "pci");
    std::uint64_t done = 0;
    const std::uint64_t sizes[] = {16, 1514, 64, 1514};
    Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kOps; ++i) {
        bus.transfer(sizes[i & 3], [&done] { ++done; });
        ctx.events().runOne();
    }
    double s = secondsBetween(t0, Clock::now());
    gSink = gSink + done;
    return s * 1.0e9 / kOps;
}

/** MailboxEventHier::post + popLowest. */
double
timeMailbox(std::uint64_t seed)
{
    constexpr int kOps = 2000000;
    sim::Rng rng(seed);
    std::vector<std::uint32_t> targets(4096);
    for (auto &t : targets)
        t = static_cast<std::uint32_t>(rng.below(nic::kMaxContexts * 3));
    nic::MailboxEventHier hier;
    std::uint64_t popped = 0;
    Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kOps; ++i) {
        std::uint32_t t = targets[static_cast<std::size_t>(i) & 4095];
        hier.post(t % nic::kMaxContexts, t / nic::kMaxContexts);
        std::uint32_t cxt = 0, mbox = 0;
        if (hier.popLowest(&cxt, &mbox))
            popped += cxt + mbox;
    }
    double s = secondsBetween(t0, Clock::now());
    gSink = gSink + popped;
    return s * 1.0e9 / kOps;
}

/** EthSwitch port send through egress to the far endpoint. */
double
timeSwitch(std::uint64_t seed)
{
    constexpr int kOps = 100000;
    struct Sink : net::LinkEndpoint
    {
        std::uint64_t frames = 0;
        void receiveFrame(net::Packet) override { ++frames; }
    };
    sim::SimContext ctx(seed);
    net::EthSwitch sw(ctx, "sw", 2);
    Sink a, b;
    net::Port &in = sw.bind(a);
    sw.bind(b);
    net::MacAddr dst = net::MacAddr::fromId(2);
    sw.setRoute(dst, 1);
    net::Packet pkt;
    pkt.src = net::MacAddr::fromId(1);
    pkt.dst = dst;
    pkt.payloadBytes = net::kMss;
    Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kOps; ++i) {
        in.send(pkt);
        ctx.events().run();
    }
    double s = secondsBetween(t0, Clock::now());
    gSink = gSink + b.frames;
    return s * 1.0e9 / kOps;
}

// ----------------------------------------------------------- output ----

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char ch : s) {
        switch (ch) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(ch) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
                out += buf;
            } else {
                out += ch;
            }
        }
    }
    return out + "\"";
}

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
numList(const std::vector<double> &v)
{
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i)
            out += ",";
        out += num(v[i]);
    }
    return out + "]";
}

std::string
countsJson(const Counts &m)
{
    std::string out = "{";
    bool first = true;
    for (const auto &[k, v] : m) {
        if (!first)
            out += ",";
        out += jsonString(k) + ":" + num(v);
        first = false;
    }
    return out + "}";
}

std::string
windowJson(const WindowResult &w)
{
    return "{\"report\":" + jsonString(w.report) +
           ",\"slice_sim_s\":" + num(w.sliceSimS) +
           ",\"slice_host_s\":" + numList(w.sliceHostS) +
           ",\"ref_s\":" + numList(w.refS) +
           ",\"pending\":" + numList(w.pending) +
           ",\"events\":" + num(w.events) +
           ",\"measure_host_s\":" + num(w.measureHostS) +
           ",\"end_measurement_s\":" + num(w.endMeasurementS) +
           ",\"latency_us\":" + numList(w.latency) +
           ",\"line_mbps\":" + num(w.lineMbps) +
           ",\"delta\":" + countsJson(w.delta) +
           ",\"total\":" + countsJson(w.total) + "}";
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ------------------------------------------------------------- main ----

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string traceOut;
};

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            throw std::runtime_error("missing value for " + a);
        std::string v = argv[++i];
        if (a == "--workload") {
            o.workload = v;
            have_workload = true;
        } else if (a == "--seed") {
            o.seed = std::stoull(v);
        } else if (a == "--seconds") {
            o.seconds = std::stod(v);
        } else if (a == "--trace") {
            if (v != "0" && v != "1")
                throw std::runtime_error("--trace takes 0 or 1");
            o.trace = v == "1";
        } else if (a == "--trace-out") {
            o.traceOut = v;
        } else {
            throw std::runtime_error("unknown option " + a);
        }
    }
    if (!have_workload)
        throw std::runtime_error("--workload is required");
    if (!(o.seconds > 0.0 && o.seconds <= 600.0))
        throw std::runtime_error("--seconds must be in (0, 600]");
    return o;
}

int
run(const Options &opt)
{
    const WorkloadDef *def = nullptr;
    for (const auto &d : workloads())
        if (opt.workload == d.name)
            def = &d;
    if (!def)
        throw std::runtime_error("unknown workload " + opt.workload);

    // The traced run measures two half-length windows so a run's host
    // time stays near --seconds either way.
    double window_ms = opt.seconds * def->simMsPerHostSecond /
                       (opt.trace ? 2.0 : 1.0);
    sim::Time slice = std::max<sim::Time>(
        sim::microseconds(window_ms * 1000.0 / kSlices), sim::microseconds(1));

    SpanRecorder rec(opt.trace);
    ReferenceKernel ref;
    std::vector<double> setup_s, construct_s, start_s;
    std::vector<double> setup_ref_s = {ref.run()};
    SetupResult kept;
    for (int i = 0; i < kSetups; ++i) {
        kept.bench.reset();
        kept = setUp(*def, opt.seed, rec);
        construct_s.push_back(kept.constructS);
        start_s.push_back(kept.startS);
        setup_s.push_back(kept.constructS + kept.startS);
        SpanRecorder::Span r(rec, "reference");
        setup_ref_s.push_back(ref.run());
    }

    std::string out = "{\"workload\":" + jsonString(def->name) +
                      ",\"seed\":" + num(static_cast<double>(opt.seed)) +
                      ",\"trace\":" + (opt.trace ? "1" : "0") +
                      ",\"slices\":" + num(kSlices) +
                      ",\"setup_s\":" + numList(setup_s) +
                      ",\"construct_s\":" + numList(construct_s) +
                      ",\"start_s\":" + numList(start_s) +
                      ",\"setup_ref_s\":" + numList(setup_ref_s) +
                      ",\"ref_nominal_s\":" + num(ReferenceKernel::kNominalS);

    // The untraced window: every end-to-end metric comes from here.
    rec.setEnabled(false);
    WindowResult main_run = measure(*kept.bench, kSlices, slice, rec, &ref);
    kept.bench.reset();
    out += ",\"window\":" + windowJson(main_run);

    if (!opt.trace) {
        rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        out += ",\"peak_rss_kb\":" + num(static_cast<double>(ru.ru_maxrss));
        // Identity pair: tracing must not change the report.
        SetupResult plain = setUp(*def, opt.seed, rec);
        WindowResult a = measure(*plain.bench, kIdentitySlices,
                                 kIdentitySlice, rec, nullptr);
        plain.bench.reset();
        SetupResult traced = setUp(*def, opt.seed, rec, true);
        WindowResult b = measure(*traced.bench, kIdentitySlices,
                                 kIdentitySlice, rec, nullptr);
        out += ",\"identity_reports\":[" + jsonString(a.report) + "," +
               jsonString(b.report) + "]";
    } else {
        rec.setEnabled(true);
        WindowResult traced;
        std::map<std::string, double> timed;
        {
            SpanRecorder::Span root(rec, "traced_run");
            SetupResult t = setUp(*def, opt.seed, rec, true);
            traced = measure(*t.bench, kSlices, slice, rec, &ref);
        }
        {
            SpanRecorder::Span root(rec, "timed_calls");
            std::size_t depth = static_cast<std::size_t>(
                median(main_run.pending));
            {
                SpanRecorder::Span s(rec, "timed.event_queue");
                timed["queue_ns_per_event"] = timeQueue(opt.seed, depth);
            }
            {
                SpanRecorder::Span s(rec, "timed.pci_bus");
                timed["pci_ns_per_transfer"] = timePci(opt.seed);
            }
            {
                SpanRecorder::Span s(rec, "timed.mailbox");
                timed["mailbox_ns_per_event"] = timeMailbox(opt.seed);
            }
            {
                SpanRecorder::Span s(rec, "timed.eth_switch");
                timed["switch_ns_per_frame"] = timeSwitch(opt.seed);
            }
        }
        out += ",\"traced_window\":" + windowJson(traced);
        out += ",\"timed\":" + countsJson(timed);
        std::string spans = "{";
        bool first = true;
        for (const auto &[name, cs] : rec.selfTimes()) {
            if (!first)
                spans += ",";
            spans += jsonString(name) +
                     ":{\"count\":" + num(cs.first) +
                     ",\"self_s\":" + num(cs.second) + "}";
            first = false;
        }
        out += ",\"span_self\":" + spans + "}";
        if (!opt.traceOut.empty() && !rec.writeChromeJson(opt.traceOut))
            throw std::runtime_error("cannot write " + opt.traceOut);
    }
    out += "}";
    std::printf("%s\n", out.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(parseArgs(argc, argv));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
}
