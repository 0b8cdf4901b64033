/**
 * @file
 * Microbenchmarks (google-benchmark) of the library's hot primitives:
 * event-queue scheduling, descriptor-ring operations, the mailbox
 * event bit-vector hierarchy, protection validation, and a full
 * end-to-end simulated second of the CDNA system (simulation speed).
 */

#include <benchmark/benchmark.h>

#include "core/system.hh"
#include "nic/desc_ring.hh"
#include "nic/mailbox.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"

using namespace cdna;

static void
BM_EventQueueScheduleDispatch(benchmark::State &state)
{
    sim::EventQueue eq;
    std::uint64_t sink = 0;
    for (auto _ : state) {
        for (int i = 0; i < 64; ++i)
            eq.schedule(i, [&] { ++sink; });
        eq.run();
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventQueueScheduleDispatch);

static void
BM_EventQueueCancel(benchmark::State &state)
{
    sim::EventQueue eq;
    for (auto _ : state) {
        auto id = eq.schedule(1000, [] {});
        benchmark::DoNotOptimize(eq.cancel(id));
    }
}
BENCHMARK(BM_EventQueueCancel);

static void
BM_RngNext(benchmark::State &state)
{
    sim::Rng rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.next());
}
BENCHMARK(BM_RngNext);

static void
BM_DescRingWriteRead(benchmark::State &state)
{
    nic::DescRing ring(256, 0x100000);
    nic::DmaDescriptor d;
    d.sg = {{0x2000, 1460}};
    d.flags = nic::kDescValid;
    std::uint32_t pos = 0;
    for (auto _ : state) {
        ring.write(pos, d);
        benchmark::DoNotOptimize(ring.at(pos));
        ++pos;
    }
}
BENCHMARK(BM_DescRingWriteRead);

static void
BM_MailboxHierPostPop(benchmark::State &state)
{
    nic::MailboxEventHier hier;
    std::uint32_t c = 0, m = 0;
    std::uint32_t i = 0;
    for (auto _ : state) {
        hier.post(i % 32, i % 24);
        hier.popLowest(&c, &m);
        ++i;
    }
    benchmark::DoNotOptimize(c + m);
}
BENCHMARK(BM_MailboxHierPostPop);

static void
BM_MacHashLookup(benchmark::State &state)
{
    std::uint32_t i = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(net::MacAddr::fromId(i++ & 0xFF).hash());
}
BENCHMARK(BM_MacHashLookup);

/** End-to-end: wall-clock cost of simulating 10 ms of the CDNA system
 *  (1 guest, 2 NICs, transmit at line rate). */
static void
BM_SimulateCdna10ms(benchmark::State &state)
{
    for (auto _ : state) {
        core::System sys(core::SystemConfig::cdna(1));
        auto r = sys.run(sim::milliseconds(2), sim::milliseconds(10));
        benchmark::DoNotOptimize(r.mbps);
    }
}
BENCHMARK(BM_SimulateCdna10ms)->Unit(benchmark::kMillisecond);

/** End-to-end: the Xen software path is busier per byte. */
static void
BM_SimulateXen10ms(benchmark::State &state)
{
    for (auto _ : state) {
        core::System sys(core::SystemConfig::xenIntel(1));
        auto r = sys.run(sim::milliseconds(2), sim::milliseconds(10));
        benchmark::DoNotOptimize(r.mbps);
    }
}
BENCHMARK(BM_SimulateXen10ms)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
