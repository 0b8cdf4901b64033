/**
 * @file
 * Self-benchmark for the discrete-event kernel hot path.
 *
 * Compares the current EventQueue (pooled nodes, intrusive 4-ary heap,
 * inline-storage callbacks) against the implementation it replaced
 * (std::priority_queue of handles + std::unordered_map<EventId,
 * std::function>), which is embedded below verbatim as
 * LegacyEventQueue so the comparison stays honest as the current queue
 * evolves.
 *
 * Three workloads bracket what the simulator does between I/O events:
 *   - chains:      self-perpetuating event chains (the DMA/wire
 *                  pipelines), 24-byte captures
 *   - fat_capture: the same chains with a 48-byte capture -- past
 *                  libstdc++'s std::function inline storage (16 bytes)
 *                  but within InplaceCallback's 48
 *   - timer_cancel: the watchdog pattern -- schedule a timeout, cancel
 *                  it, reschedule -- where cancellation cost dominates
 *
 * Writes BENCH_sim_speed.json (schema_version 1): per-workload
 * events/sec for both queues plus the geometric-mean speedup.  The CI
 * artifact and the acceptance criterion read the "speedup" field.
 *
 * Usage: bench_sim_speed [--events N] [--out FILE]
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/assert.hh"
#include "sim/event_queue.hh"
#include "sim/time.hh"

namespace {

using cdna::sim::Time;

/** Version of BENCH_sim_speed.json's own layout (not the report's). */
constexpr int kSimSpeedSchemaVersion = 1;

/**
 * The event queue this PR replaced, kept as the benchmark baseline:
 * std::function callbacks in an unordered_map keyed by a monotonically
 * increasing EventId, ordered by a priority_queue of (when, id) handles;
 * cancellation erases the map entry and lets the stale handle surface
 * lazily at the heap top.
 */
class LegacyEventQueue
{
  public:
    using EventId = std::uint64_t;
    using Callback = std::function<void()>;

    Time now() const { return now_; }

    EventId
    schedule(Time delay, Callback fn)
    {
        SIM_ASSERT(delay >= 0, "negative event delay");
        return scheduleAt(now_ + delay, std::move(fn));
    }

    EventId
    scheduleAt(Time when, Callback fn)
    {
        SIM_ASSERT(when >= now_, "scheduling into the past");
        EventId id = nextId_++;
        heap_.push(HeapEntry{when, id});
        live_.emplace(id, std::move(fn));
        return id;
    }

    bool cancel(EventId id) { return live_.erase(id) != 0; }

    bool empty() const { return live_.empty(); }

    bool
    runOne()
    {
        while (!heap_.empty()) {
            HeapEntry top = heap_.top();
            heap_.pop();
            auto it = live_.find(top.id);
            if (it == live_.end())
                continue; // cancelled
            Callback fn = std::move(it->second);
            live_.erase(it);
            now_ = top.when;
            ++dispatched_;
            fn();
            return true;
        }
        return false;
    }

    std::uint64_t
    run(std::uint64_t max_events = UINT64_MAX)
    {
        std::uint64_t n = 0;
        while (n < max_events && runOne())
            ++n;
        return n;
    }

    std::uint64_t dispatchedCount() const { return dispatched_; }

  private:
    struct HeapEntry
    {
        Time when;
        EventId id;

        bool
        operator>(const HeapEntry &o) const
        {
            return when != o.when ? when > o.when : id > o.id;
        }
    };

    Time now_ = 0;
    EventId nextId_ = 1;
    std::uint64_t dispatched_ = 0;
    std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                        std::greater<HeapEntry>> heap_;
    std::unordered_map<EventId, Callback> live_;
};

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

constexpr int kChains = 16;

/** A self-perpetuating event: 24-byte capture (queue, budget, period). */
template <typename Queue>
struct ChainEvent
{
    Queue *q;
    std::uint64_t *remaining;
    Time period;

    void
    operator()() const
    {
        if (*remaining == 0)
            return;
        --*remaining;
        q->schedule(period, *this);
    }
};

/**
 * Workload 1: @c kChains interleaved chains, each with a distinct
 * period so heap order keeps changing instead of degenerating to FIFO.
 */
template <typename Queue>
double
benchChains(std::uint64_t events)
{
    Queue q;
    std::uint64_t remaining = events;
    auto t0 = std::chrono::steady_clock::now();
    for (int c = 0; c < kChains; ++c)
        ChainEvent<Queue>{&q, &remaining, 700 + 13 * c}();
    q.run();
    double dt = secondsSince(t0);
    return static_cast<double>(q.dispatchedCount()) / dt;
}

/** As ChainEvent but padded to 48 bytes: heap-allocates as a
 * std::function, stays inline in an InplaceCallback. */
template <typename Queue>
struct FatChainEvent
{
    Queue *q;
    std::uint64_t *remaining;
    Time period;
    std::uint64_t payload[3];

    void
    operator()() const
    {
        if (*remaining == 0)
            return;
        --*remaining;
        FatChainEvent next = *this;
        next.payload[0] += payload[1] ^ payload[2];
        q->schedule(period, next);
    }
};

/** Workload 2: the same chains carrying per-event payload. */
template <typename Queue>
double
benchFatCapture(std::uint64_t events)
{
    Queue q;
    std::uint64_t remaining = events;
    auto t0 = std::chrono::steady_clock::now();
    for (int c = 0; c < kChains; ++c)
        FatChainEvent<Queue>{&q,
                             &remaining,
                             700 + 13 * c,
                             {static_cast<std::uint64_t>(c), 3, 5}}();
    q.run();
    double dt = secondsSince(t0);
    return static_cast<double>(q.dispatchedCount()) / dt;
}

/**
 * Workload 3: the watchdog pattern.  A driving chain fires every tick;
 * each firing cancels the pending timeout (which never runs) and arms a
 * fresh one further out, so every dispatched event also costs one
 * schedule + one cancel -- the NIC DMA-engine and coalescing-timer
 * shape, and the worst case for the legacy lazy-cancellation design.
 */
template <typename Queue>
struct WatchdogState
{
    Queue *q;
    std::uint64_t remaining;
    std::uint64_t timeout = 0;
    bool armed = false;
};

template <typename Queue>
struct WatchdogTick
{
    WatchdogState<Queue> *s;

    void
    operator()() const
    {
        if (s->armed)
            s->q->cancel(s->timeout);
        s->armed = false;
        if (s->remaining == 0)
            return;
        --s->remaining;
        s->timeout = s->q->schedule(
            50'000, [] { SIM_ASSERT(false, "watchdog timeout fired"); });
        s->armed = true;
        s->q->schedule(1'000, *this);
    }
};

template <typename Queue>
double
benchTimerCancel(std::uint64_t events)
{
    Queue q;
    WatchdogState<Queue> s{&q, events};
    auto t0 = std::chrono::steady_clock::now();
    WatchdogTick<Queue>{&s}();
    q.run();
    double dt = secondsSince(t0);
    return static_cast<double>(q.dispatchedCount()) / dt;
}

struct WorkloadResult
{
    const char *name;
    double legacy;
    double current;

    double speedup() const { return current / legacy; }
};

/** Best-of-@p reps events/sec, hiding scheduler noise on a shared box. */
template <typename Fn>
double
bestOf(int reps, Fn fn, std::uint64_t events)
{
    double best = 0;
    for (int i = 0; i < reps; ++i)
        best = std::max(best, fn(events));
    return best;
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t events = 2'000'000;
    std::string out = "BENCH_sim_speed.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--events") == 0 && i + 1 < argc) {
            events = std::strtoull(argv[++i], nullptr, 10);
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: %s [--events N] [--out FILE]\n", argv[0]);
            return 1;
        }
    }

    using Cur = cdna::sim::EventQueue;
    constexpr int kReps = 3;

    // Warm up allocators and caches on a small run of each shape.
    benchChains<Cur>(events / 20);
    benchChains<LegacyEventQueue>(events / 20);

    WorkloadResult results[] = {
        {"chains",
         bestOf(kReps, benchChains<LegacyEventQueue>, events),
         bestOf(kReps, benchChains<Cur>, events)},
        {"fat_capture",
         bestOf(kReps, benchFatCapture<LegacyEventQueue>, events),
         bestOf(kReps, benchFatCapture<Cur>, events)},
        {"timer_cancel",
         bestOf(kReps, benchTimerCancel<LegacyEventQueue>, events / 2),
         bestOf(kReps, benchTimerCancel<Cur>, events / 2)},
    };

    std::printf("=== Event-queue hot-path benchmark (%llu events/run, "
                "best of %d) ===\n",
                static_cast<unsigned long long>(events), kReps);
    std::printf("%-14s %16s %16s %10s\n", "workload", "legacy ev/s",
                "current ev/s", "speedup");
    double logSum = 0;
    for (const auto &r : results) {
        std::printf("%-14s %16.0f %16.0f %9.2fx\n", r.name, r.legacy,
                    r.current, r.speedup());
        logSum += std::log(r.speedup());
    }
    double geomean = std::exp(logSum / std::size(results));
    std::printf("%-14s %16s %16s %9.2fx\n", "geomean", "", "", geomean);

    std::ofstream f(out, std::ios::binary);
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", out.c_str());
        return 1;
    }
    f << "{\n";
    f << "  \"schema_version\": " << kSimSpeedSchemaVersion << ",\n";
    f << "  \"benchmark\": \"sim_speed\",\n";
    f << "  \"events_per_run\": " << events << ",\n";
    f << "  \"workloads\": [\n";
    for (std::size_t i = 0; i < std::size(results); ++i) {
        const auto &r = results[i];
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "    {\"name\": \"%s\", \"legacy_events_per_sec\": "
                      "%.0f, \"current_events_per_sec\": %.0f, "
                      "\"speedup\": %.4f}%s\n",
                      r.name, r.legacy, r.current, r.speedup(),
                      i + 1 < std::size(results) ? "," : "");
        f << buf;
    }
    f << "  ],\n";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "  \"speedup\": %.4f\n", geomean);
    f << buf;
    f << "}\n";
    std::printf("wrote %s\n", out.c_str());
    return geomean >= 1.0 ? 0 : 2;
}
