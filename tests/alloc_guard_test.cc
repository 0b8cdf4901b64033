/**
 * @file
 * Allocation guard for the per-frame datapath.
 *
 * The frame path keeps its callbacks inline (sim::InplaceFunction),
 * parks per-frame state in the component that owns it, and carries
 * scatter/gather lists of up to two entries without the heap.  This
 * test counts every global operator new while CDNA transmits with 24
 * guests (the paper's Figure 3 point) past its warm-up, and fails if
 * the path allocates three or more times per wire frame.  It is its
 * own executable because it replaces operator new for the whole
 * program.  AddressSanitizer and ThreadSanitizer bring their own
 * allocator, so under them the counter is not installed and the test
 * is skipped.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "core/system.hh"
#include "net/eth_link.hh"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define CDNA_ALLOC_GUARD_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define CDNA_ALLOC_GUARD_SANITIZED 1
#endif
#endif

namespace {

bool gCounting = false;
std::uint64_t gAllocs = 0;

} // namespace

#ifndef CDNA_ALLOC_GUARD_SANITIZED
void *
operator new(std::size_t n)
{
    if (gCounting)
        ++gAllocs;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
#endif

namespace {

using namespace cdna;

/** Frames serialized onto every link of the host, both directions. */
std::uint64_t
wireFrames(core::System &sys)
{
    const std::string suffix = "_tx_frames";
    std::uint64_t n = 0;
    for (sim::SimObject *o : sys.ctx().objects()) {
        if (!dynamic_cast<net::EthLink *>(o))
            continue;
        for (const auto &[name, c] : o->stats().counters())
            if (name.size() > suffix.size() &&
                name.compare(name.size() - suffix.size(), suffix.size(),
                             suffix) == 0)
                n += c->value();
    }
    return n;
}

} // namespace

TEST(AllocGuard, CdnaTransmitAllocatesUnderThreePerWireFrame)
{
#ifdef CDNA_ALLOC_GUARD_SANITIZED
    GTEST_SKIP() << "sanitizer allocators replace the counting operator new";
#endif
    core::System sys(core::SystemConfig::cdna(24));
    sys.start();
    sim::EventQueue &q = sys.ctx().events();
    // Past the warm-up, every queue and pool on the path has its size.
    q.runUntil(sim::milliseconds(150));
    std::uint64_t frames0 = wireFrames(sys);
    gCounting = true;
    q.runUntil(sim::milliseconds(250));
    gCounting = false;
    std::uint64_t frames = wireFrames(sys) - frames0;

    ASSERT_GT(frames, 10000u);
    double per_frame =
        static_cast<double>(gAllocs) / static_cast<double>(frames);
    RecordProperty("allocs_per_frame", std::to_string(per_frame));
    EXPECT_LT(per_frame, 3.0) << gAllocs << " allocations over " << frames
                              << " wire frames";
}
