#include "core/dma_protection.hh"

#include <utility>

#include "sim/assert.hh"

namespace cdna::core {

DmaProtection::DmaProtection(sim::SimContext &ctx, vmm::Hypervisor &hv,
                             const CostModel &costs, bool enabled,
                             std::string name)
    : sim::SimObject(ctx, std::move(name)),
      hv_(hv),
      costs_(costs),
      enabled_(enabled),
      nEnqueues_(stats().addCounter("enqueue_calls")),
      nDescs_(stats().addCounter("descriptors")),
      nPins_(stats().addCounter("pages_pinned")),
      nUnpins_(stats().addCounter("pages_unpinned")),
      nRejects_(stats().addCounter("rejects"))
{
}

DmaProtection::Handle
DmaProtection::registerRing(CdnaNic &nic, CdnaNic::ContextId cxt,
                            mem::DomainId dom, bool is_tx)
{
    auto rs = std::make_unique<RingState>();
    rs->nic = &nic;
    rs->cxt = cxt;
    rs->dom = dom;
    rs->isTx = is_tx;
    rings_.push_back(std::move(rs));
    return static_cast<Handle>(rings_.size() - 1);
}

DmaProtection::RingState &
DmaProtection::state(Handle h)
{
    SIM_ASSERT(h < rings_.size(), "bad protection handle");
    return *rings_[h];
}

const DmaProtection::RingState &
DmaProtection::state(Handle h) const
{
    SIM_ASSERT(h < rings_.size(), "bad protection handle");
    return *rings_[h];
}

std::uint64_t
DmaProtection::stamp(RingState &rs)
{
    std::uint64_t s = rs.nextSeqno++;
    std::uint64_t m = rs.nic->params().seqnoModulus;
    return m ? s % m : s;
}

std::uint64_t
DmaProtection::lazyUnpin(RingState &rs)
{
    std::uint32_t consumer = rs.isTx ? rs.nic->txConsumer(rs.cxt)
                                     : rs.nic->rxConsumer(rs.cxt);
    std::uint64_t pages = 0;
    while (rs.unpinnedUpTo != consumer && !rs.pinned.empty()) {
        for (const auto &e : rs.pinned.front()) {
            mem::PageNum first = mem::pageOf(e.addr);
            mem::PageNum last = mem::pageOf(e.addr + e.len - 1);
            for (mem::PageNum p = first; p <= last; ++p) {
                hv_.mem().putRef(p);
                ++pages;
            }
        }
        rs.pinned.pop_front();
        ++rs.unpinnedUpTo;
    }
    nUnpins_.inc(pages);
    return pages;
}

DmaProtection::Result
DmaProtection::doEnqueue(RingState &rs, std::vector<Request> &reqs,
                         bool validate)
{
    Result res;
    if (!rs.nic->contextAllocated(rs.cxt)) {
        // The context was revoked while this enqueue was queued behind
        // the hypercall (or vcpu) delay: its rings no longer exist, so
        // the whole batch faults without touching NIC state.
        res.fault = vmm::Fault::kBadContext;
        res.producer = rs.producer;
        return res;
    }
    nic::DescRing &ring = rs.isTx ? rs.nic->txRing(rs.cxt)
                                  : rs.nic->rxRing(rs.cxt);
    auto &memory = hv_.mem();

    for (auto &req : reqs) {
        // Ring-full check against descriptors not yet consumed.
        std::uint32_t consumer = rs.isTx ? rs.nic->txConsumer(rs.cxt)
                                         : rs.nic->rxConsumer(rs.cxt);
        if (rs.producer - consumer >= ring.size()) {
            res.fault = vmm::Fault::kRingFull;
            break;
        }

        if (validate) {
            bool owned = true;
            for (const auto &e : req.sg) {
                mem::PageNum first = mem::pageOf(e.addr);
                mem::PageNum last = mem::pageOf(e.addr + e.len - 1);
                for (mem::PageNum p = first; p <= last; ++p) {
                    // Owned or grant-mapped (driver domain enqueueing
                    // guests' granted packet pages).
                    if (!memory.dmaAccessibleBy(p, rs.dom)) {
                        owned = false;
                        break;
                    }
                }
                if (!owned)
                    break;
            }
            if (!owned) {
                nRejects_.inc();
                hv_.recordFault(rs.dom, vmm::Fault::kNotOwner);
                res.fault = vmm::Fault::kNotOwner;
                break;
            }
            // Pin every page for the lifetime of the DMA.
            for (const auto &e : req.sg) {
                mem::PageNum first = mem::pageOf(e.addr);
                mem::PageNum last = mem::pageOf(e.addr + e.len - 1);
                for (mem::PageNum p = first; p <= last; ++p) {
                    memory.getRef(p);
                    nPins_.inc();
                }
            }
            rs.pinned.push_back(req.sg);
        } else {
            // Track positions so unpin accounting stays aligned even
            // though nothing was pinned.
            rs.pinned.push_back({});
        }

        nic::DmaDescriptor desc;
        desc.sg = req.sg;
        desc.flags = nic::kDescValid | (rs.isTx ? nic::kDescEop : 0u);
        if (validate)
            desc.seqno = stamp(rs);
        ring.write(rs.producer, desc);
        if (req.pkt.has_value())
            ring.attachPacket(rs.producer, std::move(*req.pkt));
        ++rs.producer;
        ++res.accepted;
        nDescs_.inc();
    }
    res.producer = rs.producer;
    return res;
}

void
DmaProtection::enqueue(Handle h, std::vector<Request> reqs,
                       std::function<void(Result)> done)
{
    SIM_ASSERT(enabled_, "protected enqueue with protection disabled");
    nEnqueues_.inc();
    RingState &rs = state(h);

    // Cost: validate + pin each referenced page, stamp/copy each
    // descriptor, and the lazy unpin of completed descriptors.
    std::uint64_t pages = 0;
    for (const auto &r : reqs)
        for (const auto &e : r.sg)
            pages += mem::pageOf(e.addr + (e.len ? e.len - 1 : 0)) -
                     mem::pageOf(e.addr) + 1;

    // Estimate unpin volume for costing (actual unpin happens in body).
    std::uint32_t consumer = rs.isTx ? rs.nic->txConsumer(rs.cxt)
                                     : rs.nic->rxConsumer(rs.cxt);
    std::uint64_t to_unpin = consumer - rs.unpinnedUpTo;

    sim::Time cost =
        static_cast<sim::Time>(pages) *
            (costs_.protValidatePerPage + costs_.protPinPerPage) +
        static_cast<sim::Time>(reqs.size()) * costs_.protEnqueuePerDesc +
        static_cast<sim::Time>(to_unpin) * costs_.protUnpinPerPage;

    CDNA_TRACE_SPAN_ARG(ctx().tracer(), traceLane(), "enqueue", now(),
                        cost, "descriptors", reqs.size());
    hv_.hypercall(cost,
                  [this, h, reqs = std::move(reqs),
                   done = std::move(done)]() mutable {
        RingState &ring_state = state(h);
        lazyUnpin(ring_state);
        Result res = doEnqueue(ring_state, reqs, /*validate=*/true);
        if (done)
            done(res);
    });
}

DmaProtection::Result
DmaProtection::enqueueDirect(Handle h, std::vector<Request> reqs)
{
    nEnqueues_.inc();
    RingState &rs = state(h);
    // No validation, no pinning, no sequence numbers: the guest writes
    // the ring itself.  Positions are still tracked for completion
    // bookkeeping.
    Result res = doEnqueue(rs, reqs, /*validate=*/false);
    lazyUnpin(rs); // no-op pins, but advances unpin bookkeeping
    return res;
}

void
DmaProtection::syncUnpin(Handle h)
{
    lazyUnpin(state(h));
}

void
DmaProtection::unpinAll(Handle h)
{
    RingState &rs = state(h);
    std::uint64_t pages = 0;
    while (!rs.pinned.empty()) {
        for (const auto &e : rs.pinned.front()) {
            mem::PageNum first = mem::pageOf(e.addr);
            mem::PageNum last = mem::pageOf(e.addr + e.len - 1);
            for (mem::PageNum p = first; p <= last; ++p) {
                hv_.mem().putRef(p);
                ++pages;
            }
        }
        rs.pinned.pop_front();
        ++rs.unpinnedUpTo;
    }
    nUnpins_.inc(pages);
}

std::uint32_t
DmaProtection::producer(Handle h) const
{
    return state(h).producer;
}

} // namespace cdna::core
