#include "mem/dma_engine.hh"

#include <utility>

#include "sim/fault_injector.hh"

namespace cdna::mem {

DmaEngine::DmaEngine(sim::SimContext &ctx, std::string name, PciBus &bus,
                     PhysMemory &mem, DeviceId dev, Iommu *iommu)
    : sim::SimObject(ctx, std::move(name)),
      bus_(bus),
      mem_(mem),
      dev_(dev),
      iommu_(iommu),
      nReads_(stats().addCounter("reads")),
      nWrites_(stats().addCounter("writes")),
      nReadBytes_(stats().addCounter("read_bytes")),
      nWriteBytes_(stats().addCounter("write_bytes"))
{
}

void
DmaEngine::read(const SgList &sg, DomainId behalf, ContextId cxt, Callback cb)
{
    nReads_.inc();
    nReadBytes_.inc(sgBytes(sg));
    doTransfer(sg, behalf, cxt, false, std::move(cb));
}

void
DmaEngine::write(const SgList &sg, DomainId behalf, ContextId cxt, Callback cb)
{
    nWrites_.inc();
    nWriteBytes_.inc(sgBytes(sg));
    doTransfer(sg, behalf, cxt, true, std::move(cb));
}

void
DmaEngine::doTransfer(const SgList &sg, DomainId behalf, ContextId cxt,
                      bool write, Callback cb)
{
    DmaResult result;
    std::uint64_t carried = 0;
    for (const auto &e : sg) {
        if (e.len == 0)
            continue;
        PageNum first = pageOf(e.addr);
        PageNum last = pageOf(e.addr + e.len - 1);
        for (PageNum p = first; p <= last; ++p) {
            if (iommu_) {
                auto verdict = iommu_->check(dev_, cxt, p);
                if (verdict != IommuVerdict::kAllowed) {
                    ++result.blockedPages;
                    continue; // access suppressed by the IOMMU
                }
            }
            if (!mem_.noteDmaAccess(p, behalf, write))
                result.safe = false;
        }
        carried += e.len;
    }
    std::uint32_t slot;
    if (freePending_.empty()) {
        slot = static_cast<std::uint32_t>(pending_.size());
        pending_.push_back({result, std::move(cb)});
    } else {
        slot = freePending_.back();
        freePending_.pop_back();
        pending_[slot] = {result, std::move(cb)};
    }
    // Fault injection: a delayed completion widens the window between a
    // descriptor being consumed and its pages being released, stressing
    // the protection layer's deferred-reallocation rule.
    sim::Time extra = 0;
    if (sim::FaultInjector *fi = ctx().faultInjector(); fi && fi->dmaArmed())
        extra = fi->dmaDelay();
    if (extra > 0) {
        bus_.transfer(carried, [this, slot, extra] {
            events().schedule(extra, [this, slot] { complete(slot); });
        });
        return;
    }
    bus_.transfer(carried, [this, slot] { complete(slot); });
}

void
DmaEngine::complete(std::uint32_t slot)
{
    // Move out first: the callback may start further transfers, which
    // can reuse the slot or grow the pool.
    Pending &p = pending_[slot];
    Callback cb = std::move(p.cb);
    DmaResult result = p.result;
    freePending_.push_back(slot);
    cb(result);
}

} // namespace cdna::mem
