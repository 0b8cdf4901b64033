#include "core/cdna_contexts.hh"

#include <algorithm>

#include "core/system.hh"

namespace cdna::core {

CdnaContexts::CdnaContexts(System &sys, bool protect)
    : sys_(sys),
      prot_(std::make_unique<DmaProtection>(
          sys.ctx(), sys.hv(), sys.config().costs, protect,
          sys.config().namePrefix + "dma-protection"))
{
    for (std::uint32_t i = 0; i < sys.config().numNics; ++i)
        channels_.emplace_back(
            std::max<std::size_t>(nic::kMaxContexts,
                                  sys.cdnaNic(i)->params().virtualContexts),
            nullptr);
}

void
CdnaContexts::wireIsr(std::uint32_t i)
{
    CdnaNic &nic = *sys_.cdnaNic(i);
    vmm::Hypervisor &hv = sys_.hv();
    mem::PageNum ring_page = sys_.mem().allocOne(mem::kDomHypervisor);
    nic.setInterruptRing(mem::addrOf(ring_page));
    nic.setFaultHandler([&hv](CdnaNic::ContextId, mem::DomainId dom,
                              vmm::Fault f) { hv.recordFault(dom, f); });
    nic.setIrqLine([this, &hv, &nic, i] {
        hv.physicalInterrupt(0, [this, &nic, i] {
            InterruptRing *ring = nic.interruptRing();
            while (!ring->empty()) {
                std::uint32_t vec = ring->pop();
                while (vec != 0) {
                    auto b = static_cast<std::uint32_t>(
                        __builtin_ctz(vec));
                    vec &= vec - 1;
                    // Interrupt vectors carry physical-slot bits;
                    // resolve to the owning (virtual) context.  A slot
                    // whose owner was evicted after the DMA is stale:
                    // its guest is notified by the pager instead.
                    if (auto owner = nic.contextAtSlot(b))
                        notify(i, *owner);
                }
            }
        });
    });
    if (mem::Iommu *iommu = sys_.iommu()) {
        // Whole-device accesses (interrupt bit vectors) act on behalf of
        // the hypervisor.
        iommu->bindDevice(i, mem::kDomHypervisor);
    }
}

std::optional<CdnaNic::ContextId>
CdnaContexts::open(std::uint32_t i, vmm::Domain &dom, net::MacAddr mac,
                   const DriverFor &driver, bool bind_iommu)
{
    CdnaNic &nic = *sys_.cdnaNic(i);
    auto cxt = nic.allocContext(dom.id(), mac);
    if (!cxt)
        return std::nullopt;
    mem::PhysMemory &mem = sys_.mem();
    mem::PageNum txp = mem.allocOne(dom.id());
    mem::PageNum rxp = mem.allocOne(dom.id());
    mem::PageNum stp = mem.allocOne(dom.id());
    nic.configureContextRings(*cxt, 256, mem::addrOf(txp), 256,
                              mem::addrOf(rxp));
    nic.setStatusPage(*cxt, mem::addrOf(stp));
    CdnaGuestDriver *drv = &driver(*cxt);
    channels_[i][*cxt] = &sys_.hv().createChannel(
        dom, sys_.config().costs.irqEntry, [drv] { drv->handleIrq(); });
    drv->attach();
    if (bind_iommu && sys_.iommu())
        sys_.iommu()->bindContext(i, *cxt, dom.id());
    return cxt;
}

void
CdnaContexts::close(std::uint32_t i, CdnaGuestDriver &drv,
                    bool unbind_iommu)
{
    CdnaNic::ContextId cxt = drv.context();
    drv.detach();
    channels_[i][cxt] = nullptr;
    sys_.cdnaNic(i)->revokeContext(cxt);
    if (unbind_iommu && sys_.iommu())
        sys_.iommu()->unbindContext(i, cxt);
}

void
CdnaContexts::notify(std::uint32_t i, CdnaNic::ContextId c)
{
    if (vmm::EventChannel *ch = channels_[i][c])
        sys_.hv().deliverVirtIrq(*ch);
}

bool
CdnaContexts::rebootFirmware(std::uint32_t i)
{
    CdnaNic *nic = sys_.cdnaNic(i);
    if (!nic)
        return false;
    const CostModel &costs = sys_.config().costs;
    AvailabilityTracker *avail = sys_.availability();
    if (avail)
        avail->noteOutageStartAll();
    nic->rebootFirmware(costs.firmwareReboot,
                        costs.fwRebootReconcilePerContext);
    if (avail) {
        // Recovery point: the firmware is back up (context
        // reconciliation adds microseconds on top).
        sys_.ctx().events().schedule(costs.firmwareReboot, [avail] {
            avail->noteRecoveryAll();
        });
    }
    return true;
}

} // namespace cdna::core
