/**
 * @file
 * CDNA (section 3): each guest owns a private hardware context on every
 * NIC and drives it directly; the hypervisor only validates DMA
 * descriptors (with protection on or off, Table 4), binds contexts in
 * the IOMMU (section 5.3), and -- with oversubscription -- pages
 * virtual contexts over the NIC's physical slots.
 *
 * No guest datapath touches dom0, so a driver-domain crash is
 * control-plane only: the paper's failure-domain argument.
 */

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/cdna_contexts.hh"
#include "core/context_pager.hh"
#include "core/system.hh"

namespace cdna::core {

namespace {

class CdnaArch final : public IoArch
{
  public:
    using IoArch::IoArch;

    NicModel nicModel() const override { return NicModel::kCdna; }

    void
    tuneCdnaNic(CdnaNicParams &p) const override
    {
        // One virtual context per guest, paged over the physical slots
        // on demand.
        if (cfg().ctxOversub)
            p.virtualContexts = std::max(p.numContexts, cfg().numGuests);
    }

    void
    build() override
    {
        createDomains();
        cdna_ = std::make_unique<CdnaContexts>(sys_, cfg().dmaProtection);

        for (std::uint32_t i = 0; i < cfg().numNics; ++i) {
            cdna_->wireIsr(i);
            CdnaNic &nic = *sys_.cdnaNic(i);
            if (cfg().ctxOversub) {
                pagers_.push_back(std::make_unique<ContextPager>(
                    sys_.ctx(), nm("pager" + std::to_string(i)), sys_.hv(),
                    nic, cfg().costs, cfg().ctxEvictPolicy));
                ContextPager *pager = pagers_.back().get();
                nic.setPageFaultHandler(
                    [pager](CdnaNic::ContextId c) { pager->onTrap(c); });
                // Wake the evicted guest's driver so it collects the
                // completion records that landed during the quiesce.
                pager->setEvictedHook([this, i](CdnaNic::ContextId c) {
                    cdna_->notify(i, c);
                });
            }
            for (std::uint32_t g = 0; g < cfg().numGuests; ++g) {
                vmm::Domain &guest = *sys_.guestDomain(g);
                auto mac = sys_.guestMac(g, i);
                auto cxt = cdna_->open(
                    i, guest, mac,
                    [&](CdnaNic::ContextId c) -> CdnaGuestDriver & {
                        drivers_.push_back(std::make_unique<CdnaGuestDriver>(
                            sys_.ctx(),
                            nm("cdnadrv" + std::to_string(g) + "." +
                               std::to_string(i)),
                            guest, nic, c, cdna_->protection(), cfg().costs,
                            mac));
                        return *drivers_.back();
                    },
                    perContextIommu());
                if (!cxt.has_value()) {
                    // Clear diagnostic instead of an assert: the 33rd
                    // CDNA guest is a configuration error unless the
                    // virtual context layer is enabled.
                    throw std::runtime_error(
                        "CDNA NIC '" + nic.name() + "': out of hardware "
                        "contexts (" +
                        std::to_string(nic.params().numContexts) +
                        ") allocating guest '" + guest.name() +
                        "'; enable virtual-context oversubscription "
                        "(SystemConfig::oversubscribed) to run more "
                        "guests than physical contexts");
                }
                plumbGuest(g, i, *drivers_.back());
            }
        }
    }

    void
    driverDomainRestarted() override
    {
        // No reconnection protocol to wait for: the control plane is
        // simply back.
        if (AvailabilityTracker *avail = sys_.availability())
            avail->noteRecoveryAll();
    }

    bool
    rebootNicFirmware(std::uint32_t nic) override
    {
        return cdna_->rebootFirmware(nic);
    }

    bool
    revokeGuest(std::uint32_t guest, std::uint32_t nic) override
    {
        CdnaGuestDriver *drv = sys_.cdnaDriver(guest, nic);
        if (drv->detached())
            return false;
        cdna_->close(nic, *drv, perContextIommu());
        return true;
    }

    DmaProtection *protection() override { return &cdna_->protection(); }

    ContextPager *
    contextPager(std::uint32_t i) override
    {
        return i < pagers_.size() ? pagers_[i].get() : nullptr;
    }

  private:
    bool
    perContextIommu() const
    {
        return cfg().iommuMode == mem::Iommu::Mode::kPerContext;
    }

    std::unique_ptr<CdnaContexts> cdna_;
    std::vector<std::unique_ptr<ContextPager>> pagers_; //!< oversub only
    std::vector<std::unique_ptr<CdnaGuestDriver>> drivers_;
};

} // namespace

std::unique_ptr<IoArch>
makeCdnaArch(System &sys)
{
    return std::make_unique<CdnaArch>(sys);
}

} // namespace cdna::core
