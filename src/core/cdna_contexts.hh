/**
 * @file
 * The hypervisor side of CDNA NICs, shared by the two architectures
 * that drive them: CDNA itself (one context per guest) and Xen over the
 * RiceNIC (one context for the driver domain).
 *
 * It owns the DMA protection every context's driver enqueues through
 * and, per NIC, the event-channel table indexed by (virtual) context
 * that the interrupt-ring ISR dispatches on.  Opening and closing a
 * context -- slot, rings, status page, channel, attach, IOMMU binding --
 * is written once here for initial bring-up, revocation and the driver
 * domain's renegotiation after a crash.
 */

#ifndef CDNA_CORE_CDNA_CONTEXTS_HH
#define CDNA_CORE_CDNA_CONTEXTS_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/cdna_driver.hh"
#include "core/cdna_nic.hh"
#include "core/dma_protection.hh"
#include "core/io_arch.hh"
#include "vmm/hypervisor.hh"

namespace cdna::core {

class CdnaContexts
{
  public:
    /** Builds the DMA protection (enabled or not, for Table 4). */
    CdnaContexts(System &sys, bool protect);

    DmaProtection &protection() { return *prot_; }

    /** Point NIC @p i's interrupt ring, fault and IRQ lines at the
     *  hypervisor. */
    void wireIsr(std::uint32_t i);

    /** Makes (or rebinds) the driver for a freshly allocated context. */
    using DriverFor = std::function<CdnaGuestDriver &(CdnaNic::ContextId)>;

    /**
     * Allocate a context on NIC @p i for @p dom and lay out its rings
     * and status page; route its interrupts to the driver @p driver
     * returns, attach that driver, and bind the context in the IOMMU
     * when @p bind_iommu.
     * @return the context, or nullopt when the NIC has no free slot
     */
    std::optional<CdnaNic::ContextId>
    open(std::uint32_t i, vmm::Domain &dom, net::MacAddr mac,
         const DriverFor &driver, bool bind_iommu);

    /** Detach @p drv and revoke its context on NIC @p i. */
    void close(std::uint32_t i, CdnaGuestDriver &drv, bool unbind_iommu);

    /** Raise context @p c's virtual interrupt on NIC @p i, if routed. */
    void notify(std::uint32_t i, CdnaNic::ContextId c);

    /** Reboot NIC @p i's firmware; false when there is no such NIC. */
    bool rebootFirmware(std::uint32_t i);

  private:
    System &sys_;
    std::unique_ptr<DmaProtection> prot_;
    std::vector<std::vector<vmm::EventChannel *>> channels_;
};

} // namespace cdna::core

#endif // CDNA_CORE_CDNA_CONTEXTS_HH
