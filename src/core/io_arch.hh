/**
 * @file
 * The I/O-architecture seam: what differs between native, Xen, CDNA and
 * software passthrough, and nothing else.
 *
 * The paper's argument is about who owns the datapath.  Native Linux
 * owns its NICs; under Xen the driver domain does, so a dom0 crash
 * stalls every guest; under CDNA each guest owns a NIC context, so the
 * same crash is control-plane only (section 3); under software
 * passthrough a hypervisor validator does.  Each architecture lives in
 * one file (native_arch.cc, xen_arch.cc, cdna_arch.cc, swpt_arch.cc)
 * and answers to System only through this interface:
 *
 *  - build(): the domains and each guest's datapath device, created at
 *    exactly the point in System's construction where the components'
 *    order fixes event sequence numbers and stat names;
 *  - what a driver-domain kill and restart, a firmware reboot and a
 *    guest kill do to the datapath.
 *
 * System calls it at construction and at fault events, never per
 * packet.  Everything shared -- CPU, hypervisor, memory, NICs, links
 * and peers, guest stacks and apps, timers, gauges, availability, fault
 * scheduling and the measurement window -- stays in System.  The
 * architecture's components count their own events in their stats,
 * which is where the measurement window reads them.
 */

#ifndef CDNA_CORE_IO_ARCH_HH
#define CDNA_CORE_IO_ARCH_HH

#include <cstdint>
#include <memory>
#include <string>

#include "core/availability.hh"
#include "core/cdna_driver.hh"
#include "core/context_pager.hh"
#include "os/swpt_driver.hh"

namespace cdna::core {

class System;
struct SystemConfig;

/** Physical NIC model an architecture drives. */
enum class NicModel { kIntel, kCdna };

class IoArch
{
  public:
    /** The architecture @p sys's config names; builds nothing yet. */
    static std::unique_ptr<IoArch> create(System &sys);

    explicit IoArch(System &sys) : sys_(sys) {}
    virtual ~IoArch() = default;

    IoArch(const IoArch &) = delete;
    IoArch &operator=(const IoArch &) = delete;

    /** The NIC model System builds for this architecture. */
    virtual NicModel nicModel() const = 0;

    /** Adjust a CDNA NIC's parameters before System builds it. */
    virtual void tuneCdnaNic(CdnaNicParams &) const {}

    /**
     * Create the domains and, NIC by NIC, each guest's datapath device,
     * handing every device to plumbGuest() in NIC-major order.  Runs
     * once, after System has built the NICs.
     */
    virtual void build() = 0;

    /** An outage-class fault plan started availability tracking. */
    virtual void trackAvailability(AvailabilityTracker &) {}

    // --- fault hooks (guest and NIC indexes are checked by System) -------
    /** The driver domain just crashed: what dies with it. */
    virtual void driverDomainKilled() {}
    /** The driver domain rebooted: bring the datapath back. */
    virtual void driverDomainRestarted() {}
    /** Reboot NIC @p nic's firmware; false if it has none to reboot. */
    virtual bool rebootNicFirmware(std::uint32_t) { return false; }
    /** Revoke @p guest's datapath on @p nic; false if none was live. */
    virtual bool revokeGuest(std::uint32_t, std::uint32_t) { return false; }

    // --- component access (tests, examples, ablations) -------------------
    virtual DmaProtection *protection() { return nullptr; }
    virtual ContextPager *contextPager(std::uint32_t) { return nullptr; }
    virtual vmm::SwptValidator *
    swptValidator(std::uint32_t)
    {
        return nullptr;
    }

  protected:
    const SystemConfig &cfg() const;
    /** @p base with the config's name prefix (shared-context naming). */
    std::string nm(const std::string &base) const;

    /** Create a guest domain named @p name (prefix added). */
    vmm::Domain &createGuest(const std::string &name);
    /** Create dom0 and guest0..N-1, in that order. */
    void createDomains();
    /** Give guest @p g a network stack and app over @p dev on @p nic. */
    void plumbGuest(std::uint32_t g, std::uint32_t nic, os::NetDevice &dev);

    System &sys_;
};

} // namespace cdna::core

#endif // CDNA_CORE_IO_ARCH_HH
