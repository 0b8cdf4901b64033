/**
 * @file
 * Xen (sections 2.1-2.2): the driver domain owns the datapath.  Each
 * NIC gets a physical driver in dom0 -- the native driver over the
 * Intel NIC (TSO), or a CDNA driver on a single promiscuous context of
 * the RiceNIC (the Xen/RiceNIC rows of Tables 2-3) -- bridged to one
 * paravirtual split-driver interface per guest.
 *
 * Because every packet crosses dom0, a dom0 crash takes every guest
 * down until the domain reboots and the frontends reconnect.
 */

#include <memory>
#include <vector>

#include "core/cdna_contexts.hh"
#include "core/system.hh"
#include "os/native_driver.hh"
#include "os/xen_net.hh"
#include "sim/assert.hh"

namespace cdna::core {

namespace {

class XenArch final : public IoArch
{
  public:
    XenArch(System &sys, NicModel nic) : IoArch(sys), nic_(nic) {}

    NicModel nicModel() const override { return nic_; }

    void
    build() override
    {
        createDomains();
        vmm::Domain &dom0 = *sys_.driverDomain();
        if (nic_ == NicModel::kCdna)
            cdna_ = std::make_unique<CdnaContexts>(sys_, /*protect=*/true);

        for (std::uint32_t i = 0; i < cfg().numNics; ++i) {
            std::string id = std::to_string(i);
            os::NetDevice *phys = nullptr;
            net::MacAddr drv_mac = sys_.driverMac(i);
            if (!cdna_) {
                nativeDrivers_.push_back(std::make_unique<os::NativeDriver>(
                    sys_.ctx(), nm("dom0drv" + id), dom0, *sys_.intelNic(i),
                    cfg().costs, os::NativeDriver::IrqRoute::kViaHypervisor,
                    drv_mac));
                nativeDrivers_.back()->attach();
                // The bridge needs frames destined to guest MACs.
                sys_.intelNic(i)->setPromiscuous(true);
                phys = nativeDrivers_.back().get();
            } else {
                cdna_->wireIsr(i);
                openDom0Context(i, [&](CdnaNic::ContextId c)
                                       -> CdnaGuestDriver & {
                    cdnaDrivers_.push_back(std::make_unique<CdnaGuestDriver>(
                        sys_.ctx(), nm("dom0cdna" + id), dom0,
                        *sys_.cdnaNic(i), c, cdna_->protection(),
                        cfg().costs, drv_mac));
                    return *cdnaDrivers_.back();
                });
                phys = cdnaDrivers_.back().get();
            }
            ddns_.push_back(std::make_unique<os::DriverDomainNet>(
                sys_.ctx(), nm("ddn" + id), dom0, *phys, cfg().costs));
            ddns_.back()->setRxCopyMode(cfg().xenRxCopyMode);

            for (std::uint32_t g = 0; g < cfg().numGuests; ++g)
                plumbGuest(g, i,
                           ddns_.back()->createVif(*sys_.guestDomain(g),
                                                   sys_.guestMac(g, i)));
        }
    }

    void
    trackAvailability(AvailabilityTracker &avail) override
    {
        // Frontend reconnection watchdogs only exist when the plan can
        // crash dom0, so other plans keep their exact event sequence.
        if (cfg().faults.driverDomainKills.empty())
            return;
        for (auto &ddn : ddns_) {
            const auto &vifs = ddn->vifs();
            for (std::size_t g = 0; g < vifs.size(); ++g) {
                vifs[g]->enableReconnect();
                vifs[g]->setReconnectedHook(
                    [&avail, g = static_cast<std::uint32_t>(g)]
                    { avail.noteRecovery(g); });
            }
        }
    }

    void
    driverDomainKilled() override
    {
        // The backends die with the domain; frontends detect it via
        // their watchdogs and reconnect after the restart.
        for (auto &ddn : ddns_)
            ddn->crash();
        // dom0's qdisc (packets bridged but not yet posted) lived in the
        // dead domain's memory, and the hypervisor quiesces the Intel TX
        // engine -- a crashed domain's device must stop referencing
        // pages it had grant-mapped.  RX keeps landing in device-owned
        // buffers; the dead bridge discards it.
        for (auto &nd : nativeDrivers_)
            nd->dropQdisc();
        for (std::uint32_t i = 0; i < cfg().numNics; ++i)
            if (nic::IntelNic *inic = sys_.intelNic(i))
                inic->quiesceTx();
        // dom0's physical CDNA driver (the Xen/RiceNIC rows) dies too:
        // its context is revoked and a fresh one is negotiated at
        // restart.  The Intel native driver itself is modeled as
        // surviving (its ring state lives in the NIC, not in dom0
        // memory), so no ring renegotiation happens at restart.
        for (std::uint32_t i = 0; i < cdnaDrivers_.size(); ++i)
            cdna_->close(i, *cdnaDrivers_[i], /*unbind_iommu=*/true);
    }

    void
    driverDomainRestarted() override
    {
        // Fresh context for the rebooted domain; the driver re-attaches
        // from scratch.
        for (std::uint32_t i = 0; i < cdnaDrivers_.size(); ++i) {
            CdnaGuestDriver &drv = *cdnaDrivers_[i];
            openDom0Context(i, [&drv](CdnaNic::ContextId c)
                                   -> CdnaGuestDriver & {
                drv.rebind(c);
                return drv;
            });
        }
        for (auto &ddn : ddns_)
            ddn->restart();
    }

    bool
    rebootNicFirmware(std::uint32_t nic) override
    {
        return cdna_ && cdna_->rebootFirmware(nic);
    }

    DmaProtection *
    protection() override
    {
        return cdna_ ? &cdna_->protection() : nullptr;
    }

  private:
    /**
     * Open dom0's context on NIC @p i.  It is promiscuous: software
     * virtualization routes every guest's traffic through the bridge,
     * so the context must accept frames for every guest MAC.
     */
    void
    openDom0Context(std::uint32_t i, const CdnaContexts::DriverFor &driver)
    {
        auto cxt = cdna_->open(i, *sys_.driverDomain(), sys_.driverMac(i),
                               driver, /*bind_iommu=*/true);
        SIM_ASSERT(cxt.has_value(), "no context for the driver domain");
        sys_.cdnaNic(i)->setPromiscuousContext(*cxt);
    }

    NicModel nic_;
    std::unique_ptr<CdnaContexts> cdna_; //!< RiceNIC only
    std::vector<std::unique_ptr<os::NativeDriver>> nativeDrivers_;
    std::vector<std::unique_ptr<CdnaGuestDriver>> cdnaDrivers_;
    std::vector<std::unique_ptr<os::DriverDomainNet>> ddns_;
};

} // namespace

std::unique_ptr<IoArch>
makeXenArch(System &sys, NicModel nic)
{
    return std::make_unique<XenArch>(sys, nic);
}

} // namespace cdna::core
