/**
 * @file
 * Software-only passthrough (Kedia & Bansal's competing design point):
 * guests program real Intel-style descriptor rings, every doorbell
 * traps into a hypervisor validator (vmm/swpt_validator.hh) that audits
 * and shadow-copies descriptors onto ONE shared single-context IntelNic,
 * with software RX demux by destination MAC.
 *
 * dom0 exists as the control domain only, so driver-domain fault plans
 * compose; the dom0-equivalent on the datapath is the validator, and
 * killing the driver domain stalls it.
 */

#include <memory>
#include <vector>

#include "core/system.hh"
#include "os/swpt_driver.hh"
#include "vmm/swpt_validator.hh"

namespace cdna::core {

namespace {

class SwptArch final : public IoArch
{
  public:
    using IoArch::IoArch;

    NicModel nicModel() const override { return NicModel::kIntel; }

    void
    build() override
    {
        createDomains();
        for (std::uint32_t i = 0; i < cfg().numNics; ++i) {
            validators_.push_back(std::make_unique<vmm::SwptValidator>(
                sys_.ctx(), nm("swptval" + std::to_string(i)), sys_.hv(),
                *sys_.intelNic(i), cfg().costs));
            vmm::SwptValidator &val = *validators_.back();
            val.attach();
            if (mem::Iommu *iommu = sys_.iommu()) {
                // The shared NIC DMAs on the hypervisor's behalf: only
                // validated (hypervisor grant-mapped) pages are
                // reachable.
                iommu->bindDevice(i, mem::kDomHypervisor);
            }
            for (std::uint32_t g = 0; g < cfg().numGuests; ++g) {
                drivers_.push_back(std::make_unique<os::SwptDriver>(
                    sys_.ctx(),
                    nm("swptdrv" + std::to_string(g) + "." +
                       std::to_string(i)),
                    *sys_.guestDomain(g), val, cfg().costs,
                    sys_.guestMac(g, i)));
                drivers_.back()->attach();
                plumbGuest(g, i, *drivers_.back());
            }
        }
    }

    void
    driverDomainKilled() override
    {
        // Descriptor auditing stops: doorbells latch unprocessed,
        // completions sit in the NIC, and the shared RX ring runs dry.
        // Everything drains at restart.
        for (auto &v : validators_)
            v->stall();
    }

    void
    driverDomainRestarted() override
    {
        for (auto &v : validators_)
            v->restart();
        if (AvailabilityTracker *avail = sys_.availability())
            avail->noteRecoveryAll();
    }

    bool
    rebootNicFirmware(std::uint32_t nic) override
    {
        if (nic >= validators_.size())
            return false;
        // Full device reset of the shared IntelNic: in-flight TX is
        // dropped (attributed as zero-byte completions so guest TX
        // windows recover) and the validator re-rings its shadow queue
        // once the firmware is back.
        if (sim::FaultInjector *faults = sys_.faultInjector())
            faults->noteFirmwareReboot();
        AvailabilityTracker *avail = sys_.availability();
        if (avail)
            avail->noteOutageStartAll();
        vmm::SwptValidator *val = validators_[nic].get();
        val->resetNic();
        sys_.ctx().events().schedule(cfg().costs.firmwareReboot,
                                     [val, avail] {
                                         val->reconcileAfterReset();
                                         if (avail)
                                             avail->noteRecoveryAll();
                                     });
        return true;
    }

    bool
    revokeGuest(std::uint32_t guest, std::uint32_t nic) override
    {
        os::SwptDriver *drv = sys_.swptDriver(guest, nic);
        if (drv->detached())
            return false;
        drv->detach();
        return true;
    }

    vmm::SwptValidator *
    swptValidator(std::uint32_t i) override
    {
        return i < validators_.size() ? validators_[i].get() : nullptr;
    }

  private:
    std::vector<std::unique_ptr<vmm::SwptValidator>> validators_;
    std::vector<std::unique_ptr<os::SwptDriver>> drivers_;
};

} // namespace

std::unique_ptr<IoArch>
makeSwptArch(System &sys)
{
    return std::make_unique<SwptArch>(sys);
}

} // namespace cdna::core
