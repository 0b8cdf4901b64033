/**
 * @file
 * Native Linux (Table 1 baseline): one OS owns the Intel NICs directly,
 * with no hypervisor or driver domain on the datapath.  There is no
 * driver domain to kill, no NIC firmware to reboot and no second guest,
 * so every fault hook keeps IoArch's no-op default.
 */

#include <memory>
#include <vector>

#include "core/system.hh"
#include "os/native_driver.hh"

namespace cdna::core {

namespace {

class NativeArch final : public IoArch
{
  public:
    using IoArch::IoArch;

    NicModel nicModel() const override { return NicModel::kIntel; }

    void
    build() override
    {
        vmm::Domain &native = createGuest("native");
        for (std::uint32_t i = 0; i < cfg().numNics; ++i) {
            drivers_.push_back(std::make_unique<os::NativeDriver>(
                sys_.ctx(), nm("natdrv" + std::to_string(i)), native,
                *sys_.intelNic(i), cfg().costs,
                os::NativeDriver::IrqRoute::kDirect, sys_.guestMac(0, i)));
            drivers_.back()->attach();
            plumbGuest(0, i, *drivers_.back());
        }
    }

  private:
    std::vector<std::unique_ptr<os::NativeDriver>> drivers_;
};

} // namespace

std::unique_ptr<IoArch>
makeNativeArch(System &sys)
{
    return std::make_unique<NativeArch>(sys);
}

} // namespace cdna::core
