#include "core/io_arch.hh"

#include "core/system.hh"
#include "sim/assert.hh"

namespace cdna::core {

// One factory per architecture file.
std::unique_ptr<IoArch> makeNativeArch(System &sys);
std::unique_ptr<IoArch> makeXenArch(System &sys, NicModel nic);
std::unique_ptr<IoArch> makeCdnaArch(System &sys);
std::unique_ptr<IoArch> makeSwptArch(System &sys);

std::unique_ptr<IoArch>
IoArch::create(System &sys)
{
    switch (sys.config().mode) {
      case IoMode::kNative:
        return makeNativeArch(sys);
      case IoMode::kXenIntel:
        return makeXenArch(sys, NicModel::kIntel);
      case IoMode::kXenRice:
        return makeXenArch(sys, NicModel::kCdna);
      case IoMode::kCdna:
        return makeCdnaArch(sys);
      case IoMode::kSwPassthrough:
        return makeSwptArch(sys);
    }
    SIM_PANIC("unknown I/O mode");
}

const SystemConfig &
IoArch::cfg() const
{
    return sys_.config();
}

std::string
IoArch::nm(const std::string &base) const
{
    return sys_.nm(base);
}

vmm::Domain &
IoArch::createGuest(const std::string &name)
{
    vmm::Domain &d =
        sys_.hv().createDomain(vmm::Domain::Kind::kGuest, nm(name));
    sys_.guests_.push_back(&d);
    return d;
}

void
IoArch::createDomains()
{
    sys_.driverDom_ =
        &sys_.hv().createDomain(vmm::Domain::Kind::kDriver, nm("dom0"));
    for (std::uint32_t g = 0; g < cfg().numGuests; ++g)
        createGuest("guest" + std::to_string(g));
}

void
IoArch::plumbGuest(std::uint32_t g, std::uint32_t nic, os::NetDevice &dev)
{
    sys_.plumbGuest(g, nic, dev);
}

} // namespace cdna::core
