/**
 * @file
 * The fault-hook contract every I/O architecture keeps: which of the
 * three runtime faults (driver-domain kill, NIC firmware reboot, guest
 * kill) applies to it, and that each one leaves the system clean -- no
 * DMA into memory the device may not touch, and every grant mapping
 * revoked by a crash released from quarantine once the drain passes.
 */

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "core/system.hh"

using namespace cdna;
using namespace cdna::core;

namespace {

struct Arch
{
    const char *name;
    SystemConfig cfg;
    bool killDriverDomain;
    bool rebootFirmware;
    bool killGuest;
};

struct Hook
{
    const char *name;
    std::function<bool(System &)> fire;
    bool Arch::*expected;
};

} // namespace

TEST(IoArchContract, FaultHookMatrix)
{
    const std::vector<Arch> archs = {
        {"native", SystemConfig::native(), false, false, false},
        {"xen-intel", SystemConfig::xenIntel(2), true, false, false},
        {"xen-rice", SystemConfig::xenRice(2), true, true, false},
        {"cdna", SystemConfig::cdna(2), true, true, true},
        {"swpt", SystemConfig::swPassthrough(2), true, true, true},
    };
    const std::vector<Hook> hooks = {
        {"killDriverDomain", [](System &s) { return s.killDriverDomain(); },
         &Arch::killDriverDomain},
        {"rebootNicFirmware(0)",
         [](System &s) { return s.rebootNicFirmware(0); },
         &Arch::rebootFirmware},
        {"killGuest(0)", [](System &s) { return s.killGuest(0); },
         &Arch::killGuest},
    };
    for (const Arch &a : archs) {
        for (const Hook &h : hooks) {
            SCOPED_TRACE(std::string(a.name) + " " + h.name);
            System sys(a.cfg);
            sys.start();
            sys.ctx().events().runUntil(sim::milliseconds(20));
            EXPECT_EQ(h.fire(sys), a.*h.expected);

            // A further window longer than the driver-domain reboot and
            // the quarantine drain: the fault must have left no stray
            // DMA and no grant stuck in quarantine.
            sys.ctx().events().runUntil(sys.ctx().now() +
                                        sim::milliseconds(30));
            EXPECT_EQ(sys.mem().violationCount(), 0u);
            const auto &grants = sys.hv().grants();
            EXPECT_EQ(grants.quarantinedPages(), 0u);
            EXPECT_EQ(grants.quarantineAdmissions(),
                      grants.quarantineReleases());
        }
    }
}
