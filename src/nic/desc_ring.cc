#include "nic/desc_ring.hh"

#include <utility>

#include "sim/assert.hh"

namespace cdna::nic {

DescRing::DescRing(std::uint32_t entries, mem::PhysAddr base)
    : base_(base), slots_(entries)
{
    SIM_ASSERT(entries > 0, "empty descriptor ring");
    // Indices are free-running uint32 counters that eventually wrap.
    // pos % size() only maps wrapped positions consistently when size
    // divides 2^32, so ring sizes must be powers of two -- otherwise
    // the slot for position 0 and position 2^32 would differ.
    SIM_ASSERT((entries & (entries - 1)) == 0,
               "descriptor ring size must be a power of two");
}

void
DescRing::write(std::uint32_t pos, DmaDescriptor d)
{
    slots_[slotOf(pos)] = std::move(d);
}

const DmaDescriptor &
DescRing::at(std::uint32_t pos) const
{
    return slots_[pos % size()];
}

void
DescRing::attachPacket(std::uint32_t pos, net::Packet pkt)
{
    if (packets_.empty())
        packets_.resize(slots_.size());
    packets_[slotOf(pos)] = std::move(pkt);
}

std::optional<net::Packet>
DescRing::detachPacket(std::uint32_t pos)
{
    if (packets_.empty())
        return std::nullopt;
    auto &slot = packets_[slotOf(pos)];
    std::optional<net::Packet> out = std::move(slot);
    slot.reset();
    return out;
}

bool
DescRing::hasPacket(std::uint32_t pos) const
{
    return !packets_.empty() && packets_[pos % size()].has_value();
}

} // namespace cdna::nic
