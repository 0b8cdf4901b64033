/**
 * @file
 * Producer/consumer descriptor rings in host memory (paper section 2.2).
 *
 * The ring models the *contents* of the host-memory descriptor array:
 * slots persist until overwritten, so a stale descriptor from a
 * previous lap is still there when a malicious driver bumps the
 * producer index past the last valid entry -- the attack CDNA's
 * sequence numbers catch.
 *
 * Indices are free-running 32-bit counters; the slot for index i is
 * i % size().  The NIC fetches slot contents via DMA before using them;
 * timing is charged by the caller, this class only holds state.
 *
 * Each slot can carry an attached Packet: the simulation's stand-in for
 * the payload bytes a real buffer would hold.
 */

#ifndef CDNA_NIC_DESC_RING_HH
#define CDNA_NIC_DESC_RING_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "mem/phys_memory.hh"
#include "net/packet.hh"
#include "nic/descriptor.hh"

namespace cdna::nic {

class DescRing
{
  public:
    /**
     * @param entries ring size; must be a power of two so that the
     *                free-running uint32 indices map to consistent
     *                slots across wraparound (i % size == (i + 2^32) %
     *                size only when size divides 2^32)
     * @param base    host physical address of slot 0
     */
    DescRing(std::uint32_t entries, mem::PhysAddr base);

    std::uint32_t size() const { return static_cast<std::uint32_t>(slots_.size()); }

    /** Slot index for a free-running position. */
    std::uint32_t slotOf(std::uint32_t pos) const { return pos % size(); }

    /** Host physical address of a slot (descriptor-fetch DMA). */
    mem::PhysAddr
    slotAddr(std::uint32_t pos) const
    {
        return base_ + static_cast<mem::PhysAddr>(slotOf(pos)) * kDescBytes;
    }

    /** Write a descriptor into the slot for @p pos (host side). */
    void write(std::uint32_t pos, DmaDescriptor d);

    /** Read the slot contents for @p pos (NIC side, post-DMA). */
    const DmaDescriptor &at(std::uint32_t pos) const;

    /** Attach the simulated payload for the packet described at @p pos. */
    void attachPacket(std::uint32_t pos, net::Packet pkt);

    /** Detach (consume) the payload attached at @p pos, if any. */
    std::optional<net::Packet> detachPacket(std::uint32_t pos);

    /** True if a payload is attached at @p pos. */
    bool hasPacket(std::uint32_t pos) const;

  private:
    mem::PhysAddr base_;
    std::vector<DmaDescriptor> slots_;
    /** Payloads by slot; sized at the first attach, so receive rings
     *  (which never carry one) hold none. */
    std::vector<std::optional<net::Packet>> packets_;
};

} // namespace cdna::nic

#endif // CDNA_NIC_DESC_RING_HH
