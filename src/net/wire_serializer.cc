#include "net/wire_serializer.hh"

#include <algorithm>
#include <string>
#include <utility>

#include "sim/fault_injector.hh"

namespace cdna::net {

WireSerializer::WireSerializer(sim::SimObject &fabric, std::uint32_t index,
                               double bits_per_sec, sim::Time propagation,
                               const WireFaultStats &faults,
                               LinkEndpoint &target)
    : fabric_(fabric),
      psPerByte_(static_cast<double>(sim::kSecond) * 8.0 / bits_per_sec),
      propagation_(propagation),
      faults_(faults),
      target_(target),
      txFrames_(fabric.stats().addCounter("p" + std::to_string(index) +
                                          "_tx_frames")),
      txPayload_(fabric.stats().addCounter("p" + std::to_string(index) +
                                           "_tx_payload_bytes"))
{
    index_ = index;
}

sim::Time
WireSerializer::send(Packet pkt, sim::Time extra_gap,
                     sim::InplaceCallback serialized)
{
    txFrames_.inc(pkt.wireFrames());
    txPayload_.inc(pkt.payloadBytes);
    sim::Time end = std::max(fabric_.now(), busyUntil_) +
                    static_cast<sim::Time>(
                        psPerByte_ * static_cast<double>(pkt.wireBytes()));
    busyUntil_ = end + extra_gap;

    if (serialized) {
        serialized_.emplace_back(end, fabric_.events().reserveSeq(),
                                 std::move(serialized));
        if (serialized_.size() == 1)
            armSerialized();
    }

    // Fault injection: the frame still occupied the wire, but it may
    // never reach the far side (drop), arrive with its payload mangled
    // (corrupt: it is still switched and DMAed, and the receiver's
    // checksum check discards it), or arrive twice (duplicate).
    using Fault = sim::FaultInjector::FrameFault;
    auto fate = Fault::kNone;
    if (sim::FaultInjector *fi = fabric_.ctx().faultInjector();
        fi && fi->framesArmed())
        fate = fi->frameFault();
    if (fate == Fault::kDrop) {
        faults_.drops->inc();
        return end;
    }
    if (fate == Fault::kCorrupt) {
        faults_.corrupts->inc();
        pkt.intact = false;
    }

    // Packets leave host memory when they hit the wire.
    pkt.hostSg.clear();
    bool idle = inFlight_.empty();
    sim::Time at = end + propagation_;
    if (fate == Fault::kDuplicate) {
        faults_.dups->inc();
        inFlight_.emplace_back(at, fabric_.events().reserveSeq(), pkt);
        pkt.duplicated = true;
    }
    inFlight_.emplace_back(at, fabric_.events().reserveSeq(), std::move(pkt));
    if (idle)
        armDelivery();
    return end;
}

void
WireSerializer::armSerialized()
{
    const auto &head = serialized_.front();
    fabric_.events().scheduleAtSeq(head.when, head.seq, [this] {
        // Run the head in place: a send() from inside it appends behind
        // the head, which leaves the head's reference valid.
        serialized_.front().item();
        serialized_.pop_front();
        if (!serialized_.empty())
            armSerialized();
    });
}

void
WireSerializer::armDelivery()
{
    const auto &head = inFlight_.front();
    fabric_.events().scheduleAtSeq(head.when, head.seq, [this] {
        target_.receiveFrame(std::move(inFlight_.front().item));
        inFlight_.pop_front();
        if (!inFlight_.empty())
            armDelivery();
    });
}

} // namespace cdna::net
