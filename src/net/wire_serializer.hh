/**
 * @file
 * The cable model both fabrics share: a Port whose transmit side is one
 * serialized wire.  EthLink ports and EthSwitch ingress ports are
 * WireSerializers that differ only in where the wire delivers.
 *
 * A frame occupies the wire for wireBytes() at the line rate (plus any
 * extra inter-frame gap the sender charges), fires the sender's
 * `serialized` callback when its last byte has left, and reaches the
 * delivery target one propagation delay later -- unless the fault
 * injector, drawn once per frame at send time, drops it, corrupts it,
 * or delivers it twice.
 *
 * Frames on the wire wait as data, not as events: the serializer keeps
 * two FIFOs (pending `serialized` callbacks, frames in flight) and only
 * the head of each has a scheduled event, so a port holds at most two
 * pending events however deep its sender's transmit buffer is.  Each
 * frame still reserves, at send time and in the order the eager events
 * used, the queue sequence numbers its events would have taken
 * (EventQueue::reserveSeq), so equal-time ties dispatch exactly as if
 * every event had been scheduled at send time.  A dropped frame
 * reserves no delivery number; a duplicate reserves the one directly
 * after its original's.
 */

#ifndef CDNA_NET_WIRE_SERIALIZER_HH
#define CDNA_NET_WIRE_SERIALIZER_HH

#include <cstdint>
#include <deque>

#include "net/fabric.hh"
#include "net/packet.hh"
#include "sim/sim_object.hh"

namespace cdna::net {

/** The owning fabric's counters for injected wire faults. */
struct WireFaultStats
{
    sim::Counter *drops = nullptr;
    sim::Counter *corrupts = nullptr;
    sim::Counter *dups = nullptr;
};

class WireSerializer : public Port
{
  public:
    /**
     * Port @p index of @p fabric (registering `p<index>_tx_frames` and
     * `p<index>_tx_payload_bytes` there): a wire of @p bits_per_sec and
     * @p propagation delay whose frames reach @p target.  @p faults is
     * read at send time only.
     */
    WireSerializer(sim::SimObject &fabric, std::uint32_t index,
                   double bits_per_sec, sim::Time propagation,
                   const WireFaultStats &faults, LinkEndpoint &target);
    WireSerializer(const WireSerializer &) = delete;
    WireSerializer &operator=(const WireSerializer &) = delete;

    sim::Time send(Packet pkt, sim::Time extra_gap,
                   sim::InplaceCallback serialized) override;
    bool busy() const override { return busyUntil_ > fabric_.now(); }
    std::uint64_t payloadCarried() const override
    {
        return txPayload_.value();
    }

  private:
    /** A FIFO entry: its event's time and reserved sequence number. */
    template <typename T>
    struct Timed
    {
        sim::Time when;
        std::uint64_t seq;
        T item;
    };

    void armSerialized();
    void armDelivery();

    sim::SimObject &fabric_;
    double psPerByte_;
    sim::Time propagation_;
    const WireFaultStats &faults_;
    LinkEndpoint &target_;
    sim::Counter &txFrames_;
    sim::Counter &txPayload_;
    sim::Time busyUntil_ = 0;
    std::deque<Timed<sim::InplaceCallback>> serialized_;
    std::deque<Timed<Packet>> inFlight_;
};

} // namespace cdna::net

#endif // CDNA_NET_WIRE_SERIALIZER_HH
