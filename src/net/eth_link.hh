/**
 * @file
 * Full-duplex point-to-point Ethernet link: the trivial 2-port Fabric.
 *
 * Each direction is an independent serially-reused channel, one
 * WireSerializer per port: a frame (or TSO burst) occupies the wire for
 * wireBytes() at the link rate, then is delivered to the far endpoint
 * after the propagation delay.  Frames queued behind it wait in the
 * serializer's FIFO with their event sequence numbers reserved; only
 * the head frame's events are scheduled.  The paper's testbed used
 * dedicated Gigabit links between the Xen host and a tuned peer; this
 * model reproduces the 949 Mb/s per-link TCP-goodput ceiling that bounds
 * the CDNA saturation plateau.
 *
 * Endpoints bind() in any order; the first binder gets port 0, the
 * second port 1, and each port transmits toward the other's endpoint.
 */

#ifndef CDNA_NET_ETH_LINK_HH
#define CDNA_NET_ETH_LINK_HH

#include <cstdint>
#include <utility>

#include "net/fabric.hh"
#include "net/packet.hh"
#include "net/wire_serializer.hh"
#include "sim/assert.hh"
#include "sim/sim_object.hh"

namespace cdna::net {

class EthLink : public sim::SimObject, public Fabric
{
  public:
    /**
     * @param ctx          simulation context
     * @param name         component name
     * @param bits_per_sec line rate (default Gigabit Ethernet)
     * @param propagation  one-way propagation delay
     */
    EthLink(sim::SimContext &ctx, std::string name,
            double bits_per_sec = 1.0e9,
            sim::Time propagation = sim::nanoseconds(500));

    /** Claim the next of the two ports (asserts on a third binder). */
    Port &bind(LinkEndpoint &ep) override;

    double bitsPerSec() const override { return bps_; }

    /** Port @p i's handle (bound or not; tests peek at counters). */
    Port &port(std::uint32_t i);

  private:
    /** Port i: its wire ends at port 1-i's endpoint. */
    struct LinkPort final : LinkEndpoint, WireSerializer
    {
        LinkPort(EthLink &link, std::uint32_t i, sim::Time propagation);

        LinkPort &far;
        LinkEndpoint *ep = nullptr;
        sim::Counter &rxPayload;

        std::uint64_t payloadDelivered() const override
        {
            return rxPayload.value();
        }
        sim::Time
        send(Packet pkt, sim::Time extra_gap,
             sim::InplaceCallback serialized) override
        {
            SIM_ASSERT(far.ep != nullptr, "link far endpoint not bound");
            return WireSerializer::send(std::move(pkt), extra_gap,
                                        std::move(serialized));
        }
        /** This port's wire delivered a frame to the far endpoint. */
        void
        receiveFrame(Packet pkt) override
        {
            far.rxPayload.inc(pkt.payloadBytes);
            far.ep->receiveFrame(std::move(pkt));
        }
    };

    double bps_;
    WireFaultStats faults_;
    LinkPort ports_[2];
    std::uint32_t bound_ = 0;
};

} // namespace cdna::net

#endif // CDNA_NET_ETH_LINK_HH
