#include "net/eth_link.hh"

#include <string>
#include <utility>

#include "sim/assert.hh"

namespace cdna::net {

EthLink::EthLink(sim::SimContext &ctx, std::string name, double bits_per_sec,
                 sim::Time propagation)
    : sim::SimObject(ctx, std::move(name)),
      bps_(bits_per_sec),
      ports_{{*this, 0, propagation}, {*this, 1, propagation}}
{
    faults_.drops = &stats().addCounter("fault_drops");
    faults_.corrupts = &stats().addCounter("fault_corrupts");
    faults_.dups = &stats().addCounter("fault_dups");
}

EthLink::LinkPort::LinkPort(EthLink &link, std::uint32_t i,
                            sim::Time propagation)
    : WireSerializer(link, i, link.bps_, propagation, link.faults_, *this),
      far(link.ports_[1 - i]),
      rxPayload(link.stats().addCounter("p" + std::to_string(i) +
                                        "_rx_payload_bytes"))
{
}

Port &
EthLink::bind(LinkEndpoint &ep)
{
    SIM_ASSERT(bound_ < 2, "EthLink has only two ports");
    LinkPort &p = ports_[bound_++];
    p.ep = &ep;
    return p;
}

Port &
EthLink::port(std::uint32_t i)
{
    SIM_ASSERT(i < 2, "EthLink port index out of range");
    return ports_[i];
}

} // namespace cdna::net
