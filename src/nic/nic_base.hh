/**
 * @file
 * Common machinery for simulated network interfaces.
 *
 * A NIC terminates one Ethernet link, owns a DMA engine on the PCI
 * bus, and raises a physical interrupt line that the hypervisor (or
 * native OS) fields.  Interrupt coalescing -- "NIC coalescing options
 * were tuned" in the paper's setup -- is modeled with a delay window
 * plus a frame-count threshold, which is what drives the interrupt-rate
 * columns of Tables 2 and 3.
 */

#ifndef CDNA_NIC_NIC_BASE_HH
#define CDNA_NIC_NIC_BASE_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "mem/dma_engine.hh"
#include "net/fabric.hh"
#include "sim/sim_object.hh"

namespace cdna::nic {

/** Interrupt-coalescing configuration. */
struct CoalesceParams
{
    /** Max time a completion may wait before an interrupt fires. */
    sim::Time delay = sim::microseconds(70);
    /** Fire immediately once this many events are pending. */
    std::uint32_t eventThreshold = 64;
};

/**
 * Received frames a driver has drained from its NIC, waiting for the
 * driver tasks that handle them.  Each interrupt appends one batch
 * (drainRx() into tail()) and posts one task; the tasks run in posting
 * order, so each pops the next batch's frames from the front.  The
 * buffer keeps its capacity, so steady-state draining never allocates,
 * however many batches overlap.
 */
template <typename Delivery>
class RxBatches
{
  public:
    /** The buffer drainRx() appends the next batch to. */
    std::vector<Delivery> &tail() { return items_; }

    /** The oldest frame not yet handled. */
    Delivery &pop() { return items_[head_++]; }

    /** Drop handled frames (at the end of a batch's task). */
    void
    compact()
    {
        if (head_ == items_.size()) {
            items_.clear();
            head_ = 0;
        } else if (2 * head_ >= items_.size()) {
            items_.erase(items_.begin(),
                         items_.begin() + static_cast<std::ptrdiff_t>(head_));
            head_ = 0;
        }
    }

  private:
    std::vector<Delivery> items_;
    std::size_t head_ = 0;
};

class NicBase : public sim::SimObject, public net::LinkEndpoint
{
  public:
    NicBase(sim::SimContext &ctx, std::string name, mem::PciBus &bus,
            mem::PhysMemory &mem, mem::DeviceId dev, net::Fabric &fabric);

    /** The fabric port this NIC is bound to. */
    net::Port &port() { return port_; }
    const net::Port &port() const { return port_; }

    /** Install the physical interrupt line (wired by the hypervisor). */
    void setIrqLine(std::function<void()> fn) { irq_ = std::move(fn); }

    mem::DeviceId deviceId() const { return dma_.deviceId(); }
    mem::DmaEngine &dma() { return dma_; }

    void setCoalesce(CoalesceParams p) { coalesce_ = p; }
    const CoalesceParams &coalesce() const { return coalesce_; }

    /** Physical interrupts raised. */
    std::uint64_t irqCount() const { return nIrqs_.value(); }

    /** Frames dropped for lack of a posted receive descriptor. */
    std::uint64_t rxDropNoDesc() const { return nRxDropNoDesc_.value(); }
    /** Frames dropped by MAC filtering. */
    std::uint64_t rxDropFilter() const { return nRxDropFilter_.value(); }

  protected:
    /**
     * Note a host-visible completion event; a physical interrupt fires
     * when the coalescing window closes (or the threshold is hit).
     */
    void notePendingEvent();

    /** Immediately raise the physical interrupt line. */
    void raiseIrq();

    net::Port &port_;
    mem::DmaEngine dma_;

    sim::Counter &nIrqs_;
    sim::Counter &nRxDropNoDesc_;
    sim::Counter &nRxDropNoBuf_;
    sim::Counter &nRxDropFilter_;

  private:
    std::function<void()> irq_;
    CoalesceParams coalesce_;
    std::uint32_t pendingEvents_ = 0;
    sim::EventId coalesceTimer_ = sim::kInvalidEvent;
};

} // namespace cdna::nic

#endif // CDNA_NIC_NIC_BASE_HH
