/**
 * @file
 * Per-device DMA engine.
 *
 * Devices move data to/from host memory through a DmaEngine, which
 * charges the shared PCI bus for the bytes, runs the (optional) IOMMU
 * check, and records every page touched against the ownership map so
 * protection violations are detected at *access* time -- the property
 * CDNA's deferred-reallocation rule exists to preserve.
 */

#ifndef CDNA_MEM_DMA_ENGINE_HH
#define CDNA_MEM_DMA_ENGINE_HH

#include <cstdint>
#include <vector>

#include "mem/iommu.hh"
#include "mem/pci_bus.hh"
#include "mem/phys_memory.hh"
#include "mem/sg_list.hh"
#include "sim/inplace_function.hh"
#include "sim/sim_object.hh"

namespace cdna::mem {

/** Outcome of a DMA operation. */
struct DmaResult
{
    bool safe = true;           //!< no ownership violations occurred
    std::uint32_t blockedPages = 0; //!< pages the IOMMU refused to access
};

class DmaEngine : public sim::SimObject
{
  public:
    using Callback = sim::InplaceFunction<void(DmaResult)>;

    /**
     * @param ctx   simulation context
     * @param name  component name
     * @param bus   shared PCI bus the transfers are charged to
     * @param mem   host physical memory (ownership map)
     * @param dev   this device's id for IOMMU lookups
     * @param iommu optional IOMMU; null means unchecked 2007-era x86 DMA
     */
    DmaEngine(sim::SimContext &ctx, std::string name, PciBus &bus,
              PhysMemory &mem, DeviceId dev, Iommu *iommu = nullptr);

    /** Device reads host memory (descriptor fetch, TX payload). */
    void read(const SgList &sg, DomainId behalf, ContextId cxt, Callback cb);

    /** Device writes host memory (RX payload, completion records). */
    void write(const SgList &sg, DomainId behalf, ContextId cxt, Callback cb);

    DeviceId deviceId() const { return dev_; }
    void setIommu(Iommu *iommu) { iommu_ = iommu; }

    std::uint64_t bytesRead() const { return nReadBytes_.value(); }

  private:
    /** A transfer on the bus: its verdict and completion wait here, and
     *  the bus event captures only the slot index. */
    struct Pending
    {
        DmaResult result;
        Callback cb;
    };

    void doTransfer(const SgList &sg, DomainId behalf, ContextId cxt,
                    bool write, Callback cb);
    /** Run and free the completion parked in @p slot. */
    void complete(std::uint32_t slot);

    PciBus &bus_;
    PhysMemory &mem_;
    DeviceId dev_;
    Iommu *iommu_;
    std::vector<Pending> pending_;
    std::vector<std::uint32_t> freePending_;

    sim::Counter &nReads_;
    sim::Counter &nWrites_;
    sim::Counter &nReadBytes_;
    sim::Counter &nWriteBytes_;
};

} // namespace cdna::mem

#endif // CDNA_MEM_DMA_ENGINE_HH
