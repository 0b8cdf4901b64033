#include "nic/intel_nic.hh"

#include <algorithm>
#include <utility>

#include "sim/assert.hh"

namespace cdna::nic {

IntelNic::IntelNic(sim::SimContext &ctx, std::string name, mem::PciBus &bus,
                   mem::PhysMemory &mem, mem::DeviceId dev,
                   net::Fabric &fabric, IntelNicParams params)
    : NicBase(ctx, std::move(name), bus, mem, dev, fabric),
      params_(params),
      txBuf_(params.txBufferBytes),
      rxBuf_(params.rxBufferBytes),
      nTxPackets_(stats().addCounter("tx_packets")),
      nTxPayload_(stats().addCounter("tx_payload_bytes")),
      nRxPackets_(stats().addCounter("rx_packets")),
      nRxPayload_(stats().addCounter("rx_payload_bytes")),
      nTxGhost_(stats().addCounter("tx_ghost_descriptors")),
      nTxResetDrops_(stats().addCounter("tx_reset_drops"))
{
    setCoalesce(params.coalesce);
}

void
IntelNic::configureTxRing(std::uint32_t entries, mem::PhysAddr base)
{
    txRing_.emplace(entries, base);
}

void
IntelNic::configureRxRing(std::uint32_t entries, mem::PhysAddr base)
{
    rxRing_.emplace(entries, base);
}

DescRing &
IntelNic::txRing()
{
    SIM_ASSERT(txRing_.has_value(), "TX ring not configured");
    return *txRing_;
}

DescRing &
IntelNic::rxRing()
{
    SIM_ASSERT(rxRing_.has_value(), "RX ring not configured");
    return *rxRing_;
}

void
IntelNic::pioWriteTxProducer(std::uint32_t producer)
{
    txProducer_ = producer;
    startTxFetch();
}

void
IntelNic::pioWriteRxProducer(std::uint32_t producer)
{
    rxProducer_ = producer;
    startRxFetch();
}

void
IntelNic::startTxFetch()
{
    if (txFetchBusy_ || !txRing_)
        return;
    std::uint32_t avail = txProducer_ - txFetched_;
    if (avail == 0)
        return;
    std::uint32_t n = std::min(avail, params_.fetchBatch);
    // Never fetch beyond one ring lap in a single batch.
    n = std::min(n, txRing_->size());
    txFetchBusy_ = true;

    // Descriptor-fetch DMA; split at the ring wrap point.
    mem::SgList sg;
    std::uint32_t first_slot = txRing_->slotOf(txFetched_);
    std::uint32_t till_wrap = std::min(n, txRing_->size() - first_slot);
    sg.push_back({txRing_->slotAddr(txFetched_), till_wrap * kDescBytes});
    if (till_wrap < n)
        sg.push_back({txRing_->slotAddr(txFetched_ + till_wrap),
                      (n - till_wrap) * kDescBytes});

    dma_.read(sg, dmaDomain_, mem::kWholeDevice,
              [this, n, ep = txEpoch_](mem::DmaResult) {
        if (ep != txEpoch_)
            return; // TX engine was quiesced while the fetch was in flight
        for (std::uint32_t i = 0; i < n; ++i)
            txPending_.push_back(txFetched_ + i);
        txFetched_ += n;
        txFetchBusy_ = false;
        startTxFetch();
        pumpTx();
    });
}

void
IntelNic::pumpTx()
{
    if (txDataBusy_ || txPending_.empty())
        return;
    std::uint32_t pos = txPending_.front();
    const DmaDescriptor &desc = txRing_->at(pos);
    auto pkt_opt = txRing_->detachPacket(pos);
    if (!desc.valid() || !pkt_opt.has_value()) {
        // A descriptor with no packet behind it: the device would
        // transmit garbage from whatever the buffer holds.  Count it and
        // move on; the conventional NIC has no way to detect this.
        nTxGhost_.inc();
        txPending_.pop_front();
        ++txConsumer_;
        scheduleConsumerWriteback();
        notePendingEvent();
        pumpTx();
        return;
    }
    if (!params_.tso && pkt_opt->payloadBytes > net::kMss) {
        SIM_PANIC("TSO segment submitted to non-TSO NIC");
    }
    std::uint64_t bytes = pkt_opt->payloadBytes;
    if (!txBuf_.tryReserve(bytes)) {
        // Out of NIC buffering; re-attach and retry when space frees.
        txRing_->attachPacket(pos, std::move(*pkt_opt));
        return;
    }
    txDataBusy_ = true;
    txPending_.pop_front();
    // txDataBusy_ admits one frame in the payload fetch; it waits here.
    txStaged_ = std::move(*pkt_opt);

    dma_.read(desc.sg, dmaDomain_, mem::kWholeDevice,
              [this, bytes, ep = txEpoch_](mem::DmaResult) {
        if (ep != txEpoch_)
            return; // quiesced mid-read: the frame never reaches the wire
        txDataBusy_ = false;
        nTxPackets_.inc();
        nTxPayload_.inc(txStaged_.payloadBytes);
        sim::Time gap = params_.txInterFrameGap *
                        static_cast<sim::Time>(txStaged_.wireFrames());
        port_.send(std::move(txStaged_), gap, [this, bytes, ep] {
            if (ep != txEpoch_)
                return; // quiesced while on the wire; state already reset
            txBuf_.release(bytes);
            ++txConsumer_;
            scheduleConsumerWriteback();
            notePendingEvent();
            pumpTx();
        });
        pumpTx();
    });
}

void
IntelNic::startRxFetch()
{
    if (rxFetchBusy_ || !rxRing_)
        return;
    std::uint32_t avail = rxProducer_ - rxFetched_;
    if (avail == 0)
        return;
    std::uint32_t n = std::min({avail, params_.fetchBatch,
                                rxRing_->size()});
    rxFetchBusy_ = true;

    mem::SgList sg;
    std::uint32_t first_slot = rxRing_->slotOf(rxFetched_);
    std::uint32_t till_wrap = std::min(n, rxRing_->size() - first_slot);
    sg.push_back({rxRing_->slotAddr(rxFetched_), till_wrap * kDescBytes});
    if (till_wrap < n)
        sg.push_back({rxRing_->slotAddr(rxFetched_ + till_wrap),
                      (n - till_wrap) * kDescBytes});

    dma_.read(sg, dmaDomain_, mem::kWholeDevice, [this, n](mem::DmaResult) {
        rxFetched_ += n;
        rxFetchBusy_ = false;
        startRxFetch();
    });
}

void
IntelNic::receiveFrame(net::Packet pkt)
{
    if (!promiscuous_ && !(pkt.dst == mac_)) {
        nRxDropFilter_.inc();
        return;
    }
    if (rxFetched_ == rxUsed_) {
        nRxDropNoDesc_.inc();
        startRxFetch();
        return;
    }
    std::uint64_t bytes = pkt.payloadBytes;
    if (!rxBuf_.tryReserve(bytes)) {
        nRxDropNoBuf_.inc();
        return;
    }
    std::uint32_t pos = rxUsed_++;
    const DmaDescriptor &desc = rxRing_->at(pos);
    // Prefetch more descriptors as the supply drains.
    if (rxFetched_ - rxUsed_ < params_.fetchBatch / 2)
        startRxFetch();

    // Only the frame's bytes cross the bus, not the whole buffer.
    std::uint64_t wire = pkt.payloadBytes + net::kTcpIpHeader;
    mem::SgList wsg;
    std::uint64_t left = wire;
    for (const auto &e : desc.sg) {
        if (left == 0)
            break;
        auto take = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(e.len, left));
        wsg.push_back({e.addr, take});
        left -= take;
    }

    rxLanding_.push_back({std::move(pkt), false});
    dma_.write(wsg, dmaDomain_, mem::kWholeDevice,
               [this, pos, bytes](mem::DmaResult) {
        rxBuf_.release(bytes);
        nRxPackets_.inc();
        Landing &l = rxLanding_[pos - rxConsumer_];
        nRxPayload_.inc(l.pkt.payloadBytes);
        l.landed = true;
        // The consumer index tells the driver every slot before it is
        // filled, so a frame whose write lands early (an earlier
        // frame's DMA was delayed) waits for the ones before it.
        if (pos != rxConsumer_)
            return;
        while (!rxLanding_.empty() && rxLanding_.front().landed) {
            rxReady_.push_back(
                RxDelivery{rxConsumer_++, std::move(rxLanding_.front().pkt)});
            rxLanding_.pop_front();
        }
        scheduleConsumerWriteback();
        notePendingEvent();
    });
}

std::size_t
IntelNic::drainRx(std::vector<RxDelivery> &out)
{
    std::size_t n = rxReady_.size();
    out.insert(out.end(), std::make_move_iterator(rxReady_.begin()),
               std::make_move_iterator(rxReady_.end()));
    rxReady_.clear();
    return n;
}

std::uint64_t
IntelNic::quiesceTx()
{
    ++txEpoch_;
    std::uint64_t dropped = 0;
    if (txRing_) {
        for (std::uint32_t pos : txPending_)
            if (txRing_->detachPacket(pos).has_value())
                ++dropped;
    }
    // Descriptors advertised but never fetched die with the engine too.
    dropped += txProducer_ - txFetched_;
    txPending_.clear();
    txBuf_.reset();
    txFetchBusy_ = false;
    txDataBusy_ = false;
    txFetched_ = txProducer_;
    if (txConsumer_ != txProducer_) {
        // Publish the skip so the driver's completion accounting
        // (in-flight byte queue) drains instead of wedging.
        txConsumer_ = txProducer_;
        scheduleConsumerWriteback();
        notePendingEvent();
    }
    nTxResetDrops_.inc(dropped);
    return dropped;
}

void
IntelNic::scheduleConsumerWriteback()
{
    // Consumer-index writebacks to host memory merge: one small DMA can
    // publish many completions.
    if (writebackBusy_) {
        writebackAgain_ = true;
        return;
    }
    writebackBusy_ = true;
    mem::SgList sg{{statusAddr_, 8}};
    dma_.write(sg, dmaDomain_, mem::kWholeDevice, [this](mem::DmaResult) {
        writebackBusy_ = false;
        if (std::exchange(writebackAgain_, false))
            scheduleConsumerWriteback();
    });
}

} // namespace cdna::nic
