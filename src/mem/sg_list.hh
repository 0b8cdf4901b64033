/**
 * @file
 * Scatter/gather lists: the address/length pairs a DMA descriptor and a
 * host packet buffer carry.
 *
 * Every frame on the datapath copies its list several times (packet ->
 * protection request -> ring descriptor -> pinned-page record), so the
 * list holds kInline entries inside the object and only longer lists
 * touch the heap.  Two entries cover every non-TSO frame: a payload of
 * at most one MTU spans at most two 4 KiB pages.  TSO segments (up to
 * 17 pages) still allocate.
 */

#ifndef CDNA_MEM_SG_LIST_HH
#define CDNA_MEM_SG_LIST_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <utility>

#include "mem/phys_memory.hh"

namespace cdna::mem {

/** One contiguous piece of a scatter/gather transfer. */
struct SgEntry
{
    PhysAddr addr = 0;
    std::uint32_t len = 0;
};

/** Scatter/gather list: a vector of SgEntry with two entries inline. */
class SgList
{
  public:
    static constexpr std::uint32_t kInline = 2;

    SgList() : inline_{} {}

    SgList(std::initializer_list<SgEntry> init) : SgList()
    {
        reserve(static_cast<std::uint32_t>(init.size()));
        std::copy(init.begin(), init.end(), data());
        size_ = static_cast<std::uint32_t>(init.size());
    }

    SgList(const SgList &o) : SgList() { assign(o); }

    SgList(SgList &&o) noexcept : SgList() { steal(o); }

    SgList &
    operator=(const SgList &o)
    {
        if (this != &o)
            assign(o);
        return *this;
    }

    SgList &
    operator=(SgList &&o) noexcept
    {
        if (this != &o) {
            release();
            steal(o);
        }
        return *this;
    }

    ~SgList() { release(); }

    void
    push_back(const SgEntry &e)
    {
        if (size_ == cap_)
            reserve(cap_ * 2);
        data()[size_++] = e;
    }

    void clear() { size_ = 0; }
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    /** True while the entries live inside the object (no heap block). */
    bool isInline() const { return cap_ == kInline; }

    SgEntry &operator[](std::size_t i) { return data()[i]; }
    const SgEntry &operator[](std::size_t i) const { return data()[i]; }

    SgEntry *begin() { return data(); }
    SgEntry *end() { return data() + size_; }
    const SgEntry *begin() const { return data(); }
    const SgEntry *end() const { return data() + size_; }

  private:
    SgEntry *data() { return isInline() ? inline_ : heap_; }
    const SgEntry *data() const { return isInline() ? inline_ : heap_; }

    /** Grow the capacity to at least @p n, keeping the entries. */
    void
    reserve(std::uint32_t n)
    {
        if (n <= cap_)
            return;
        auto *grown = new SgEntry[n];
        std::copy_n(data(), size_, grown);
        release();
        heap_ = grown;
        cap_ = n;
    }

    void
    assign(const SgList &o)
    {
        size_ = 0;
        reserve(o.size_);
        std::copy_n(o.data(), o.size_, data());
        size_ = o.size_;
    }

    void
    steal(SgList &o) noexcept
    {
        if (o.isInline()) {
            std::copy_n(o.inline_, o.size_, inline_);
        } else {
            heap_ = o.heap_;
            cap_ = o.cap_;
            o.cap_ = kInline;
        }
        size_ = std::exchange(o.size_, 0);
    }

    /** Free the heap block (if any) and go back to inline storage. */
    void
    release() noexcept
    {
        if (!isInline())
            delete[] heap_;
        cap_ = kInline;
    }

    union
    {
        SgEntry inline_[kInline];
        SgEntry *heap_;
    };
    std::uint32_t size_ = 0;
    std::uint32_t cap_ = kInline;
};

static_assert(sizeof(SgList) == 40, "two inline entries plus count/cap");

/** Total byte count of a scatter/gather list. */
inline std::uint64_t
sgBytes(const SgList &sg)
{
    std::uint64_t n = 0;
    for (const auto &e : sg)
        n += e.len;
    return n;
}

} // namespace cdna::mem

#endif // CDNA_MEM_SG_LIST_HH
