/**
 * @file
 * Move-only callable with inline storage, the simulator's replacement
 * for std::function on every per-event and per-frame hop.
 *
 * Callables up to kInlineSize bytes (every capture pattern on the frame
 * path: a component pointer plus a few indices, epochs and byte counts)
 * are stored inside the object itself; larger ones fall back to one
 * heap allocation.  Per-frame state that does not fit (a packet, a
 * scatter/gather list, another callback) waits as data in the component
 * that owns it, and the callback captures only [this, index].
 */

#ifndef CDNA_SIM_INPLACE_FUNCTION_HH
#define CDNA_SIM_INPLACE_FUNCTION_HH

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace cdna::sim {

template <typename Signature>
class InplaceFunction;

template <typename R, typename... Args>
class InplaceFunction<R(Args...)>
{
  public:
    static constexpr std::size_t kInlineSize = 48;
    /** Pointer alignment keeps the whole object at 56 bytes (one event
     *  node fits a cache line); a capture needing more takes the heap. */
    static constexpr std::size_t kInlineAlign = alignof(void *);

    InplaceFunction() = default;

    template <typename F,
              typename Fn = std::decay_t<F>,
              typename = std::enable_if_t<
                  !std::is_same_v<Fn, InplaceFunction> &&
                  std::is_invocable_r_v<R, Fn &, Args...>>>
    InplaceFunction(F &&f) // NOLINT: implicit like std::function
    {
        if constexpr (fitsInline<Fn>()) {
            ::new (static_cast<void *>(buf_)) Fn(std::forward<F>(f));
            vt_ = inlineVtable<Fn>();
        } else {
            *reinterpret_cast<Fn **>(buf_) = new Fn(std::forward<F>(f));
            vt_ = heapVtable<Fn>();
        }
    }

    InplaceFunction(InplaceFunction &&o) noexcept { moveFrom(o); }

    InplaceFunction &
    operator=(InplaceFunction &&o) noexcept
    {
        if (this != &o) {
            reset();
            moveFrom(o);
        }
        return *this;
    }

    InplaceFunction(const InplaceFunction &) = delete;
    InplaceFunction &operator=(const InplaceFunction &) = delete;

    ~InplaceFunction() { reset(); }

    explicit operator bool() const { return vt_ != nullptr; }

    R
    operator()(Args... args)
    {
        return vt_->invoke(buf_, std::forward<Args>(args)...);
    }

    void
    reset()
    {
        if (vt_) {
            vt_->destroy(buf_);
            vt_ = nullptr;
        }
    }

    /** True when a callable of type @p Fn is stored without the heap. */
    template <typename Fn>
    static constexpr bool
    fitsInline()
    {
        return sizeof(Fn) <= kInlineSize &&
               alignof(Fn) <= kInlineAlign &&
               std::is_nothrow_move_constructible_v<Fn>;
    }

  private:
    struct VTable
    {
        R (*invoke)(void *, Args &&...);
        void (*move)(void *dst, void *src) noexcept;
        void (*destroy)(void *) noexcept;
    };

    template <typename Fn>
    static const VTable *
    inlineVtable()
    {
        static const VTable vt = {
            [](void *p, Args &&...args) -> R {
                return (*static_cast<Fn *>(p))(std::forward<Args>(args)...);
            },
            [](void *dst, void *src) noexcept {
                ::new (dst) Fn(std::move(*static_cast<Fn *>(src)));
                static_cast<Fn *>(src)->~Fn();
            },
            [](void *p) noexcept { static_cast<Fn *>(p)->~Fn(); },
        };
        return &vt;
    }

    template <typename Fn>
    static const VTable *
    heapVtable()
    {
        static const VTable vt = {
            [](void *p, Args &&...args) -> R {
                return (**static_cast<Fn **>(p))(std::forward<Args>(args)...);
            },
            [](void *dst, void *src) noexcept {
                *static_cast<Fn **>(dst) = *static_cast<Fn **>(src);
            },
            [](void *p) noexcept { delete *static_cast<Fn **>(p); },
        };
        return &vt;
    }

    void
    moveFrom(InplaceFunction &o) noexcept
    {
        vt_ = o.vt_;
        if (vt_) {
            vt_->move(buf_, o.buf_);
            o.vt_ = nullptr;
        }
    }

    alignas(kInlineAlign) unsigned char buf_[kInlineSize];
    const VTable *vt_ = nullptr;
};

/** The event queue's callback type: void() with inline storage. */
using InplaceCallback = InplaceFunction<void()>;

} // namespace cdna::sim

#endif // CDNA_SIM_INPLACE_FUNCTION_HH
