// Move-only continuation for the simulator's event path.
//
// Every deferred piece of simulated work — an engine event, a processor
// span's completion, a syscall's return — is a `void()` callable.  Callback
// stores captures of up to kInlineSize bytes inside the object itself, so
// scheduling one, moving it through a slot, and running it touch no heap.
// A larger closure (typically one that captures another Callback) takes one
// heap block, owned and freed by the Callback.
//
// Unlike std::function, Callback is move-only (closures may own move-only
// state, such as another Callback) and its inline buffer is 48 bytes, not
// 16: the kernel's quantum timer and exit continuations carry 24-32 bytes
// of captures and would otherwise allocate on every dispatch and exit.

#ifndef SA_SIM_CALLBACK_H_
#define SA_SIM_CALLBACK_H_

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

#include "src/common/assert.h"

namespace sa::sim {

class Callback {
 public:
  static constexpr size_t kInlineSize = 48;

  // True if a closure of type F is stored without a heap block.
  template <typename F>
  static constexpr bool kStoredInline = sizeof(F) <= kInlineSize &&
                                        alignof(F) <= alignof(void*) &&
                                        std::is_nothrow_move_constructible_v<F>;

  Callback() noexcept = default;
  Callback(std::nullptr_t) noexcept {}  // NOLINT: mirrors std::function

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, Callback> &&
                                        std::is_invocable_r_v<void, D&>>>
  Callback(F&& f) {  // NOLINT: implicit, like std::function
    if constexpr (kStoredInline<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(f)));
      ops_ = &kHeapOps<D>;
    }
  }

  Callback(Callback&& other) noexcept { TakeFrom(other); }
  Callback& operator=(Callback&& other) noexcept {
    if (this != &other) {
      Reset();
      TakeFrom(other);
    }
    return *this;
  }
  Callback& operator=(std::nullptr_t) noexcept {
    Reset();
    return *this;
  }
  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;
  ~Callback() { Reset(); }

  // Runs the closure.  The closure stays alive (and callable again) until
  // the Callback is reset, reassigned or destroyed.
  void operator()() const {
    SA_DCHECK(ops_ != nullptr);
    ops_->invoke(storage_);
  }

  explicit operator bool() const noexcept { return ops_ != nullptr; }
  friend bool operator==(const Callback& c, std::nullptr_t) noexcept {
    return c.ops_ == nullptr;
  }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    // Move-constructs the closure into `to` and destroys it in `from`.
    void (*relocate)(void* from, void* to) noexcept;
    void (*destroy)(void* storage) noexcept;
  };

  template <typename D>
  static D* HeapPtr(void* storage) {
    return *std::launder(static_cast<D**>(storage));
  }

  template <typename D>
  static constexpr Ops kInlineOps = {
      [](void* s) { (*std::launder(static_cast<D*>(s)))(); },
      [](void* from, void* to) noexcept {
        D* src = std::launder(static_cast<D*>(from));
        ::new (to) D(std::move(*src));
        src->~D();
      },
      [](void* s) noexcept { std::launder(static_cast<D*>(s))->~D(); },
  };
  template <typename D>
  static constexpr Ops kHeapOps = {
      [](void* s) { (*HeapPtr<D>(s))(); },
      [](void* from, void* to) noexcept { ::new (to) D*(HeapPtr<D>(from)); },
      [](void* s) noexcept { delete HeapPtr<D>(s); },
  };

  void TakeFrom(Callback& other) noexcept {
    if (other.ops_ != nullptr) {
      other.ops_->relocate(other.storage_, storage_);
      ops_ = std::exchange(other.ops_, nullptr);
    }
  }
  void Reset() noexcept {
    if (ops_ != nullptr) {
      // Clear first, so the Callback reads as empty while its closure dies.
      std::exchange(ops_, nullptr)->destroy(storage_);
    }
  }

  alignas(void*) mutable unsigned char storage_[kInlineSize];
  const Ops* ops_ = nullptr;
};

}  // namespace sa::sim

#endif  // SA_SIM_CALLBACK_H_
