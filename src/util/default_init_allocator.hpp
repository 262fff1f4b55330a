// An allocator whose containers leave new elements default-initialised.
//
// std::vector<T>(n) and resize(n) value-initialise, so a vector of a
// trivial T is zero-filled by the constructing thread before any code that
// fills it runs. For an array that a parallel pass overwrites in full, that
// fill is a serial pass that does nothing but take the page faults: with
// this allocator the elements start unwritten, and the pass that fills
// them is the first to touch their pages, on every thread of its team.
#pragma once

#include <memory>
#include <new>
#include <type_traits>

namespace crcw::util {

/// std::allocator, except that constructing an element with no arguments
/// default-initialises it (for a trivial T: leaves it unwritten). Any other
/// construction finds no matching construct() here, so
/// std::allocator_traits constructs it as std::allocator would.
template <typename T>
class DefaultInitAllocator : public std::allocator<T> {
 public:
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };

  using std::allocator<T>::allocator;

  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
};

}  // namespace crcw::util
