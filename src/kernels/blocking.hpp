/**
 * @file
 * Blocking constants and integer helpers shared by every kernel
 * variant and by the hw-sim tiling code.
 *
 * The determinism contract of the kernel substrate is defined here:
 * every ISA variant of a floating-point reduction uses the same
 * virtual lane count and the same reduction tree, so generic, AVX2
 * and AVX-512 builds produce byte-identical results (see kernels.hpp
 * for the exact dot-product contract).
 */

#ifndef MRQ_KERNELS_BLOCKING_HPP
#define MRQ_KERNELS_BLOCKING_HPP

#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace mrq {
namespace kernels {

/**
 * Virtual accumulator lanes of every dot-product-shaped reduction.
 * Element i of the reduced range always lands in lane i % kDotLanes,
 * regardless of ISA: the generic build keeps 16 scalar accumulators,
 * AVX2 keeps two 8-float vectors, AVX-512 one 16-float vector.  16 is
 * the widest hardware lane count we target, so no variant has to
 * split or merge lanes.
 */
constexpr std::size_t kDotLanes = 16;

/** Integer ceiling division (shared by kernel tiling and the hw-sim
 *  array/tile geometry in src/hw/).  Mixed unsigned argument widths
 *  promote to the wider type. */
template <typename A, typename B>
constexpr std::common_type_t<A, B>
ceilDiv(A a, B b)
{
    using T = std::common_type_t<A, B>;
    return (static_cast<T>(a) + static_cast<T>(b) - 1) /
           static_cast<T>(b);
}

} // namespace kernels
} // namespace mrq

#endif // MRQ_KERNELS_BLOCKING_HPP
