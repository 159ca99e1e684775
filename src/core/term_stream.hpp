/**
 * @file
 * Allocation-free term-decomposition walkers.
 *
 * The original encodeNaf/encodeUbr/encodeBooth (src/core/sdr.cpp)
 * materialize a std::vector<Term> per value, which dominates the cost
 * of the term-projection hot loops (one or two heap allocations per
 * tensor element).  These visitors stream the identical digit
 * sequence to a callback instead; sdr.cpp builds its vectors through
 * them, so the two can never drift.
 *
 * Emission order is ascending exponent (the natural walk direction).
 * encodeTerms() returns descending order; callers that care about
 * rank (top-beta selection) should select by exponent rather than
 * rely on emission order — see kernels::termMasks.
 */

#ifndef MRQ_CORE_TERM_STREAM_HPP
#define MRQ_CORE_TERM_STREAM_HPP

#include <cstdint>
#include <cstdlib>

#include "common/logging.hpp"
#include "core/term.hpp"

namespace mrq {

/** Stream the NAF digits of @p value as (exponent, sign) pairs,
 *  ascending exponent. */
template <typename Fn>
inline void
visitNafTerms(std::int64_t value, Fn&& fn)
{
    std::int64_t n = value;
    std::int8_t exp = 0;
    while (n != 0) {
        if (n & 1) {
            // n mod 4 == 1 -> digit +1; n mod 4 == 3 -> digit -1.
            const std::int64_t digit = 2 - (n & 3);
            fn(exp, static_cast<std::int8_t>(digit > 0 ? 1 : -1));
            n -= digit;
        }
        n >>= 1;
        ++exp;
        invariant(exp < 72, "visitNafTerms: runaway exponent");
    }
}

/** Stream the plain-binary terms of @p value, ascending exponent. */
template <typename Fn>
inline void
visitUbrTerms(std::int64_t value, Fn&& fn)
{
    const std::int8_t sign = value < 0 ? -1 : 1;
    std::uint64_t mag = value < 0
                            ? static_cast<std::uint64_t>(-(value + 1)) + 1
                            : static_cast<std::uint64_t>(value);
    std::int8_t exp = 0;
    while (mag != 0) {
        if (mag & 1)
            fn(exp, sign);
        mag >>= 1;
        ++exp;
    }
}

/** Stream the radix-4 Booth terms of @p value, ascending exponent. */
template <typename Fn>
inline void
visitBoothTerms(std::int64_t value, Fn&& fn)
{
    std::int64_t n = value;
    std::int8_t pos = 0;
    while (n != 0) {
        const std::int64_t window = n & 3; // low two bits
        std::int64_t digit = 0;
        switch (window) {
          case 0:
            digit = 0;
            break;
          case 1:
            digit = 1;
            break;
          case 2:
            // Choose +2 or -2 based on the next bit to keep the
            // recoding canonical (avoid carries when possible).
            digit = (n & 4) ? -2 : 2;
            break;
          case 3:
            digit = -1;
            break;
          default:
            panic("visitBoothTerms: unreachable window");
        }
        if (digit != 0) {
            const std::int8_t sign = digit > 0 ? 1 : -1;
            const std::int8_t exp = static_cast<std::int8_t>(
                pos + (std::abs(digit) == 2 ? 1 : 0));
            fn(exp, sign);
            n -= digit;
        }
        n >>= 2;
        pos = static_cast<std::int8_t>(pos + 2);
        invariant(pos < 72, "visitBoothTerms: runaway position");
    }
}

} // namespace mrq

#endif // MRQ_CORE_TERM_STREAM_HPP
