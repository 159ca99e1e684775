/**
 * @file
 * Error-reporting helpers shared across the library.
 *
 * Follows the gem5 convention: `panic` is for internal invariant
 * violations (library bugs), `fatal` is for unrecoverable user errors
 * (bad configuration, shape mismatches caused by the caller).
 */

#ifndef MRQ_COMMON_LOGGING_HPP
#define MRQ_COMMON_LOGGING_HPP

#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace mrq {

/** Exception thrown for unrecoverable caller errors (bad arguments). */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string& msg) : std::runtime_error(msg) {}
};

/** Exception thrown for internal invariant violations (library bugs). */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string& msg) : std::logic_error(msg) {}
};

namespace detail {

template <typename T>
void
appendPart(std::ostringstream& os, const T& part)
{
    os << part;
}

/** Shapes print as "[2, 3, 4]", so a check can pass tensor.shape()
 *  and format it only on failure. */
inline void
appendPart(std::ostringstream& os, const std::vector<std::size_t>& shape)
{
    os << "[";
    for (std::size_t i = 0; i < shape.size(); ++i) {
        if (i)
            os << ", ";
        os << shape[i];
    }
    os << "]";
}

inline void
appendParts(std::ostringstream&)
{
}

template <typename T, typename... Rest>
void
appendParts(std::ostringstream& os, const T& part, const Rest&... rest)
{
    appendPart(os, part);
    appendParts(os, rest...);
}

} // namespace detail

/**
 * Abort with a caller-error message.
 *
 * @param parts Message fragments streamed together.
 */
template <typename... Parts>
[[noreturn]] void
fatal(const Parts&... parts)
{
    std::ostringstream os;
    os << "fatal: ";
    detail::appendParts(os, parts...);
    throw FatalError(os.str());
}

/**
 * Abort with an internal-bug message.  Use when a condition can only be
 * false if the library itself is broken.
 */
template <typename... Parts>
[[noreturn]] void
panic(const Parts&... parts)
{
    std::ostringstream os;
    os << "panic: ";
    detail::appendParts(os, parts...);
    throw PanicError(os.str());
}

/** Require a caller-supplied condition, otherwise fatal(). */
template <typename... Parts>
void
require(bool cond, const Parts&... parts)
{
    if (!cond)
        fatal(parts...);
}

/** Assert an internal invariant, otherwise panic(). */
template <typename... Parts>
void
invariant(bool cond, const Parts&... parts)
{
    if (!cond)
        panic(parts...);
}

} // namespace mrq

#endif // MRQ_COMMON_LOGGING_HPP
