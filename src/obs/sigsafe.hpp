/**
 * @file
 * Async-signal-safe building blocks for the crash-handler path
 * (obs/crash_handler.hpp) and the flight-recorder drain
 * (obs/flight_recorder.hpp).
 *
 * Everything here obeys the handler contract: no heap allocation, no
 * locks, no stdio, no locale — only caller-provided buffers, integer
 * arithmetic and raw open(2)/read(2)/write(2).  Doubles are rendered
 * as fixed-point with six decimals (non-finite values become JSON
 * null) so a dump line never depends on snprintf's locale-aware float
 * path.  Buffers truncate silently instead of overflowing: a cut-off
 * dump line beats a second fault inside the handler.
 */

#ifndef MRQ_OBS_SIGSAFE_HPP
#define MRQ_OBS_SIGSAFE_HPP

#include <cerrno>
#include <cstddef>
#include <cstdint>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#define MRQ_HAVE_SIGSAFE_IO 1
#endif

namespace mrq {
namespace obs {
namespace sigsafe {

/** Bounded append-only text buffer over caller storage. */
struct Buf
{
    char* data;
    std::size_t cap;
    std::size_t len = 0;

    void
    putc(char c)
    {
        if (len < cap)
            data[len++] = c;
    }

    void
    put(const char* s)
    {
        while (*s != '\0')
            putc(*s++);
    }

    /** JSON string body: escapes quote/backslash, flattens control
     *  bytes to spaces (names here are ASCII identifiers anyway). */
    void
    putJson(const char* s)
    {
        for (; *s != '\0'; ++s) {
            const unsigned char c = static_cast<unsigned char>(*s);
            if (c == '"' || c == '\\') {
                putc('\\');
                putc(static_cast<char>(c));
            } else if (c < 0x20) {
                putc(' ');
            } else {
                putc(static_cast<char>(c));
            }
        }
    }

    void
    putUint(unsigned long long v)
    {
        char tmp[24];
        int n = 0;
        do {
            tmp[n++] = static_cast<char>('0' + v % 10);
            v /= 10;
        } while (v != 0);
        while (n > 0)
            putc(tmp[--n]);
    }

    void
    putInt(long long v)
    {
        if (v < 0) {
            putc('-');
            putUint(~static_cast<unsigned long long>(v) + 1);
        } else {
            putUint(static_cast<unsigned long long>(v));
        }
    }

    void
    putHex(unsigned long long v)
    {
        put("0x");
        char tmp[16];
        int n = 0;
        do {
            const int d = static_cast<int>(v & 0xf);
            tmp[n++] = static_cast<char>(d < 10 ? '0' + d : 'a' + d - 10);
            v >>= 4;
        } while (v != 0);
        while (n > 0)
            putc(tmp[--n]);
    }

    /** Fixed-point double, six decimals.  NaN/Inf render as null
     *  (JSON has no spelling for them); huge magnitudes clamp. */
    void
    putNum(double v)
    {
        if (!(v == v) || v > 1.0e15 || v < -1.0e15) {
            if (v > 1.0e15)
                put("1e15");
            else if (v < -1.0e15)
                put("-1e15");
            else
                put("null");
            return;
        }
        if (v < 0) {
            putc('-');
            v = -v;
        }
        const unsigned long long ip =
            static_cast<unsigned long long>(v);
        unsigned long long micro = static_cast<unsigned long long>(
            (v - static_cast<double>(ip)) * 1e6 + 0.5);
        unsigned long long whole = ip;
        if (micro >= 1000000) {
            whole += 1;
            micro = 0;
        }
        putUint(whole);
        putc('.');
        char frac[6];
        for (int i = 5; i >= 0; --i) {
            frac[i] = static_cast<char>('0' + micro % 10);
            micro /= 10;
        }
        for (char c : frac)
            putc(c);
    }
};

#ifdef MRQ_HAVE_SIGSAFE_IO

/** write(2) the full buffer, retrying on EINTR/partial writes. */
inline bool
writeAll(int fd, const char* data, std::size_t len)
{
    std::size_t off = 0;
    while (off < len) {
        const ssize_t n = ::write(fd, data + off, len - off);
        if (n > 0) {
            off += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        return false;
    }
    return true;
}

inline bool
writeAll(int fd, const Buf& b)
{
    return writeAll(fd, b.data, b.len);
}

/** Read a whole (small) file into @p buf; -1 on failure. */
inline long
readFile(const char* path, char* buf, std::size_t cap)
{
    const int fd = ::open(path, O_RDONLY);
    if (fd < 0)
        return -1;
    std::size_t off = 0;
    for (;;) {
        if (off >= cap)
            break;
        const ssize_t n = ::read(fd, buf + off, cap - off);
        if (n > 0) {
            off += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        break;
    }
    ::close(fd);
    return static_cast<long>(off);
}

/** Peak resident set (VmHWM) in kB from /proc/self/status; -1 when
 *  unavailable.  Raw read + integer parse — safe inside a handler;
 *  the bench harness's resources map adds a getrusage() fallback on
 *  top. */
inline long long
peakRssKb()
{
    char buf[4096];
    const long n = readFile("/proc/self/status", buf, sizeof buf - 1);
    if (n <= 0)
        return -1;
    buf[n] = '\0';
    const char* p = buf;
    while (*p != '\0') {
        const char key[] = "VmHWM:";
        bool match = true;
        for (std::size_t i = 0; i + 1 < sizeof key; ++i) {
            if (p[i] != key[i]) {
                match = false;
                break;
            }
        }
        if (match) {
            p += sizeof key - 1;
            while (*p == ' ' || *p == '\t')
                ++p;
            long long v = 0;
            bool any = false;
            while (*p >= '0' && *p <= '9') {
                v = v * 10 + (*p - '0');
                ++p;
                any = true;
            }
            return any ? v : -1;
        }
        while (*p != '\0' && *p != '\n')
            ++p;
        if (*p == '\n')
            ++p;
    }
    return -1;
}

#endif // MRQ_HAVE_SIGSAFE_IO

} // namespace sigsafe
} // namespace obs
} // namespace mrq

#endif // MRQ_OBS_SIGSAFE_HPP
