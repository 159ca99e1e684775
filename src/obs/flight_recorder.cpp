#include "obs/flight_recorder.hpp"

#include <atomic>
#include <cstring>
#include <mutex>

#include "obs/sigsafe.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <pthread.h>
#define MRQ_HAVE_PTHREAD_SETNAME 1
#endif

#include <ctime>

namespace mrq {
namespace obs {

namespace {

/** One per-thread black-box ring.  All storage is static (BSS): the
 *  crash handler must be able to walk every slot without touching the
 *  heap.  state: 0 = free, 1 = live (owned by a thread), 2 = retired
 *  (owner exited; events kept for draining until reclaimed). */
struct FlightEvent
{
    std::int64_t ns;
    std::int64_t a;
    std::int64_t b;
    double v;
    char name[kFlightNameCap];
    std::uint8_t kind;
};

struct FlightRing
{
    std::atomic<std::uint32_t> state{0};
    std::atomic<std::uint64_t> writes{0};
    char threadName[kFlightThreadNameCap];
    FlightEvent buf[kFlightRingCap];
};

FlightRing g_rings[kFlightMaxThreads];

/** Guards slot acquire/retire and threadName writes — never held on
 *  the record path or inside the signal handler. */
std::mutex g_slot_mutex;

std::atomic<std::uint64_t> g_dropped{0};
// On from the start: the black box only helps if it is running
// before the crash.
std::atomic<bool> g_enabled{true};
std::atomic<std::size_t> g_cap{kFlightRingCap};

/** Plain POD thread-local: safe to read from a signal handler, and —
 *  unlike a thread_local with a destructor — registering it never
 *  calls __cxa_thread_atexit (which can malloc). */
thread_local FlightRing* t_ring = nullptr;

/** Retires this thread's slot at thread exit.  Function-local and
 *  only instantiated from acquireSlot() (normal context), so the
 *  atexit registration never happens under a signal handler. */
struct Retirer
{
    ~Retirer()
    {
        FlightRing* ring = t_ring;
        t_ring = nullptr;
        if (ring == nullptr)
            return;
        std::lock_guard<std::mutex> lock(g_slot_mutex);
        // Events and name stay: a post-crash drain of another thread
        // still wants this thread's trail.
        ring->state.store(2, std::memory_order_release);
    }
};

std::int64_t
flightNowNs()
{
#if defined(__unix__) || defined(__APPLE__)
    timespec ts;
    clock_gettime(CLOCK_REALTIME, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 +
           ts.tv_nsec;
#else
    return 0;
#endif
}

/** Find (or reclaim) a slot for the calling thread. */
FlightRing*
acquireSlot()
{
    static thread_local Retirer retirer;
    (void)retirer;
    std::lock_guard<std::mutex> lock(g_slot_mutex);
    // Prefer never-used slots so retired trails survive as long as
    // possible; reclaim retired ones only when free slots run out.
    for (std::uint32_t want : {0u, 2u}) {
        for (auto& ring : g_rings) {
            if (ring.state.load(std::memory_order_relaxed) != want)
                continue;
            if (want == 2u) {
                ring.writes.store(0, std::memory_order_relaxed);
                ring.threadName[0] = '\0';
            }
            ring.state.store(1, std::memory_order_release);
            t_ring = &ring;
            return &ring;
        }
    }
    return nullptr;
}

FlightRing*
currentRing()
{
    FlightRing* ring = t_ring;
    if (ring != nullptr)
        return ring;
    ring = acquireSlot();
    if (ring == nullptr)
        g_dropped.fetch_add(1, std::memory_order_relaxed);
    return ring;
}

} // namespace

bool
flightEnabled()
{
    return g_enabled.load(std::memory_order_relaxed);
}

bool
setFlightEnabled(bool on)
{
    return g_enabled.exchange(on, std::memory_order_relaxed);
}

std::size_t
flightRingCapacity()
{
    return g_cap.load(std::memory_order_relaxed);
}

std::size_t
setFlightRingCapacity(std::size_t cap)
{
    const std::size_t prev = flightRingCapacity();
    if (cap < 1)
        cap = 1;
    if (cap > kFlightRingCap)
        cap = kFlightRingCap;
    g_cap.store(cap, std::memory_order_relaxed);
    return prev;
}

void
flightRecord(FlightKind kind, const char* name, std::int64_t a,
             std::int64_t b, double v)
{
    if (!flightEnabled())
        return;
    FlightRing* ring = currentRing();
    if (ring == nullptr)
        return;
    const std::size_t cap = flightRingCapacity();
    const std::uint64_t w = ring->writes.load(std::memory_order_relaxed);
    FlightEvent& ev = ring->buf[w % cap];
    ev.ns = flightNowNs();
    ev.a = a;
    ev.b = b;
    ev.v = v;
    ev.kind = static_cast<std::uint8_t>(kind);
    std::size_t n = 0;
    if (name != nullptr)
        for (; name[n] != '\0' && n < kFlightNameCap - 1; ++n)
            ev.name[n] = name[n];
    ev.name[n] = '\0';
    if (w >= cap)
        g_dropped.fetch_add(1, std::memory_order_relaxed);
    // Release so a post-crash drain that reads `writes` sees the
    // event payload it covers.
    ring->writes.store(w + 1, std::memory_order_release);
}

void
flightMark(const char* name, std::int64_t a)
{
    flightRecord(FlightKind::Mark, name, a);
}

void
setCurrentThreadName(const char* name)
{
    if (name == nullptr)
        return;
#ifdef MRQ_HAVE_PTHREAD_SETNAME
    // The kernel caps comm names at 16 bytes including the NUL.
    char comm[16];
    std::size_t n = 0;
    for (; name[n] != '\0' && n < sizeof comm - 1; ++n)
        comm[n] = name[n];
    comm[n] = '\0';
#if defined(__APPLE__)
    pthread_setname_np(comm);
#else
    pthread_setname_np(pthread_self(), comm);
#endif
#endif
    FlightRing* ring = t_ring;
    if (ring == nullptr)
        ring = acquireSlot();
    if (ring == nullptr)
        return;
    std::lock_guard<std::mutex> lock(g_slot_mutex);
    std::size_t i = 0;
    for (; name[i] != '\0' && i < kFlightThreadNameCap - 1; ++i)
        ring->threadName[i] = name[i];
    ring->threadName[i] = '\0';
}

const char*
currentThreadFlightName()
{
    FlightRing* ring = t_ring;
    return ring != nullptr ? ring->threadName : "";
}

std::uint64_t
flightEventCount()
{
    std::uint64_t total = 0;
    for (const auto& ring : g_rings)
        if (ring.state.load(std::memory_order_acquire) != 0)
            total += ring.writes.load(std::memory_order_acquire);
    return total;
}

std::uint64_t
flightDroppedEvents()
{
    return g_dropped.load(std::memory_order_relaxed);
}

void
flightReset()
{
    std::lock_guard<std::mutex> lock(g_slot_mutex);
    for (auto& ring : g_rings) {
        const std::uint32_t state =
            ring.state.load(std::memory_order_relaxed);
        if (state == 0)
            continue;
        ring.writes.store(0, std::memory_order_relaxed);
        if (state == 2) {
            ring.threadName[0] = '\0';
            ring.state.store(0, std::memory_order_relaxed);
        }
    }
    g_dropped.store(0, std::memory_order_relaxed);
}

std::size_t
flightDrain(int fd)
{
#ifndef MRQ_HAVE_SIGSAFE_IO
    (void)fd;
    return 0;
#else
    std::size_t written = 0;
    const std::size_t cap = g_cap.load(std::memory_order_relaxed);
    for (std::size_t slot = 0; slot < kFlightMaxThreads; ++slot) {
        const FlightRing& ring = g_rings[slot];
        if (ring.state.load(std::memory_order_acquire) == 0)
            continue;
        const std::uint64_t w =
            ring.writes.load(std::memory_order_acquire);
        const std::uint64_t start = w > cap ? w - cap : 0;
        for (std::uint64_t i = start; i < w; ++i) {
            const FlightEvent& ev = ring.buf[i % cap];
            char line[384];
            sigsafe::Buf out{line, sizeof line};
            out.put("{\"type\": \"flight\", \"slot\": ");
            out.putUint(slot);
            out.put(", \"thread\": \"");
            out.putJson(ring.threadName);
            out.put("\", \"ns\": ");
            out.putInt(ev.ns);
            out.put(", \"kind\": \"");
            out.put(flightKindName(static_cast<FlightKind>(ev.kind)));
            out.put("\", \"name\": \"");
            out.putJson(ev.name);
            out.put("\", \"a\": ");
            out.putInt(ev.a);
            out.put(", \"b\": ");
            out.putInt(ev.b);
            out.put(", \"v\": ");
            out.putNum(ev.v);
            out.put("}\n");
            if (!sigsafe::writeAll(fd, out))
                return written;
            ++written;
        }
    }
    return written;
#endif
}

const char*
flightKindName(FlightKind kind)
{
    switch (kind) {
    case FlightKind::Mark:
        return "mark";
    case FlightKind::Span:
        return "span";
    case FlightKind::Metric:
        return "metric";
    case FlightKind::Alert:
        return "alert";
    }
    return "mark";
}

} // namespace obs
} // namespace mrq
