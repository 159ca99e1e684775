#include "obs/stats_server.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>

#include "obs/crash_handler.hpp"
#include "obs/env.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/sampler.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#define MRQ_HAVE_UNIX_SOCKETS 1
#endif

namespace mrq {
namespace obs {

struct StatsPlane::Impl
{
    mutable std::mutex mutex;
    std::thread thread;
    std::condition_variable stopCv;
    bool stopRequested = false;
    bool running = false;
    long everyMs = 0;
    std::string sockPath;
    int listenFd = -1;
    std::atomic<std::int64_t> samples{0};
    StatsSnapshot last;

    void
    tick()
    {
        StatsSnapshot s = collectStatsSnapshot();
        s.samples = samples.fetch_add(1, std::memory_order_relaxed) + 1;
        // Keep a one-line digest in the crash handler's static buffer
        // so a post-mortem carries the last live numbers.
        char line[512];
        std::snprintf(line, sizeof line,
                      "{\"type\": \"stats\", \"sample\": %lld, "
                      "\"rss_kb\": %lld, \"threads\": %lld, "
                      "\"cpu_seconds\": %.3f}",
                      static_cast<long long>(s.samples),
                      static_cast<long long>(s.proc.rssKb),
                      static_cast<long long>(s.proc.threads),
                      s.proc.cpuSeconds);
        setPostmortemStatsLine(line);
        std::lock_guard<std::mutex> lock(mutex);
        last = std::move(s);
    }

#ifdef MRQ_HAVE_UNIX_SOCKETS
    bool
    bindSocket(const std::string& path)
    {
        sockaddr_un addr;
        if (path.size() >= sizeof addr.sun_path)
            return false;
        listenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (listenFd < 0)
            return false;
        std::memset(&addr, 0, sizeof addr);
        addr.sun_family = AF_UNIX;
        std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
        ::unlink(path.c_str());
        if (::bind(listenFd, reinterpret_cast<sockaddr*>(&addr),
                   sizeof addr) != 0 ||
            ::listen(listenFd, 4) != 0) {
            ::close(listenFd);
            listenFd = -1;
            return false;
        }
        return true;
    }

    void
    serveClient(int fd)
    {
        // One request line, short timeout so a stuck client cannot
        // wedge the sampler.
        timeval tv{};
        tv.tv_usec = 500 * 1000;
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
        char buf[256];
        std::string req;
        while (req.find('\n') == std::string::npos &&
               req.size() < 4096) {
            const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
            if (n <= 0)
                break;
            req.append(buf, static_cast<std::size_t>(n));
        }
        const bool json = req.find("json") != std::string::npos;
        StatsSnapshot s = collectStatsSnapshot();
        s.samples = samples.load(std::memory_order_relaxed);
        const std::string body =
            json ? renderStatsJson(s) : renderPrometheus(s);
        std::size_t off = 0;
        while (off < body.size()) {
            const ssize_t n =
                ::send(fd, body.data() + off, body.size() - off,
#ifdef MSG_NOSIGNAL
                       MSG_NOSIGNAL
#else
                       0
#endif
                );
            if (n <= 0)
                break;
            off += static_cast<std::size_t>(n);
        }
        ::close(fd);
    }
#endif

    void
    loop()
    {
        // The sampler must never steal Ctrl-C from the main thread,
        // and dumps/tools should know it by name.  SIGPROF stays out
        // too: stats serving is bookkeeping, not workload.
        blockShutdownSignalsInThisThread();
        blockSamplingInThisThread();
        setCurrentThreadName("mrq-stats");
        using clock = std::chrono::steady_clock;
        const auto period =
            std::chrono::milliseconds(everyMs > 0 ? everyMs : 1000);
        auto next = clock::now() + period;
        for (;;) {
            {
                std::unique_lock<std::mutex> lock(mutex);
                if (stopRequested)
                    return;
            }
#ifdef MRQ_HAVE_UNIX_SOCKETS
            if (listenFd >= 0) {
                pollfd pfd{};
                pfd.fd = listenFd;
                pfd.events = POLLIN;
                const auto now = clock::now();
                long wait_ms = static_cast<long>(
                    std::chrono::duration_cast<
                        std::chrono::milliseconds>(next - now)
                        .count());
                if (wait_ms < 0)
                    wait_ms = 0;
                if (wait_ms > 200)
                    wait_ms = 200; // bounded stop() latency
                const int r =
                    ::poll(&pfd, 1, static_cast<int>(wait_ms));
                if (r > 0 && (pfd.revents & POLLIN) != 0) {
                    const int fd = ::accept(listenFd, nullptr, nullptr);
                    if (fd >= 0)
                        serveClient(fd);
                }
            } else
#endif
            {
                std::unique_lock<std::mutex> lock(mutex);
                stopCv.wait_until(lock, next,
                                  [&] { return stopRequested; });
                if (stopRequested)
                    return;
            }
            if (clock::now() >= next) {
                if (everyMs > 0)
                    tick();
                next += period;
                // Never try to catch up on missed ticks.
                if (next < clock::now())
                    next = clock::now() + period;
            }
        }
    }
};

StatsPlane&
StatsPlane::instance()
{
    static StatsPlane plane;
    return plane;
}

StatsPlane::Impl&
StatsPlane::impl() const
{
    static Impl* impl = new Impl();
    return *impl;
}

bool
StatsPlane::startFromEnv()
{
    const bool sock = envSet("MRQ_STATS_SOCK");
    const bool every = envSet("MRQ_STATS_EVERY");
    if (!sock && !every)
        return false;
    return start(envLong("MRQ_STATS_EVERY", 1000),
                 envValue("MRQ_STATS_SOCK", ""));
}

bool
StatsPlane::start(long every_ms, const std::string& sock_path)
{
    Impl& im = impl();
    std::lock_guard<std::mutex> lock(im.mutex);
    if (im.running)
        return false;
#ifdef MRQ_HAVE_UNIX_SOCKETS
    if (!sock_path.empty() && !im.bindSocket(sock_path))
        return false;
#else
    if (!sock_path.empty())
        return false;
#endif
    im.everyMs = every_ms;
    im.sockPath = sock_path;
    im.stopRequested = false;
    im.samples.store(0, std::memory_order_relaxed);
    // Exit safety net, as in the sampler: build every static a tick
    // reads (the registry first of all) before the thread exists, then
    // stop at exit.  atexit handlers registered after a static is
    // built run before its destructor, so the thread is joined before
    // anything it reads is destroyed.
    (void)collectStatsSnapshot();
    static const bool registered = [] {
        std::atexit([] { StatsPlane::instance().stop(); });
        return true;
    }();
    (void)registered;
    im.thread = std::thread([&im] { im.loop(); });
    im.running = true;
    return true;
}

void
StatsPlane::stop()
{
    Impl& im = impl();
    {
        std::lock_guard<std::mutex> lock(im.mutex);
        if (!im.running)
            return;
        im.stopRequested = true;
    }
    im.stopCv.notify_all();
    im.thread.join();
    std::lock_guard<std::mutex> lock(im.mutex);
#ifdef MRQ_HAVE_UNIX_SOCKETS
    if (im.listenFd >= 0) {
        ::close(im.listenFd);
        ::unlink(im.sockPath.c_str());
        im.listenFd = -1;
    }
#endif
    im.running = false;
}

bool
StatsPlane::running() const
{
    Impl& im = impl();
    std::lock_guard<std::mutex> lock(im.mutex);
    return im.running;
}

std::int64_t
StatsPlane::sampleCount() const
{
    return impl().samples.load(std::memory_order_relaxed);
}

StatsSnapshot
StatsPlane::lastSample() const
{
    Impl& im = impl();
    std::lock_guard<std::mutex> lock(im.mutex);
    return im.last;
}

std::string
StatsPlane::socketPath() const
{
    Impl& im = impl();
    std::lock_guard<std::mutex> lock(im.mutex);
    return im.listenFd >= 0 ? im.sockPath : std::string();
}

StatsPlane::~StatsPlane() { stop(); }

} // namespace obs
} // namespace mrq
