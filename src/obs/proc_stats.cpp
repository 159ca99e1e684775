#include "obs/proc_stats.hpp"

#include "obs/sigsafe.hpp"

#ifdef MRQ_HAVE_SIGSAFE_IO
#include <sys/resource.h>
#endif

namespace mrq {
namespace obs {

ProcStats
readProcStats()
{
    ProcStats s;
#ifdef MRQ_HAVE_SIGSAFE_IO
    s.peakRssKb = sigsafe::peakRssKb();
    // getrusage also knows peak RSS (KiB on Linux) — the fallback when
    // /proc was unreadable.
    struct rusage ru;
    if (s.peakRssKb < 0 && getrusage(RUSAGE_SELF, &ru) == 0 &&
        ru.ru_maxrss > 0)
        s.peakRssKb = static_cast<std::int64_t>(ru.ru_maxrss);
#endif
    return s;
}

} // namespace obs
} // namespace mrq
