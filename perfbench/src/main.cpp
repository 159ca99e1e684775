/**
 * @file
 * Benchmark driver: one workload, one seed, one run.
 *
 *   perfbench --workload <cnn_train|lstm_train|cnn_infer> --seed <n>
 *             --seconds <s> --trace <0|1> [--spans <path>]
 *
 * --trace 0 measures the end-to-end metrics with no observation.
 * --trace 1 records spans around every layer call for the middle half
 * of the run, with the library's counters and heap hooks on, and
 * reports the per-layer metrics; the quarters before and after run
 * unobserved and give the untraced time the tracing overhead is taken
 * against.  The spans are written to --spans when the run ends.  Either way the last stdout line is one JSON object
 * with keys correct, attempted, failed and metrics; the exit code is
 * non-zero when any operation or output check failed.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/fake_quant.hpp"
#include "kernels/roofline.hpp"
#include "obs/heap_profiler.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "runtime/thread_pool.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/** Set-ups timed per run; setup_s is their median. */
constexpr int kSetups = 9;

/** A run that still lacks samples this long after its loop started
 *  gives up and fails. */
constexpr double kLoopCapSeconds = 150.0;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
    std::string spansPath;
};

bool
parseArgs(int argc, char** argv, Args* a)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char* v = argv[i + 1];
        char* end = nullptr;
        if (key == "--workload") {
            a->workload = v;
        } else if (key == "--seed") {
            a->seed = std::strtoull(v, &end, 10);
            if (*end != '\0' || *v == '\0' || *v == '-')
                return false;
        } else if (key == "--seconds") {
            a->seconds = std::strtod(v, &end);
            if (*end != '\0' || !(a->seconds > 0.0 && a->seconds <= 120.0))
                return false;
        } else if (key == "--trace") {
            a->trace = std::string(v) == "0" ? 0 : std::string(v) == "1" ? 1
                                                                          : -1;
        } else if (key == "--spans") {
            a->spansPath = v;
        } else {
            return false;
        }
    }
    return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0.0 &&
           a->trace >= 0;
}

/** MRQ_* variables other than these switch on library telemetry. */
std::string
telemetryKnobSet()
{
    for (char** e = environ; *e != nullptr; ++e) {
        const std::string_view kv(*e);
        if (kv.substr(0, 4) != "MRQ_")
            continue;
        const std::string_view name = kv.substr(0, kv.find('='));
        if (name != "MRQ_THREADS" && name != "MRQ_ISA")
            return std::string(name);
    }
    return "";
}

std::string
jsonEscape(const std::string& s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out;
}

/** ISA, threads, compiler, build and source revision of this binary. */
std::string
provenanceJson(const Args& a)
{
    mrq::obs::RunManifest m;
    mrq::obs::applyBuildProvenance(&m);
    char buf[64];
    std::snprintf(buf, sizeof buf, "%" PRIu64, a.seed);
    return "{\"workload\":\"" + jsonEscape(a.workload) + "\",\"seed\":" + buf +
           ",\"trace\":" + std::to_string(a.trace) + ",\"isa\":\"" +
           jsonEscape(m.isa) + "\",\"threads\":" +
           std::to_string(mrq::ThreadPool::instance().threadCount()) +
           ",\"compiler\":\"" + jsonEscape(m.compiler) +
           "\",\"build_type\":\"" + jsonEscape(m.buildType) +
           "\",\"git_describe\":\"" + jsonEscape(m.gitDescribe) +
           "\",\"git_dirty\":\"" + jsonEscape(m.gitDirty) + "\"}";
}

double
peakRssMb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof ru);
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** One reported metric, in emission order. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Latencies and rungs of the operations one loop ran. */
struct LoopResult
{
    std::vector<double> ms;
    std::vector<std::int32_t> rung;
    std::vector<double> endS; ///< Loop seconds when each operation ended.
    std::size_t failed = 0;
    double seconds = 0.0;
    bool capped = false; ///< Gave up before collecting enough samples.

    std::vector<double>
    msAtRung(std::size_t r) const
    {
        std::vector<double> out;
        for (std::size_t i = 0; i < ms.size(); ++i)
            if (rung[i] == static_cast<std::int32_t>(r))
                out.push_back(ms[i]);
        return out;
    }
};

/**
 * Closed loop: run operations until @p seconds have passed and
 * @p enough says every reported percentile has its samples.
 */
template <typename EnoughFn>
LoopResult
runLoop(Workload& w, double seconds, EnoughFn enough)
{
    LoopResult r;
    r.ms.reserve(1u << 16);
    r.rung.reserve(1u << 16);
    const Clock::time_point t0 = Clock::now();
    for (;;) {
        const double elapsed = secondsSince(t0);
        if (elapsed >= seconds && enough(r))
            break;
        if (elapsed >= kLoopCapSeconds) {
            r.capped = true;
            break;
        }
        const OpResult op = w.runOp();
        r.ms.push_back(op.ms);
        r.rung.push_back(op.rung);
        r.endS.push_back(secondsSince(t0));
        r.failed += op.ok ? 0 : 1;
    }
    r.seconds = secondsSince(t0);
    return r;
}

/**
 * Sustained operations per second: one over the median time from one
 * operation's end to the next's, batch gather included.  Unlike
 * operations over the whole loop time, a stall while the host runs
 * something else moves it no more than it moves the median latency.
 */
double
sustainedRate(const LoopResult& loop)
{
    std::vector<double> cycle_s;
    double prev = 0.0;
    for (double t : loop.endS) {
        cycle_s.push_back(t - prev);
        prev = t;
    }
    return 1.0 / percentile(cycle_s, 0.5);
}

/** Mean loss over the last lossWindow operations of a fixed horizon,
 *  so it depends on the seed only. */
double
lossFinal(const Workload& w)
{
    const std::vector<double>& t = w.trajectory();
    const WorkloadSpec& spec = w.spec();
    double sum = 0.0;
    for (std::size_t i = spec.lossHorizon - spec.lossWindow;
         i < spec.lossHorizon; ++i)
        sum += t.at(i);
    return sum / static_cast<double>(spec.lossWindow);
}

void
printResult(bool correct, std::size_t attempted, std::size_t failed,
            const std::vector<Metric>& metrics)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted) +
           ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
        out += (i == 0 ? "\"" : ", \"") + metrics[i].name +
               "\": {\"value\": " + buf + ", \"unit\": \"" + metrics[i].unit +
               "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
}

// ---- untraced run: end-to-end metrics ------------------------------

std::vector<Metric>
endToEnd(const Workload& w, const LoopResult& loop, double setup_s)
{
    const WorkloadSpec& spec = w.spec();
    const bool infer = spec.kind == Kind::CnnInfer;
    const char* op = infer ? "request" : "step";
    const std::vector<double> lo = loop.msAtRung(spec.loRung);
    const std::vector<double> hi = loop.msAtRung(spec.hiRung);
    const std::size_t n = loop.ms.size();

    std::vector<Metric> m = {
        {"throughput_per_s", sustainedRate(loop), "1/s"},
        {"latency_ms_p50", percentile(loop.ms, 0.5), "ms"},
        {"rung_lo_ms_p50", percentile(lo, 0.5), "ms"},
        {"rung_hi_ms_p50", percentile(hi, 0.5), "ms"},
        {"loss_final", lossFinal(w), "nats"},
        {"setup_s", setup_s, "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };

    // The same figures under their per-workload names, with sample
    // counts for every percentile.  The tail is printed but not in the
    // JSON: on a shared host it tracks the neighbours' load from run to
    // run by more than any bound a regression gate could use.
    std::printf("%ss_per_s %.6g 1/s (n=%zu; %zu %ss in %.3f s is %.6g/s)\n",
                op, m[0].value, n, n, op, loop.seconds,
                static_cast<double>(n) / loop.seconds);
    std::printf("%s_ms_p50 %.6g ms (n=%zu)\n", op, m[1].value, n);
    std::printf("%s_ms_p90 %.6g ms (n=%zu, %zu beyond)\n", op,
                percentile(loop.ms, 0.9), n, samplesBeyond(n, 0.9));
    if (infer) {
        if (samplesBeyond(n, 0.99) >= kMinBeyond)
            std::printf("request_ms_p99 %.6g ms (n=%zu, %zu beyond)\n",
                        percentile(loop.ms, 0.99), n, samplesBeyond(n, 0.99));
        else
            std::printf("request_ms_p99 unreported: n=%zu leaves %zu beyond\n",
                        n, samplesBeyond(n, 0.99));
    }
    const char* by = infer ? "request rung" : "student rung";
    std::printf("rung_lo_ms_p50 %.6g ms (%s %s, n=%zu)\n", m[2].value, by,
                spec.ladder[spec.loRung].name().c_str(), lo.size());
    std::printf("rung_hi_ms_p50 %.6g ms (%s %s, n=%zu)\n", m[3].value, by,
                spec.ladder[spec.hiRung].name().c_str(), hi.size());
    std::printf("loss_final %.6g nats (mean %s loss over ops [%zu, %zu))\n",
                m[4].value, infer ? "request" : "teacher",
                spec.lossHorizon - spec.lossWindow, spec.lossHorizon);
    std::printf("setup_s %.6g s (median of %d set-ups)\n", m[5].value,
                kSetups);
    std::printf("peak_rss_mb %.6g MB\n", m[6].value);
    return m;
}

// ---- traced run: per-layer metrics ---------------------------------

/** Counter totals from the metrics registry. */
std::map<std::string, std::int64_t>
counterTotals()
{
    std::map<std::string, std::int64_t> out;
    for (const auto& c : mrq::obs::MetricsRegistry::instance().snapshot().counters)
        out[c.name] = c.value;
    return out;
}

/** Busy / queue-wait / idle ns summed over the pool's worker threads. */
struct PoolTimes
{
    double busy = 0.0;
    double queue = 0.0;
    double idle = 0.0;
};

PoolTimes
poolTimes()
{
    PoolTimes p;
    for (const mrq::obs::ThreadTime& t : mrq::obs::threadTimeBreakdown()) {
        if (t.name.rfind("mrq-pool-", 0) != 0)
            continue;
        p.busy += static_cast<double>(t.busyNs);
        p.queue += static_cast<double>(t.queueWaitNs);
        p.idle += static_cast<double>(t.idleNs);
    }
    return p;
}

/** Library counters and totals read around the traced phase. */
struct Probe
{
    std::map<std::string, std::int64_t> counters;
    mrq::obs::HeapStats heap;
    PoolTimes pool;
    std::uint64_t projections = 0;

    static Probe
    take()
    {
        Probe p;
        p.counters = counterTotals();
        p.heap = mrq::obs::heapStatsSnapshot();
        p.pool = poolTimes();
        p.projections = mrq::fakeQuantWeightsCallCount();
        return p;
    }

    double
    counter(const Probe& before, const std::string& name) const
    {
        auto get = [&name](const Probe& p) {
            auto it = p.counters.find(name);
            return it == p.counters.end() ? 0.0
                                          : static_cast<double>(it->second);
        };
        return get(*this) - get(before);
    }
};

std::vector<Metric>
perLayer(Workload& w, const LoopResult& untraced, const LoopResult& traced,
         const SpanRecorder& rec, const Probe& before, const Probe& after)
{
    const WorkloadSpec& spec = w.spec();
    const double ops = static_cast<double>(traced.ms.size());
    const std::vector<Span>& spans = rec.spans();
    const std::vector<std::int64_t> self = selfTimesNs(spans);

    std::map<std::string, double> dur_ms;
    std::map<std::string, double> alloc;
    double trainer_self_ms = 0.0;
    double nn_ns = 0.0;
    std::vector<double> rung_ms(spec.ladder.size(), 0.0);
    std::vector<double> rung_n(spec.ladder.size(), 0.0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        const std::string_view name(s.name);
        const double ms = static_cast<double>(s.endNs - s.startNs) / 1e6;
        dur_ms[s.name] += ms;
        alloc[s.name] += static_cast<double>(s.allocBytes);
        if (name == "trainer.iteration" || name == "trainer.infer_at")
            trainer_self_ms += static_cast<double>(self[i]) / 1e6;
        const bool pass = name.rfind("nn.fwd.", 0) == 0 ||
                          name.rfind("nn.bwd.", 0) == 0;
        if (pass)
            nn_ns += static_cast<double>(s.endNs - s.startNs);
        if (name.rfind("nn.fwd.", 0) == 0 && s.rung >= 0) {
            rung_ms[s.rung] += ms;
            rung_n[s.rung] += 1.0;
        }
    }
    auto per_op = [&](const std::map<std::string, double>& m,
                      const std::string& key) {
        auto it = m.find(key);
        return it == m.end() ? 0.0 : it->second / ops;
    };

    std::vector<Metric> out;
    out.push_back({"data.batch_ms", per_op(dur_ms, "data.batch"), "ms"});
    for (const char* role : {"teacher", "student"}) {
        out.push_back({std::string("nn.fwd_ms.") + role,
                       per_op(dur_ms, std::string("nn.fwd.") + role), "ms"});
        out.push_back({std::string("nn.bwd_ms.") + role,
                       per_op(dur_ms, std::string("nn.bwd.") + role), "ms"});
    }
    out.push_back({"nn.loss_ms", per_op(dur_ms, "nn.loss"), "ms"});
    for (const char* kind : {"pact", "conv", "bn", "block", "pool", "linear"})
        for (const char* dir : {"fwd", "bwd"})
            out.push_back({std::string("nn.") + kind + "." + dir + "_ms",
                           per_op(dur_ms, std::string("nn.") + kind + "." + dir),
                           "ms"});
    out.push_back({"trainer.self_ms", trainer_self_ms / ops, "ms"});
    for (std::size_t r = 0; r < spec.ladder.size(); ++r)
        out.push_back({"rung.fwd_ms.r" + std::to_string(r),
                       rung_n[r] > 0.0 ? rung_ms[r] / rung_n[r] : 0.0, "ms"});

    // Direct projections of every weight layer at the cheapest and the
    // teacher rung: the median of several sweeps.
    const std::size_t top = spec.ladder.size() - 1;
    std::vector<double> proj_lo;
    std::vector<double> proj_hi;
    for (int i = 0; i < 7; ++i) {
        proj_lo.push_back(w.projectAllMs(0));
        proj_hi.push_back(w.projectAllMs(top));
    }
    std::sort(proj_lo.begin(), proj_lo.end());
    std::sort(proj_hi.begin(), proj_hi.end());
    out.push_back({"proj.ms.r0", proj_lo[proj_lo.size() / 2], "ms"});
    out.push_back({"proj.ms.r" + std::to_string(top),
                   proj_hi[proj_hi.size() / 2], "ms"});
    const double proj_calls =
        static_cast<double>(after.projections - before.projections) / ops;
    const double hits = after.counter(before, "nn.proj_cache.hits");
    const double misses = after.counter(before, "nn.proj_cache.misses");
    const double hit_ratio = hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
    out.push_back({"proj.calls", proj_calls, "count"});
    out.push_back({"proj.hit_ratio", hit_ratio, "ratio"});

    out.push_back({"heap.alloc_bytes",
                   static_cast<double>(after.heap.allocBytes -
                                       before.heap.allocBytes) / ops,
                   "B"});
    out.push_back({"heap.alloc_count",
                   static_cast<double>(after.heap.allocCount -
                                       before.heap.allocCount) / ops,
                   "count"});
    out.push_back({"heap.alloc_bytes.fwd",
                   per_op(alloc, "nn.fwd.teacher") +
                       per_op(alloc, "nn.fwd.student"),
                   "B"});
    out.push_back({"heap.alloc_bytes.bwd",
                   per_op(alloc, "nn.bwd.teacher") +
                       per_op(alloc, "nn.bwd.student"),
                   "B"});

    // Kernel work from the library's kernel.<slug>.elems counters; the
    // achieved rate divides nominal flops by the traced nn pass time.
    std::map<std::string, double> family;
    double flops = 0.0;
    for (std::size_t k = 0; k < mrq::kernels::kKernelCount; ++k) {
        const mrq::kernels::KernelCost& cost =
            mrq::kernels::kernelCost(static_cast<mrq::kernels::KernelId>(k));
        const std::string slug = cost.slug;
        const double elems =
            after.counter(before, "kernel." + slug + ".elems");
        flops += elems * cost.flopsPerElem;
        if (slug.rfind("gemm_", 0) == 0)
            family["gemm"] += elems;
        else if (slug.rfind("lattice_", 0) == 0)
            family["lattice"] += elems;
        else if (slug == "lstm_gates")
            family["lstm_gates"] += elems;
    }
    for (const char* f : {"gemm", "lattice", "lstm_gates"})
        out.push_back({std::string("kernel.") + f + ".melems",
                       family[f] / ops / 1e6, "Melem"});
    out.push_back({"kernel.gflop_per_s", nn_ns > 0.0 ? flops / nn_ns : 0.0,
                   "GFLOP/s"});

    const double busy = after.pool.busy - before.pool.busy;
    const double queue = after.pool.queue - before.pool.queue;
    const double idle = after.pool.idle - before.pool.idle;
    const double total = busy + queue + idle;
    out.push_back({"pool.busy_frac", total > 0.0 ? busy / total : 0.0,
                   "ratio"});
    out.push_back({"pool.idle_frac", total > 0.0 ? idle / total : 0.0,
                   "ratio"});
    out.push_back({"pool.queue_wait_ms", queue / ops / 1e6, "ms"});

    const double p50_traced = percentile(traced.ms, 0.5);
    const double p50_untraced = percentile(untraced.ms, 0.5);
    out.push_back({"trace.overhead_frac", p50_traced / p50_untraced - 1.0,
                   "ratio"});

    for (const Metric& m : out)
        std::printf("%s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    std::printf("traced %zu ops after %zu untraced (p50 %.6g vs %.6g ms)\n",
                traced.ms.size(), untraced.ms.size(), p50_traced,
                p50_untraced);
    // The measured rung curve beside the cost model's term-pair budget.
    for (std::size_t r = 0; r < spec.ladder.size(); ++r)
        std::printf("rung r%zu %s gamma=%zu fwd_ms=%.6g (n=%.0f)\n", r,
                    spec.ladder[r].name().c_str(), spec.ladder[r].gamma(),
                    rung_n[r] > 0.0 ? rung_ms[r] / rung_n[r] : 0.0,
                    rung_n[r]);
    // Projection traffic the cache design assumes.
    const double layers = static_cast<double>(w.weightLayers());
    if (spec.kind == Kind::CnnInfer)
        std::printf("traffic proj.calls=%.6g (expect 0) hit_ratio=%.6g "
                    "(expect 1): %s\n",
                    proj_calls, hit_ratio,
                    proj_calls == 0.0 && hit_ratio == 1.0 ? "holds"
                                                          : "does not hold");
    else
        std::printf("traffic proj.calls=%.6g (expect 2 x %.0f weight layers) "
                    "hit_ratio=%.6g (expect 0): %s\n",
                    proj_calls, layers, hit_ratio,
                    proj_calls == 2.0 * layers && hit_ratio == 0.0
                        ? "holds"
                        : "does not hold");
    return out;
}

int
run(const Args& args)
{
    const WorkloadSpec spec = workloadSpec(args.workload);
    const std::string provenance = provenanceJson(args);
    std::printf("perfbench %s\n", provenance.c_str());

    std::vector<double> setups;
    std::unique_ptr<Workload> w;
    for (int i = 0; i < kSetups; ++i) {
        w.reset();
        const Clock::time_point t0 = Clock::now();
        w = makeWorkload(spec, args.seed, args.trace == 1);
        setups.push_back(secondsSince(t0));
    }
    std::sort(setups.begin(), setups.end());
    const double setup_s = setups[setups.size() / 2];

    const std::size_t need_median = samplesNeeded(0.5);
    LoopResult loop;
    LoopResult untraced;
    std::vector<Metric> metrics;
    SpanRecorder rec;
    if (args.trace == 0) {
        const std::size_t need_tail = samplesNeeded(0.9);
        loop = runLoop(*w, args.seconds, [&](const LoopResult& r) {
            return r.ms.size() >= need_tail &&
                   w->trajectory().size() >= spec.lossHorizon &&
                   r.msAtRung(spec.loRung).size() >= need_median &&
                   r.msAtRung(spec.hiRung).size() >= need_median;
        });
        if (!loop.capped)
            metrics = endToEnd(*w, loop, setup_s);
    } else {
        // Untraced quarter, traced half, untraced quarter: drift in
        // machine speed during the run cancels out of the overhead.
        auto enough_half = [&](const LoopResult& r) {
            return r.ms.size() >= need_median / 2;
        };
        untraced = runLoop(*w, args.seconds / 4.0, enough_half);
        mrq::obs::setMetricsEnabled(true);
        mrq::obs::startHeapProfiler(std::int64_t{1} << 30);
        w->setRecorder(&rec);
        const Probe before = Probe::take();
        loop = runLoop(*w, args.seconds / 2.0, [&](const LoopResult& r) {
            return r.ms.size() >= need_median;
        });
        const Probe after = Probe::take();
        w->setRecorder(nullptr);
        mrq::obs::stopHeapProfiler();
        mrq::obs::setMetricsEnabled(false);
        const LoopResult tail = runLoop(*w, args.seconds / 4.0, enough_half);
        untraced.ms.insert(untraced.ms.end(), tail.ms.begin(), tail.ms.end());
        untraced.failed += tail.failed;
        untraced.capped = untraced.capped || tail.capped;
        if (!untraced.capped && !loop.capped)
            metrics = perLayer(*w, untraced, loop, rec, before, after);
    }

    std::string log;
    std::size_t failed = loop.failed + untraced.failed + w->verify(&log);
    if (loop.capped || untraced.capped) {
        ++failed;
        log += "gave up collecting samples after " +
               std::to_string(kLoopCapSeconds) + " s\n";
    }
    if (!log.empty())
        std::fprintf(stderr, "perfbench: output check failed:\n%s",
                     log.c_str());
    if (args.trace == 1 && !args.spansPath.empty()) {
        const std::string header =
            "{\"spans\":" + std::to_string(rec.spans().size()) +
            ",\"provenance\":" + provenance + "}";
        if (!writeSpansJsonl(args.spansPath, header, rec.spans())) {
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         args.spansPath.c_str());
            return 1;
        }
        std::printf("spans %zu written to %s\n", rec.spans().size(),
                    args.spansPath.c_str());
    }
    if (metrics.empty())
        return 1;
    // Warm-up steps are checked like measured ones, so they count.
    const std::size_t attempted =
        spec.warmupOps + loop.ms.size() + untraced.ms.size();
    printResult(failed == 0, attempted, failed, metrics);
    return failed == 0 ? 0 : 1;
}

} // namespace
} // namespace perfbench

int
main(int argc, char** argv)
{
    perfbench::Args args;
    if (!perfbench::parseArgs(argc, argv, &args)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload <name> --seed <n> "
                     "--seconds <s> --trace <0|1> [--spans <path>]\n");
        return 2;
    }
    const std::string knob = perfbench::telemetryKnobSet();
    if (!knob.empty()) {
        std::fprintf(stderr,
                     "perfbench: refusing to run with %s set; only "
                     "MRQ_THREADS and MRQ_ISA may be set\n",
                     knob.c_str());
        return 2;
    }
    try {
        return perfbench::run(args);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
