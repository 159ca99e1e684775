#include "obs/inspect.hpp"

#include <cmath>
#include <cstdio>

#include "obs/atomic_file.hpp"
#include "obs/env.hpp"
#include "obs/stack_profile.hpp"
#include "obs/watchdog.hpp"

namespace mrq {
namespace obs {

namespace detail {
std::atomic<bool> g_inspect_sampling{false};
} // namespace detail

namespace {

/** Layer id the hooks in fake_quant.cpp attribute records to.  A
 *  plain int: written and read only from serial code (the layer-level
 *  forward/backward path), never from pool workers. */
int g_current_layer = -1;

/** Deterministic double rendering (matches the metrics sink). */
std::string
formatDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

const char*
kindName(InspectKind kind)
{
    switch (kind) {
    case InspectKind::WeightSqnr:
        return "weight_sqnr";
    case InspectKind::ActSqnr:
        return "act_sqnr";
    case InspectKind::ClipSat:
        return "clip_sat";
    case InspectKind::TermEnergy:
        return "term_energy";
    case InspectKind::GradNorm:
        return "grad_norm";
    case InspectKind::RungAgree:
        return "rung_agree";
    }
    return "unknown";
}

std::string
renderRecord(const InspectRecord& r)
{
    std::string line = "{\"type\": \"inspect\", \"kind\": \"";
    line += kindName(r.kind);
    line += "\", \"step\": " + std::to_string(r.step);
    line += std::string(", \"phase\": \"") + r.phase + "\"";
    line += ", \"layer\": \"" + jsonEscape(r.layer) + "\"";
    line += ", \"rung\": \"" + jsonEscape(r.rung) + "\"";
    switch (r.kind) {
    case InspectKind::WeightSqnr:
    case InspectKind::ActSqnr:
        line += ", \"sqnr_db\": " + formatDouble(r.v0);
        line += ", \"n\": " + std::to_string(r.n);
        break;
    case InspectKind::ClipSat:
        line += ", \"clip\": " + formatDouble(r.v0);
        line += ", \"saturated\": " + std::to_string(r.i0);
        line += ", \"n\": " + std::to_string(r.n);
        line += ", \"rate\": " +
                formatDouble(r.n > 0 ? static_cast<double>(r.i0) /
                                           static_cast<double>(r.n)
                                     : 0.0);
        break;
    case InspectKind::TermEnergy:
        line += ", \"kept_mass\": " + std::to_string(r.i0);
        line += ", \"dropped_mass\": " + std::to_string(r.i1);
        line += ", \"kept_terms\": " + std::to_string(r.i2);
        line += ", \"dropped_terms\": " + std::to_string(r.i3);
        line += ", \"n\": " + std::to_string(r.n);
        break;
    case InspectKind::GradNorm:
        line += ", \"l2\": " + formatDouble(r.v0);
        line += ", \"n\": " + std::to_string(r.n);
        break;
    case InspectKind::RungAgree:
        line += ", \"ref\": \"" + jsonEscape(r.ref) + "\"";
        line += ", \"kl\": " + formatDouble(r.v0);
        line += ", \"top1\": " + formatDouble(r.v1);
        line += ", \"n\": " + std::to_string(r.n);
        break;
    }
    line += "}\n";
    return line;
}

} // namespace

double
sqnrDb(double signal_power, double noise_power)
{
    constexpr double eps = 1e-30;
    return 10.0 * std::log10((signal_power + eps) / (noise_power + eps));
}

QuantInspector::QuantInspector()
{
    enabled_ = envTruthy("MRQ_INSPECT") || envSet("MRQ_INSPECT_OUT");
    const long every = envLong("MRQ_INSPECT_EVERY", 1);
    every_ = every > 0 ? every : 1;
}

QuantInspector&
QuantInspector::instance()
{
    static QuantInspector inspector;
    return inspector;
}

bool
QuantInspector::setEnabled(bool on)
{
    const bool prev = enabled_;
    enabled_ = on;
    if (!on)
        detail::g_inspect_sampling.store(false,
                                         std::memory_order_relaxed);
    return prev;
}

std::int64_t
QuantInspector::setEvery(std::int64_t every)
{
    const std::int64_t prev = every_;
    every_ = every > 0 ? every : 1;
    return prev;
}

std::string
QuantInspector::outPath() const
{
    return envValue("MRQ_INSPECT_OUT", "inspect.jsonl");
}

void
QuantInspector::beginStep(std::int64_t step)
{
    step_ = step;
    phase_ = "train";
    const bool sample = enabled_ && step % every_ == 0;
    detail::g_inspect_sampling.store(sample, std::memory_order_relaxed);
}

void
QuantInspector::endStep()
{
    detail::g_inspect_sampling.store(false, std::memory_order_relaxed);
}

int
QuantInspector::registerLayer(const char* kind_hint)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const int id = static_cast<int>(layers_.size());
    layers_.push_back(std::string(kind_hint) + "#" + std::to_string(id));
    return id;
}

std::string
QuantInspector::layerName(int id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (id < 0 || static_cast<std::size_t>(id) >= layers_.size())
        return "anon";
    return layers_[static_cast<std::size_t>(id)];
}

void
QuantInspector::record(InspectRecord r)
{
    r.step = phase_[0] == 'e' ? -1 : step_;
    r.phase = phase_;
    std::lock_guard<std::mutex> lock(mutex_);
    records_.push_back(std::move(r));
}

void
QuantInspector::recordWeightSqnr(int layer, const std::string& rung,
                                 double sqnr_db, std::int64_t n)
{
    InspectRecord r;
    r.kind = InspectKind::WeightSqnr;
    r.layer = layerName(layer);
    r.rung = rung;
    r.v0 = sqnr_db;
    r.n = n;
    record(std::move(r));
}

void
QuantInspector::recordActSqnr(int layer, const std::string& rung,
                              double sqnr_db, std::int64_t n)
{
    InspectRecord r;
    r.kind = InspectKind::ActSqnr;
    r.layer = layerName(layer);
    r.rung = rung;
    r.v0 = sqnr_db;
    r.n = n;
    record(std::move(r));
}

void
QuantInspector::recordClipSat(int layer, const std::string& rung,
                              double clip, std::int64_t saturated,
                              std::int64_t total)
{
    InspectRecord r;
    r.kind = InspectKind::ClipSat;
    r.layer = layerName(layer);
    r.rung = rung;
    r.v0 = clip;
    r.i0 = saturated;
    r.n = total;
    record(std::move(r));
}

void
QuantInspector::recordTermEnergy(int layer, const std::string& rung,
                                 std::int64_t kept_mass,
                                 std::int64_t dropped_mass,
                                 std::int64_t kept_terms,
                                 std::int64_t dropped_terms,
                                 std::int64_t values)
{
    InspectRecord r;
    r.kind = InspectKind::TermEnergy;
    r.layer = layerName(layer);
    r.rung = rung;
    r.i0 = kept_mass;
    r.i1 = dropped_mass;
    r.i2 = kept_terms;
    r.i3 = dropped_terms;
    r.n = values;
    record(std::move(r));
}

void
QuantInspector::recordGradNorm(const std::string& param,
                               const std::string& rung, double l2,
                               std::int64_t n)
{
    InspectRecord r;
    r.kind = InspectKind::GradNorm;
    r.layer = param;
    r.rung = rung;
    r.v0 = l2;
    r.n = n;
    record(std::move(r));
}

void
QuantInspector::recordRungAgreement(const std::string& context,
                                    const std::string& rung,
                                    const std::string& ref, double kl,
                                    double top1, std::int64_t rows)
{
    InspectRecord r;
    r.kind = InspectKind::RungAgree;
    r.layer = context;
    r.rung = rung;
    r.ref = ref;
    r.v0 = kl;
    r.v1 = top1;
    r.n = rows;
    record(std::move(r));
}

void
QuantInspector::feedWatchdog(Watchdog& watchdog, std::int64_t batch)
{
    // Copy the undrained tail under the lock, run the rules outside
    // it: raise() records alerts and may flush sinks.
    std::vector<InspectRecord> tail;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        tail.assign(records_.begin() +
                        static_cast<std::ptrdiff_t>(drained_),
                    records_.end());
        drained_ = records_.size();
    }
    for (const InspectRecord& r : tail) {
        const std::string context = r.layer + "/" + r.rung;
        switch (r.kind) {
        case InspectKind::WeightSqnr:
        case InspectKind::ActSqnr:
            watchdog.checkSqnr(context, batch, r.v0);
            break;
        case InspectKind::ClipSat:
            watchdog.checkSaturation(
                context, batch,
                r.n > 0 ? static_cast<double>(r.i0) /
                              static_cast<double>(r.n)
                        : 0.0,
                r.n);
            break;
        case InspectKind::RungAgree:
            watchdog.checkRungKl(context, batch, r.v0);
            break;
        case InspectKind::TermEnergy:
        case InspectKind::GradNorm:
            break;
        }
    }
}

std::string
QuantInspector::renderJsonl() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::string out;
    for (const InspectRecord& r : records_)
        out += renderRecord(r);
    return out;
}

bool
QuantInspector::writeJsonl(const std::string& path,
                           const std::string& manifest_json, bool append)
{
    const std::string body = renderJsonl();
    AtomicFile af(path, append);
    std::FILE* f = af.stream();
    if (f == nullptr)
        return false;
    bool ok = true;
    if (!manifest_json.empty()) {
        ok = std::fwrite(manifest_json.data(), 1, manifest_json.size(),
                         f) == manifest_json.size() &&
             std::fputc('\n', f) != EOF;
    }
    if (ok && !body.empty())
        ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
    return af.commit() && ok;
}

void
QuantInspector::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    records_.clear();
    drained_ = 0;
}

std::size_t
QuantInspector::recordCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return records_.size();
}

InspectLayerScope::InspectLayerScope(int layer_id)
    : prev_(g_current_layer)
{
    g_current_layer = layer_id;
}

InspectLayerScope::~InspectLayerScope()
{
    g_current_layer = prev_;
}

int
currentInspectLayer()
{
    return g_current_layer;
}

InspectEvalScope::InspectEvalScope()
{
    QuantInspector& inspector = QuantInspector::instance();
    if (!inspector.enabled())
        return;
    active_ = true;
    prevSampling_ = detail::g_inspect_sampling.load(
        std::memory_order_relaxed);
    prevPhase_ = inspector.phase_;
    prevStep_ = inspector.step_;
    inspector.phase_ = "eval";
    inspector.step_ = -1;
    detail::g_inspect_sampling.store(true, std::memory_order_relaxed);
}

InspectEvalScope::~InspectEvalScope()
{
    if (!active_)
        return;
    QuantInspector& inspector = QuantInspector::instance();
    inspector.phase_ = prevPhase_;
    inspector.step_ = prevStep_;
    detail::g_inspect_sampling.store(prevSampling_,
                                     std::memory_order_relaxed);
}

} // namespace obs
} // namespace mrq
