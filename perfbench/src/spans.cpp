#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <utility>

#include "obs/heap_profiler.hpp"

namespace perfbench {

namespace {

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::int64_t
heapAllocBytes()
{
    return mrq::obs::heapStatsSnapshot().allocBytes;
}

constexpr const char* kSpanFormat =
    "{\"id\":%" PRIu32 ",\"parent\":%" PRIu32 ",\"op\":%" PRIu64
    ",\"name\":\"%s\",\"rung\":%" PRId32 ",\"start_ns\":%" PRId64
    ",\"end_ns\":%" PRId64 ",\"alloc_bytes\":%" PRId64 "}\n";

constexpr const char* kSpanScan =
    "{\"id\":%" SCNu32 ",\"parent\":%" SCNu32 ",\"op\":%" SCNu64
    ",\"name\":\"%127[^\"]\",\"rung\":%" SCNd32 ",\"start_ns\":%" SCNd64
    ",\"end_ns\":%" SCNd64 ",\"alloc_bytes\":%" SCNd64 "}%n";

} // namespace

SpanRecorder::SpanRecorder()
{
    // Reserve up front so recording does not allocate (and show up in
    // the heap counters it reports) for any run the benchmark makes.
    spans_.reserve(1u << 19);
    stack_.reserve(64);
}

std::uint32_t
SpanRecorder::open(const char* name, std::int32_t rung)
{
    Span s;
    s.id = static_cast<std::uint32_t>(spans_.size() + 1);
    s.parent = stack_.empty() ? 0 : stack_.back();
    s.op = op_;
    s.name = name;
    s.rung = rung;
    s.allocBytes = heapAllocBytes();
    s.startNs = nowNs();
    spans_.push_back(s);
    stack_.push_back(s.id);
    return s.id;
}

void
SpanRecorder::close(std::uint32_t id)
{
    const std::int64_t end = nowNs();
    Span& s = spans_[id - 1];
    s.endNs = end;
    s.allocBytes = heapAllocBytes() - s.allocBytes;
    if (!stack_.empty() && stack_.back() == id)
        stack_.pop_back();
}

std::vector<std::int64_t>
selfTimesNs(const std::vector<Span>& spans)
{
    std::vector<std::size_t> index_of_id;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].id >= index_of_id.size())
            index_of_id.resize(spans[i].id + 1, SIZE_MAX);
        index_of_id[spans[i].id] = i;
    }
    // Direct-child intervals per parent, clipped to the parent.
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
        spans.size());
    for (const Span& c : spans) {
        if (c.parent == 0 || c.parent >= index_of_id.size() ||
            index_of_id[c.parent] == SIZE_MAX)
            continue;
        const Span& p = spans[index_of_id[c.parent]];
        const std::int64_t lo = std::max(c.startNs, p.startNs);
        const std::int64_t hi = std::min(c.endNs, p.endNs);
        if (hi > lo)
            kids[index_of_id[c.parent]].emplace_back(lo, hi);
    }
    std::vector<std::int64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        auto& iv = kids[i];
        std::sort(iv.begin(), iv.end());
        std::int64_t covered = 0;
        std::int64_t cur_lo = 0;
        std::int64_t cur_hi = 0;
        bool have = false;
        for (const auto& [lo, hi] : iv) {
            if (have && lo <= cur_hi) {
                cur_hi = std::max(cur_hi, hi);
                continue;
            }
            if (have)
                covered += cur_hi - cur_lo;
            cur_lo = lo;
            cur_hi = hi;
            have = true;
        }
        if (have)
            covered += cur_hi - cur_lo;
        self[i] = (spans[i].endNs - spans[i].startNs) - covered;
    }
    return self;
}

bool
writeSpansJsonl(const std::string& path, const std::string& header,
                const std::vector<Span>& spans)
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    bool ok = std::fprintf(f, "%s\n", header.c_str()) >= 0;
    for (const Span& s : spans)
        ok = ok && std::fprintf(f, kSpanFormat, s.id, s.parent, s.op,
                                s.name, s.rung, s.startNs, s.endNs,
                                s.allocBytes) >= 0;
    return std::fclose(f) == 0 && ok;
}

bool
readSpansJsonl(const std::string& path, SpanFile* out)
{
    std::ifstream in(path);
    if (!in || !std::getline(in, out->header))
        return false;
    out->spans.clear();
    std::string line;
    char name[128];
    while (std::getline(in, line)) {
        line += '\n';
        Span s;
        int consumed = -1;
        const int fields =
            std::sscanf(line.c_str(), kSpanScan, &s.id, &s.parent, &s.op,
                        name, &s.rung, &s.startNs, &s.endNs,
                        &s.allocBytes, &consumed);
        if (fields != 8 || consumed < 0 ||
            static_cast<std::size_t>(consumed) != line.size() - 1)
            return false;
        s.name = out->names.insert(name).first->c_str();
        out->spans.push_back(s);
    }
    return true;
}

} // namespace perfbench
