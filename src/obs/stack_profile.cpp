/**
 * @file
 * Stack-profile core implementation.  See stack_profile.hpp.
 */

#include "obs/stack_profile.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include <cxxabi.h>
#include <dlfcn.h>

#include "kernels/isa.hpp"
#include "kernels/roofline.hpp"
#include "obs/atomic_file.hpp"
#include "obs/manifest.hpp"
#include "obs/trace.hpp"

namespace mrq {
namespace obs {

namespace {

/** PC -> demangled name.  Immortal like the aggregates. */
struct SymbolCache
{
    std::mutex mutex;
    std::map<std::uintptr_t, std::string> names;
};

SymbolCache&
symbolCache()
{
    static SymbolCache* cache = new SymbolCache;
    return *cache;
}

/** Kernel-family slug for a sample tag (-1 / out of range -> ""). */
const char*
kernelSlug(int tag)
{
    if (tag < 0 || tag >= static_cast<int>(kernels::kKernelCount))
        return "";
    return kernels::kernelCost(static_cast<kernels::KernelId>(tag))
        .slug;
}

void
appendFields(std::string* out, const std::vector<ProfileField>& fields)
{
    char buf[96];
    for (const ProfileField& f : fields) {
        std::snprintf(buf, sizeof buf, ", \"%s\": %lld", f.key,
                      static_cast<long long>(f.value));
        *out += buf;
    }
}

/** The JSONL text of @p doc. */
std::string
stackProfileJsonl(const ProfileDoc& doc)
{
    const bool cpu = doc.kind == ProfileKind::Cpu;
    std::string out = "{\"type\": \"stack_profile\", \"version\": " +
                      std::to_string(kStackProfileVersion) +
                      ", \"kind\": \"" + (cpu ? "cpu" : "heap") +
                      "\", \"unit\": \"" + (cpu ? "ns" : "bytes") +
                      "\", \"isa\": \"" +
                      jsonEscape(kernels::isaName(kernels::activeIsa())) +
                      "\", \"git\": \"" + jsonEscape(buildGitDescribe()) +
                      "\"";
    appendFields(&out, doc.totals);
    out += "}\n";
    for (const ProfileThread& t : doc.threads) {
        out += "{\"type\": \"thread\", \"thread\": \"" +
               jsonEscape(t.name) + "\"";
        appendFields(&out, t.fields);
        out += "}\n";
    }
    std::int64_t count = 0;
    std::int64_t weight = 0;
    for (const ProfileStack& s : doc.stacks) {
        out += "{\"type\": \"stack\", \"thread\": \"" +
               jsonEscape(s.thread) + "\", \"span\": \"" +
               jsonEscape(s.span) + "\", \"kernel\": \"" +
               jsonEscape(s.kernel) + "\"";
        appendFields(&out, {{"count", s.count}, {"weight", s.weight}});
        out += ", \"frames\": [";
        for (std::size_t i = 0; i < s.frames.size(); ++i) {
            out += i > 0 ? ", \"" : "\"";
            out += jsonEscape(s.frames[i]);
            out += '"';
        }
        out += "]}\n";
        count += s.count;
        weight += s.weight;
    }
    out += "{\"type\": \"stack_profile_end\"";
    appendFields(&out,
                 {{"stacks", static_cast<std::int64_t>(doc.stacks.size())},
                  {"count", count},
                  {"weight", weight}});
    out += "}\n";
    return out;
}

} // namespace

std::string
jsonEscape(const std::string& s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
            continue;
        }
        out.push_back(c);
    }
    return out;
}

std::string
resolveRunPath(std::string path, const std::string& run)
{
    const std::size_t pos = path.find("{run}");
    if (pos != std::string::npos)
        path.replace(pos, 5, run);
    return path;
}

std::string
symbolizePc(std::uintptr_t pc)
{
    SymbolCache& cache = symbolCache();
    std::lock_guard<std::mutex> lock(cache.mutex);
    auto it = cache.names.find(pc);
    if (it != cache.names.end())
        return it->second;
    std::string out;
    Dl_info info;
    if (dladdr(reinterpret_cast<void*>(pc), &info) != 0 &&
        info.dli_sname != nullptr) {
        int status = 0;
        char* dem = abi::__cxa_demangle(info.dli_sname, nullptr,
                                        nullptr, &status);
        if (status == 0 && dem != nullptr) {
            out = dem;
            // Drop the argument list: folded stacks and diff keys
            // want one frame name, not a signature.
            const std::size_t paren = out.find('(');
            if (paren != std::string::npos && paren > 0)
                out.resize(paren);
        } else {
            out = info.dli_sname;
        }
        std::free(dem);
    }
    if (out.empty()) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "0x%llx",
                      static_cast<unsigned long long>(pc));
        out = buf;
    }
    cache.names.emplace(pc, out);
    return out;
}

bool
StackKey::operator<(const StackKey& o) const
{
    if (thread != o.thread)
        return thread < o.thread;
    if (pathId != o.pathId)
        return pathId < o.pathId;
    if (kernel != o.kernel)
        return kernel < o.kernel;
    return pcs < o.pcs;
}

void
StackAggregate::add(StackKey key, std::int64_t weight)
{
    std::lock_guard<std::mutex> lock(mutex_);
    StackWeight& w = map_[std::move(key)];
    w.count += 1;
    w.weight += weight;
}

void
StackAggregate::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    map_.clear();
}

StackMap
StackAggregate::copy() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return map_;
}

StackAggregate&
stackAggregate(ProfileKind kind)
{
    static StackAggregate* cpu = new StackAggregate;
    static StackAggregate* heap = new StackAggregate;
    return kind == ProfileKind::Cpu ? *cpu : *heap;
}

std::vector<ProfileStack>
profileStacks(const StackMap& agg)
{
    std::vector<ProfileStack> out;
    out.reserve(agg.size());
    for (const auto& [key, w] : agg) {
        ProfileStack s;
        s.thread = key.thread;
        s.span = tracePathString(key.pathId);
        s.kernel = kernelSlug(key.kernel);
        s.count = w.count;
        s.weight = w.weight;
        s.frames.reserve(key.pcs.size());
        for (std::uintptr_t pc : key.pcs)
            s.frames.push_back(symbolizePc(pc));
        out.push_back(std::move(s));
    }
    std::sort(out.begin(), out.end(),
              [](const ProfileStack& a, const ProfileStack& b) {
                  if (a.weight != b.weight)
                      return a.weight > b.weight;
                  if (a.thread != b.thread)
                      return a.thread < b.thread;
                  if (a.span != b.span)
                      return a.span < b.span;
                  if (a.kernel != b.kernel)
                      return a.kernel < b.kernel;
                  return a.frames < b.frames;
              });
    return out;
}

bool
writeStackProfile(const std::string& path, const ProfileDoc& doc)
{
    if (path.empty())
        return false;
    AtomicFile af(path);
    std::FILE* f = af.stream();
    if (f == nullptr)
        return false;
    const std::string text = stackProfileJsonl(doc);
    std::fwrite(text.data(), 1, text.size(), f);
    const bool clean = std::ferror(f) == 0;
    return af.commit() && clean;
}

} // namespace obs
} // namespace mrq
