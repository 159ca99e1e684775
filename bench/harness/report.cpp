#include "harness/report.hpp"

#include <cctype>
#include <cinttypes>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <system_error>

#include "obs/atomic_file.hpp"
#include "obs/stack_profile.hpp"

namespace mrq {
namespace bench {

namespace {

using obs::jsonEscape;

/** Shortest decimal form of @p v that parses back bit-exactly, so the
 *  committed trajectory stays readable without losing determinism. */
std::string
formatDouble(double v)
{
    char buf[64];
    for (int prec = 15; prec <= 17; ++prec) {
        std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
        if (std::strtod(buf, nullptr) == v)
            break;
    }
    return buf;
}

void
appendStatsJson(std::string& out, const RobustStats& s,
                const std::string& indent)
{
    out += "{\n";
    out += indent + "  \"count\": " + std::to_string(s.count) + ",\n";
    out += indent + "  \"median\": " + formatDouble(s.median) + ",\n";
    out += indent + "  \"mad\": " + formatDouble(s.mad) + ",\n";
    out += indent + "  \"min\": " + formatDouble(s.min) + ",\n";
    out += indent + "  \"max\": " + formatDouble(s.max) + ",\n";
    out += indent + "  \"mean\": " + formatDouble(s.mean) + ",\n";
    out += indent + "  \"outliers\": " + std::to_string(s.outliers) +
           "\n";
    out += indent + "}";
}

void
appendDoubleMapJson(std::string& out,
                    const std::map<std::string, double>& map,
                    const std::string& indent)
{
    if (map.empty()) {
        out += "{}";
        return;
    }
    out += "{\n";
    std::size_t i = 0;
    for (const auto& [key, value] : map) {
        out += indent + "  \"" + jsonEscape(key) +
               "\": " + formatDouble(value);
        out += ++i < map.size() ? ",\n" : "\n";
    }
    out += indent + "}";
}

void
appendMetricMapJson(std::string& out,
                    const std::map<std::string, MetricValue>& map,
                    const std::string& indent)
{
    if (map.empty()) {
        out += "{}";
        return;
    }
    out += "{\n";
    std::size_t i = 0;
    for (const auto& [key, value] : map) {
        out += indent + "  \"" + jsonEscape(key) + "\": ";
        out += value.isInt ? std::to_string(value.i)
                           : formatDouble(value.d);
        out += ++i < map.size() ? ",\n" : "\n";
    }
    out += indent + "}";
}

// ---------------------------------------------------------------
// Minimal JSON value model + recursive-descent parser, just enough
// for the bench schema (objects, arrays, strings, numbers, bools).
// ---------------------------------------------------------------

struct JsonValue
{
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object
    };
    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    bool numberIsInt = false;
    std::int64_t integer = 0;
    std::string string;
    std::vector<JsonValue> array;
    /** Document order preserved so manifest extras round-trip
     *  byte-identically. */
    std::vector<std::pair<std::string, JsonValue>> object;

    const JsonValue*
    find(const std::string& key) const
    {
        for (const auto& [k, v] : object)
            if (k == key)
                return &v;
        return nullptr;
    }
};

class JsonParser
{
  public:
    JsonParser(const std::string& text, std::string* error)
        : text_(text), error_(error)
    {
    }

    bool
    parse(JsonValue* out)
    {
        skipWs();
        if (!parseValue(out))
            return false;
        skipWs();
        if (pos_ != text_.size())
            return fail("trailing content");
        return true;
    }

  private:
    bool
    fail(const std::string& what)
    {
        if (error_ != nullptr && error_->empty())
            *error_ = what + " at offset " + std::to_string(pos_);
        return false;
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    bool
    consume(char c)
    {
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool
    parseValue(JsonValue* out)
    {
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        const char c = text_[pos_];
        if (c == '{')
            return parseObject(out);
        if (c == '[')
            return parseArray(out);
        if (c == '"') {
            out->kind = JsonValue::Kind::String;
            return parseString(&out->string);
        }
        if (text_.compare(pos_, 4, "true") == 0) {
            out->kind = JsonValue::Kind::Bool;
            out->boolean = true;
            pos_ += 4;
            return true;
        }
        if (text_.compare(pos_, 5, "false") == 0) {
            out->kind = JsonValue::Kind::Bool;
            out->boolean = false;
            pos_ += 5;
            return true;
        }
        if (text_.compare(pos_, 4, "null") == 0) {
            out->kind = JsonValue::Kind::Null;
            pos_ += 4;
            return true;
        }
        return parseNumber(out);
    }

    bool
    parseString(std::string* out)
    {
        if (!consume('"'))
            return fail("expected string");
        out->clear();
        while (pos_ < text_.size()) {
            const char c = text_[pos_++];
            if (c == '"')
                return true;
            if (c == '\\') {
                if (pos_ >= text_.size())
                    return fail("bad escape");
                const char e = text_[pos_++];
                switch (e) {
                case '"': out->push_back('"'); break;
                case '\\': out->push_back('\\'); break;
                case '/': out->push_back('/'); break;
                case 'n': out->push_back('\n'); break;
                case 't': out->push_back('\t'); break;
                case 'r': out->push_back('\r'); break;
                case 'u': {
                    if (pos_ + 4 > text_.size())
                        return fail("bad \\u escape");
                    const unsigned long cp = std::strtoul(
                        text_.substr(pos_, 4).c_str(), nullptr, 16);
                    pos_ += 4;
                    // Bench names are ASCII; reject anything else.
                    if (cp > 0x7f)
                        return fail("non-ASCII \\u escape");
                    out->push_back(static_cast<char>(cp));
                    break;
                }
                default: return fail("unknown escape");
                }
                continue;
            }
            out->push_back(c);
        }
        return fail("unterminated string");
    }

    bool
    parseNumber(JsonValue* out)
    {
        const std::size_t start = pos_;
        if (pos_ < text_.size() &&
            (text_[pos_] == '-' || text_[pos_] == '+'))
            ++pos_;
        bool fractional = false;
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (std::isdigit(static_cast<unsigned char>(c))) {
                ++pos_;
            } else if (c == '.' || c == 'e' || c == 'E' || c == '-' ||
                       c == '+') {
                fractional = true;
                ++pos_;
            } else {
                break;
            }
        }
        if (pos_ == start)
            return fail("expected value");
        const std::string tok = text_.substr(start, pos_ - start);
        char* end = nullptr;
        out->kind = JsonValue::Kind::Number;
        out->number = std::strtod(tok.c_str(), &end);
        if (end != tok.c_str() + tok.size())
            return fail("bad number '" + tok + "'");
        out->numberIsInt = !fractional;
        if (out->numberIsInt)
            out->integer = std::strtoll(tok.c_str(), nullptr, 10);
        return true;
    }

    bool
    parseArray(JsonValue* out)
    {
        consume('[');
        out->kind = JsonValue::Kind::Array;
        skipWs();
        if (consume(']'))
            return true;
        while (true) {
            JsonValue v;
            skipWs();
            if (!parseValue(&v))
                return false;
            out->array.push_back(std::move(v));
            skipWs();
            if (consume(']'))
                return true;
            if (!consume(','))
                return fail("expected ',' or ']'");
        }
    }

    bool
    parseObject(JsonValue* out)
    {
        consume('{');
        out->kind = JsonValue::Kind::Object;
        skipWs();
        if (consume('}'))
            return true;
        while (true) {
            skipWs();
            std::string key;
            if (!parseString(&key))
                return false;
            skipWs();
            if (!consume(':'))
                return fail("expected ':'");
            skipWs();
            JsonValue v;
            if (!parseValue(&v))
                return false;
            out->object.emplace_back(std::move(key), std::move(v));
            skipWs();
            if (consume('}'))
                return true;
            if (!consume(','))
                return fail("expected ',' or '}'");
        }
    }

    const std::string& text_;
    std::string* error_ = nullptr;
    std::size_t pos_ = 0;
};

bool
extractStats(const JsonValue& v, RobustStats* out, std::string* error)
{
    const struct
    {
        const char* key;
        double* target;
    } fields[] = {{"median", &out->median}, {"mad", &out->mad},
                  {"min", &out->min},       {"max", &out->max},
                  {"mean", &out->mean}};
    const JsonValue* count = v.find("count");
    const JsonValue* outliers = v.find("outliers");
    if (count == nullptr || outliers == nullptr) {
        *error = "wall_ms missing count/outliers";
        return false;
    }
    out->count = static_cast<std::size_t>(count->integer);
    out->outliers = static_cast<std::size_t>(outliers->integer);
    for (const auto& f : fields) {
        const JsonValue* field = v.find(f.key);
        if (field == nullptr ||
            field->kind != JsonValue::Kind::Number) {
            *error = std::string("wall_ms missing ") + f.key;
            return false;
        }
        *f.target = field->number;
    }
    return true;
}

} // namespace

std::map<std::string, MetricValue>
flattenSnapshot(const obs::Snapshot& snap)
{
    std::map<std::string, MetricValue> out;
    for (const auto& c : snap.counters)
        out[c.name] = MetricValue::ofInt(c.value);
    for (const auto& g : snap.gauges)
        out[g.name] = MetricValue::ofDouble(g.value);
    for (const auto& h : snap.histograms) {
        out[h.name + ".total"] = MetricValue::ofInt(h.total);
        out[h.name + ".sum"] = MetricValue::ofInt(h.weighted);
    }
    return out;
}

std::string
BenchReport::toJson() const
{
    std::vector<const CaseRecord*> ordered;
    ordered.reserve(cases.size());
    for (const CaseRecord& c : cases)
        ordered.push_back(&c);
    std::sort(ordered.begin(), ordered.end(),
              [](const CaseRecord* a, const CaseRecord* b) {
                  return a->name < b->name;
              });

    std::string out = "{\n";
    out += "  \"type\": \"bench\",\n";
    out += "  \"version\": " + std::to_string(kBenchSchemaVersion) +
           ",\n";
    out += "  \"suite\": \"" + jsonEscape(suite) + "\",\n";
    out += "  \"manifest\": " + obs::manifestJson(manifest) + ",\n";
    out += "  \"cases\": [";
    for (std::size_t i = 0; i < ordered.size(); ++i) {
        const CaseRecord& c = *ordered[i];
        out += i == 0 ? "\n" : ",\n";
        out += "    {\n";
        out += "      \"name\": \"" + jsonEscape(c.name) + "\",\n";
        out += "      \"reps\": " + std::to_string(c.reps) + ",\n";
        out += "      \"warmup\": " + std::to_string(c.warmup) + ",\n";
        out += std::string("      \"failed\": ") +
               (c.failed ? "true" : "false") + ",\n";
        out += "      \"wall_ms\": ";
        appendStatsJson(out, c.wallMs, "      ");
        out += ",\n      \"values\": ";
        appendDoubleMapJson(out, c.values, "      ");
        out += ",\n      \"timing_values\": ";
        appendDoubleMapJson(out, c.timingValues, "      ");
        out += ",\n      \"metrics\": ";
        appendMetricMapJson(out, c.metrics, "      ");
        out += ",\n      \"resources\": ";
        appendDoubleMapJson(out, c.resources, "      ");
        out += "\n    }";
    }
    out += ordered.empty() ? "]\n" : "\n  ]\n";
    out += "}\n";
    return out;
}

bool
BenchReport::write(const std::string& path) const
{
    const std::filesystem::path p(path);
    if (p.has_parent_path()) {
        std::error_code ec;
        std::filesystem::create_directories(p.parent_path(), ec);
        if (ec) {
            std::fprintf(stderr, "BenchReport: cannot create %s: %s\n",
                         p.parent_path().string().c_str(),
                         ec.message().c_str());
            return false;
        }
    }
    obs::AtomicFile af(path);
    std::FILE* f = af.stream();
    if (f == nullptr) {
        std::fprintf(stderr, "BenchReport: cannot write %s\n",
                     path.c_str());
        return false;
    }
    const std::string json = toJson();
    const bool write_ok =
        std::fwrite(json.data(), 1, json.size(), f) == json.size();
    if (!af.commit() || !write_ok) {
        std::fprintf(stderr, "BenchReport: write to %s failed\n",
                     path.c_str());
        return false;
    }
    return true;
}

bool
parseBenchReport(const std::string& json, BenchReport* out,
                 std::string* error)
{
    std::string local_error;
    std::string* err = error != nullptr ? error : &local_error;
    err->clear();

    JsonValue root;
    JsonParser parser(json, err);
    if (!parser.parse(&root))
        return false;
    if (root.kind != JsonValue::Kind::Object) {
        *err = "top level is not an object";
        return false;
    }
    const JsonValue* type = root.find("type");
    if (type == nullptr || type->string != "bench") {
        *err = "missing type: \"bench\"";
        return false;
    }
    const JsonValue* version = root.find("version");
    if (version == nullptr || !version->numberIsInt ||
        version->integer < kBenchSchemaMinVersion ||
        version->integer > kBenchSchemaVersion) {
        *err = "unknown schema version";
        return false;
    }
    const JsonValue* suite = root.find("suite");
    const JsonValue* manifest = root.find("manifest");
    const JsonValue* cases = root.find("cases");
    if (suite == nullptr || manifest == nullptr || cases == nullptr ||
        cases->kind != JsonValue::Kind::Array) {
        *err = "missing suite/manifest/cases";
        return false;
    }

    out->suite = suite->string;
    out->manifest = obs::RunManifest{};
    for (const auto& [key, value] : manifest->object) {
        if (key == "type")
            continue;
        if (key == "run")
            out->manifest.run = value.string;
        else if (key == "seed")
            out->manifest.seed =
                static_cast<std::uint64_t>(value.integer);
        else if (key == "git")
            out->manifest.gitDescribe = value.string;
        else if (key == "git_dirty")
            out->manifest.gitDirty = value.string;
        else if (key == "compiler")
            out->manifest.compiler = value.string;
        else if (key == "build_type")
            out->manifest.buildType = value.string;
        else if (key == "sanitizer")
            out->manifest.sanitizer = value.string;
        else
            out->manifest.add(key, value.string);
    }

    out->cases.clear();
    for (const JsonValue& c : cases->array) {
        CaseRecord rec;
        const JsonValue* name = c.find("name");
        const JsonValue* reps = c.find("reps");
        const JsonValue* warmup = c.find("warmup");
        const JsonValue* failed = c.find("failed");
        const JsonValue* wall = c.find("wall_ms");
        if (name == nullptr || reps == nullptr || warmup == nullptr ||
            failed == nullptr || wall == nullptr) {
            *err = "case missing name/reps/warmup/failed/wall_ms";
            return false;
        }
        rec.name = name->string;
        rec.reps = static_cast<int>(reps->integer);
        rec.warmup = static_cast<int>(warmup->integer);
        rec.failed = failed->boolean;
        if (!extractStats(*wall, &rec.wallMs, err))
            return false;
        if (const JsonValue* values = c.find("values"))
            for (const auto& [key, value] : values->object)
                rec.values[key] = value.number;
        if (const JsonValue* timing = c.find("timing_values"))
            for (const auto& [key, value] : timing->object)
                rec.timingValues[key] = value.number;
        if (const JsonValue* metrics = c.find("metrics"))
            for (const auto& [key, value] : metrics->object)
                rec.metrics[key] =
                    value.numberIsInt
                        ? MetricValue::ofInt(value.integer)
                        : MetricValue::ofDouble(value.number);
        if (const JsonValue* resources = c.find("resources"))
            for (const auto& [key, value] : resources->object)
                rec.resources[key] = value.number;
        out->cases.push_back(std::move(rec));
    }
    return true;
}

void
TablePrinter::printf(const char* fmt, ...)
{
    if (!enabled_)
        return;
    va_list args;
    va_start(args, fmt);
    std::vfprintf(out_, fmt, args);
    va_end(args);
}

void
TablePrinter::header(const std::string& id, const std::string& what)
{
    printf("==============================================\n");
    printf("%s — %s\n", id.c_str(), what.c_str());
    printf("==============================================\n");
}

void
TablePrinter::row(const std::string& label, double measured,
                  const std::string& paper)
{
    printf("  %-28s measured %-12.4g paper %s\n", label.c_str(),
           measured, paper.c_str());
}

} // namespace bench
} // namespace mrq
