/**
 * @file
 * Shared environment-variable parsing for every MRQ_* toggle.
 *
 * One truthiness rule for the whole library: a boolean knob is ON
 * exactly when its value is "1", "true" or "on" (case-insensitive).
 * Anything else — unset, empty, "0", "off", "yes", stray whitespace —
 * is OFF.  The one path-valued knob, MRQ_RUN_DIR, uses envSet():
 * any non-empty value counts.
 *
 * Before this header each module hand-rolled its own check (presence
 * in one place, "not 0" in another), so MRQ_TRACE=off enabled
 * tracing.  Every new knob must parse through these helpers.
 */

#ifndef MRQ_OBS_ENV_HPP
#define MRQ_OBS_ENV_HPP

#include <cstdlib>

namespace mrq {
namespace obs {

/** True when @p value is "1", "true" or "on", case-insensitive. */
inline bool
truthy(const char* value)
{
    if (value == nullptr)
        return false;
    auto lower = [](char c) {
        return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a')
                                    : c;
    };
    const char* candidates[] = {"1", "true", "on"};
    for (const char* want : candidates) {
        const char* v = value;
        const char* w = want;
        while (*v != '\0' && *w != '\0' && lower(*v) == *w) {
            ++v;
            ++w;
        }
        if (*v == '\0' && *w == '\0')
            return true;
    }
    return false;
}

/** True when the boolean env knob @p name is set to a truthy value. */
inline bool
envTruthy(const char* name)
{
    return truthy(std::getenv(name));
}

/** True when the env variable @p name is set and non-empty (for
 *  path-valued knobs, where any non-empty string counts). */
inline bool
envSet(const char* name)
{
    const char* v = std::getenv(name);
    return v != nullptr && v[0] != '\0';
}

/** Value of @p name, or @p fallback when unset/empty. */
inline const char*
envValue(const char* name, const char* fallback)
{
    const char* v = std::getenv(name);
    return v != nullptr && v[0] != '\0' ? v : fallback;
}

/** Integer value of @p name; @p fallback when unset, empty, or not a
 *  full base-10 integer (no silent prefix parsing). */
inline long
envLong(const char* name, long fallback)
{
    const char* v = std::getenv(name);
    if (v == nullptr || v[0] == '\0')
        return fallback;
    char* end = nullptr;
    const long parsed = std::strtol(v, &end, 10);
    return end != v && *end == '\0' ? parsed : fallback;
}

} // namespace obs
} // namespace mrq

#endif // MRQ_OBS_ENV_HPP
