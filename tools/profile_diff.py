#!/usr/bin/env python3
"""Ranked per-stack delta between two MRQ stack profiles, or one
profile rendered as folded stacks.

Reads the JSONL stack profiles written by the CPU sampler
(``MRQ_SAMPLE_OUT``, kind "cpu", weight in ns of sampled CPU time) and
the heap profiler (``MRQ_HEAPPROF_OUT``, kind "heap", weight in
sampled bytes), parsed and validated by ``check_profile_schema.load``.
The weight column and its unit come from the header, so one diff
serves both kinds: when a bench timing or heap gate trips, the failure
comes with the stacks that account for the difference, ranked by
absolute weight delta with regressions (growth) first.

Stacks are keyed by (span path, kernel family, frame list) and merged
across threads: thread identity is an artifact of scheduling, the
code location is what regressed.  CPU weights are sample count x
period, so profiles taken at different rates diff in comparable
units; heap weights compare between runs at the same sampling
interval.

Usage:
    profile_diff.py [--top=N] [--json] [--expect-zero] BASE CURRENT
    profile_diff.py --folded PROFILE

``--expect-zero`` exits 1 when any per-stack delta is nonzero (CI
self-diff gate).  ``--folded`` prints PROFILE as flamegraph folded
stacks instead: one ``span;...;outer;...;inner <weight>`` line per
distinct stack, span path root-first, then frames outermost-first.
Exit codes: 0 ok, 1 deltas found under --expect-zero, 2 usage error
or an empty, truncated, malformed or mismatched (cpu vs heap) input.
"""

import json
import sys

from check_profile_schema import ProfileError, load

USAGE_EXIT = 2

#: Display per header unit: (divisor, label, column width, what).
UNITS = {"ns": (1e6, "ms", 10, "CPU-time"),
         "bytes": (1024.0, "KiB", 12, "allocation")}


def load_profile(path):
    """Parse one profile into a dict:

    {"kind": ..., "unit": ..., "header": {...},
     "stacks": {key: {"count": c, "weight": w}}}
    where key = (span, kernel, tuple(frames)), merged across threads.
    """
    prof = load(path)
    stacks = {}
    for s in prof.stacks:
        key = (s["span"], s["kernel"], tuple(s["frames"]))
        slot = stacks.setdefault(key, {"count": 0, "weight": 0})
        slot["count"] += s["count"]
        slot["weight"] += s["weight"]
    return {"kind": prof.header["kind"], "unit": prof.header["unit"],
            "header": prof.header, "stacks": stacks}


def diff_profiles(base, cur):
    """Per-stack weight deltas, regressions (cur > base) first, then
    by absolute delta.  Raises ProfileError on a kind mismatch."""
    if base["kind"] != cur["kind"]:
        raise ProfileError("cannot diff a %s profile against a %s "
                           "profile" % (base["kind"], cur["kind"]))
    zero = {"count": 0, "weight": 0}
    rows = []
    for key in set(base["stacks"]) | set(cur["stacks"]):
        b = base["stacks"].get(key, zero)
        c = cur["stacks"].get(key, zero)
        if b["weight"] == 0 and c["weight"] == 0:
            continue
        span, kernel, frames = key
        rows.append({
            "span": span,
            "kernel": kernel,
            "frames": list(frames),
            "base_count": b["count"],
            "cur_count": c["count"],
            "base_weight": b["weight"],
            "cur_weight": c["weight"],
            "delta_weight": c["weight"] - b["weight"],
        })
    rows.sort(key=lambda r: (r["delta_weight"] <= 0,
                             -abs(r["delta_weight"]), r["span"],
                             r["kernel"], tuple(r["frames"])))
    return rows


def _stack_label(row):
    parts = []
    if row["span"]:
        parts.append(row["span"])
    if row["kernel"]:
        parts.append("[" + row["kernel"] + "]")
    if row["frames"]:
        # Innermost frame first in the label; full stack available in
        # --json output.
        parts.append(row["frames"][0])
    return " ".join(parts) if parts else "??"


def format_report(rows, base_label, cur_label, kind, unit, top=20):
    scale, label, width, what = UNITS[unit]
    lines = ["%s profile diff: %s -> %s" % (kind, base_label, cur_label)]
    total = sum(r["delta_weight"] for r in rows)
    lines.append("net sampled %s delta: %+0.3f %s over %d distinct "
                 "stacks" % (what, total / scale, label, len(rows)))
    shown = rows[:top] if top > 0 else rows
    if top > 0 and len(rows) > top:
        lines.append("top %d by |delta| (of %d):" % (top, len(rows)))
    for row in shown:
        lines.append("  %+*.3f %s  (%*.3f -> %*.3f)  %s" %
                     (width, row["delta_weight"] / scale, label,
                      width - 3, row["base_weight"] / scale, width - 3,
                      row["cur_weight"] / scale, _stack_label(row)))
    if not rows:
        lines.append("  profiles are identical (zero deltas)")
    return "\n".join(lines)


def folded(profile):
    """Flamegraph folded stacks: span components root-first, then
    frames outermost-first, joined by ';'; equal stacks merged; lines
    sorted."""
    merged = {}
    for (span, _kernel, frames), w in profile["stacks"].items():
        parts = [p for p in span.split("/") if p]
        parts.extend(reversed(frames))
        line = ";".join(parts) or "??"
        merged[line] = merged.get(line, 0) + w["weight"]
    return "".join("%s %d\n" % (line, weight)
                   for line, weight in sorted(merged.items()))


def main(argv):
    top = 20
    as_json = False
    expect_zero = False
    as_folded = False
    paths = []
    for arg in argv[1:]:
        if arg.startswith("--top="):
            try:
                top = int(arg.split("=", 1)[1])
            except ValueError:
                print("profile_diff: bad --top value", file=sys.stderr)
                return USAGE_EXIT
        elif arg == "--json":
            as_json = True
        elif arg == "--expect-zero":
            expect_zero = True
        elif arg == "--folded":
            as_folded = True
        elif arg.startswith("--"):
            print("profile_diff: unknown option %s" % arg,
                  file=sys.stderr)
            return USAGE_EXIT
        else:
            paths.append(arg)
    if len(paths) != (1 if as_folded else 2):
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: profile_diff.py [--top=N] [--json] "
              "[--expect-zero] BASE CURRENT\n"
              "       profile_diff.py --folded PROFILE", file=sys.stderr)
        return USAGE_EXIT
    try:
        profiles = [load_profile(p) for p in paths]
        if as_folded:
            sys.stdout.write(folded(profiles[0]))
            return 0
        rows = diff_profiles(profiles[0], profiles[1])
    except ProfileError as err:
        print("profile_diff: %s" % err, file=sys.stderr)
        return USAGE_EXIT
    base = profiles[0]
    if as_json:
        print(json.dumps({"base": paths[0], "current": paths[1],
                          "kind": base["kind"], "unit": base["unit"],
                          "deltas": rows}, indent=2, sort_keys=True))
    else:
        print(format_report(rows, paths[0], paths[1], base["kind"],
                            base["unit"], top=top))
    if expect_zero and any(r["delta_weight"] != 0 for r in rows):
        print("profile_diff: nonzero deltas with --expect-zero",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
