#!/usr/bin/env python3
"""Compare two BENCH_<suite>.json trajectory files (stdlib only).

Usage: bench_compare.py [options] BASELINE CURRENT

Exits non-zero when CURRENT regresses from BASELINE:

  * a baseline case is missing from CURRENT, or a case failed;
  * a deterministic value ("values") or metrics-snapshot entry
    ("metrics") differs beyond --value-rtol (default 0: exact match —
    at a fixed seed/tier these are reproducible bit-for-bit);
  * timing ("wall_ms" median, "timing_values") regresses beyond the
    noise gate: worse by more than --timing-rtol (default 0.6, i.e.
    60%) AND more than --timing-floor-ms (default 50 ms) absolute.
    Timing checks are OFF unless --check-timing is given, because
    trajectory files from different machines are not comparable.

The "resources" map (schema v2: peak RSS; schema v3 adds
alloc_bytes/alloc_count/peak_heap from the heap profiler) is
machine-dependent like timing: it is never compared exactly, only
noise-gated under --check-resources (worse by more than
--resource-rtol, default 1.0 = 2x), and absent fields (the heap
profiler off, or a sanitizer build without the heap interposition)
are never regressions.

New cases / new keys in CURRENT are reported but never fatal (the
trajectory is expected to grow).  Improvements are never fatal.

Both files are read through check_schema.load("bench", ...): a file
that is unreadable or fails the trajectory schema exits 2 with a
one-line diagnostic, never 1, so a malformed input is not mistaken
for a regression.

When both runs also recorded per-case profiles (MRQ_RUN_DIR with
MRQ_SAMPLE=1 and/or MRQ_HEAPPROF=1: <case>.cpu.jsonl and
<case>.heap.jsonl per case), pass --profiles-base=DIR and
--profiles-cur=DIR, the two run directories.  Every tripped timing
gate then runs tools/profile_diff.py over that case's two CPU
profiles and prints the top stack deltas, so the CI failure names
the code that got slower, not just the case; every tripped resources
gate on a heap key runs the same diff over the heap profiles.  A
profile that is missing or unparsable (empty, truncated, the wrong
kind) downgrades to an "attribution unavailable" note — never a gate
failure of its own.

Options:
  --check-timing        enable the wall-clock regression gate
  --timing-rtol=R       relative timing slack (default 0.6)
  --timing-floor-ms=MS  ignore timing deltas below MS (default 50)
  --value-rtol=R        relative tolerance for values/metrics
                        (default 0: exact)
  --check-resources     enable the resources (RSS/perf/heap) noise
                        gate
  --resource-rtol=R     relative resources slack (default 1.0)
  --profiles-base=DIR   run directory of the baseline run
  --profiles-cur=DIR    run directory of the current run
"""

import os
import sys

import check_schema
import profile_diff

FATAL = 1
USAGE = 2

#: Resource keys the heap profiler fills; a tripped gate on one of
#: these is attributable when per-case heap profiles were recorded.
HEAP_RESOURCE_KEYS = ("alloc_bytes", "alloc_count", "peak_heap")


def load(path):
    try:
        return check_schema.load("bench", path)
    except check_schema.SchemaError as err:
        print(f"bench_compare: {err}", file=sys.stderr)
        sys.exit(USAGE)


def rel_delta(base, cur):
    if base == cur:
        return 0.0
    denom = max(abs(base), abs(cur), 1e-300)
    return abs(cur - base) / denom


def attribute_regression(case, kind, base_dir, cur_dir):
    """Run profile_diff over a regressed case's two profiles of `kind`
    ("cpu" or "heap") and return the report text, or None when either
    profile is absent.  A profile that exists but does not parse
    (empty, truncated, mistyped fields, mismatched kinds) downgrades
    to an 'attribution unavailable' message, never an exception."""
    name = f"{case}.{kind}.jsonl"
    base_path = os.path.join(base_dir, name)
    cur_path = os.path.join(cur_dir, name)
    if not (os.path.isfile(base_path) and os.path.isfile(cur_path)):
        return None
    try:
        base = profile_diff.load_profile(base_path)
        cur = profile_diff.load_profile(cur_path)
        rows = profile_diff.diff_profiles(base, cur)
    except check_schema.SchemaError as err:
        return "attribution unavailable for %s: %s" % (case, err)
    return profile_diff.format_report(rows, base_path, cur_path,
                                      base["kind"], base["unit"], top=10)


class Comparison:
    def __init__(self, opts):
        self.opts = opts
        self.regressions = []
        self.notes = []
        self.timing_regressed = []  # case names with tripped gates
        self.heap_regressed = []    # cases with tripped heap keys

    def regress_timing(self, case, msg):
        if case not in self.timing_regressed:
            self.timing_regressed.append(case)
        self.regress(msg)

    def regress_heap(self, case, msg):
        if case not in self.heap_regressed:
            self.heap_regressed.append(case)
        self.regress(msg)

    def regress(self, msg):
        self.regressions.append(msg)

    def note(self, msg):
        self.notes.append(msg)

    def compare_map(self, case, kind, base, cur, rtol):
        for key in sorted(base):
            if key not in cur:
                self.regress(f"{case}: {kind}[{key}] missing in current")
                continue
            d = rel_delta(base[key], cur[key])
            if d > rtol:
                self.regress(
                    f"{case}: {kind}[{key}] {base[key]!r} -> "
                    f"{cur[key]!r} (rel delta {d:.3g} > {rtol:g})")
        for key in sorted(set(cur) - set(base)):
            self.note(f"{case}: new {kind}[{key}] = {cur[key]!r}")

    def compare_timing_map(self, case, kind, base, cur):
        rtol = self.opts["timing_rtol"]
        floor = self.opts["timing_floor_ms"]
        for key in sorted(base):
            if key not in cur:
                self.regress(f"{case}: {kind}[{key}] missing in current")
                continue
            b, c = base[key], cur[key]
            if c > b * (1.0 + rtol) and c - b > floor:
                self.regress_timing(
                    case,
                    f"{case}: {kind}[{key}] slowed {b:.3f} -> {c:.3f} "
                    f"(+{100.0 * (c - b) / max(b, 1e-300):.0f}%)")

    def compare_resources(self, case, base, cur):
        rtol = self.opts["resource_rtol"]
        for key in sorted(base):
            if key not in cur:
                # Heap keys exist only where the heap profiler ran
                # (never in sanitizer builds); absence is never a
                # regression.
                self.note(f"{case}: resources[{key}] absent in current")
                continue
            b, c = base[key], cur[key]
            if c > b * (1.0 + rtol):
                msg = (
                    f"{case}: resources[{key}] grew {b:.0f} -> {c:.0f} "
                    f"(+{100.0 * (c - b) / max(b, 1e-300):.0f}% > "
                    f"{100.0 * rtol:.0f}%)")
                if key in HEAP_RESOURCE_KEYS:
                    self.regress_heap(case, msg)
                else:
                    self.regress(msg)
        for key in sorted(set(cur) - set(base)):
            self.note(f"{case}: new resources[{key}] = {cur[key]!r}")

    def compare_case(self, name, base, cur):
        if cur.get("failed"):
            self.regress(f"{name}: case failed in current run")
        self.compare_map(name, "values", base["values"], cur["values"],
                         self.opts["value_rtol"])
        self.compare_map(name, "metrics", base["metrics"],
                         cur["metrics"], self.opts["value_rtol"])
        if self.opts["check_resources"]:
            self.compare_resources(name, base.get("resources", {}),
                                   cur.get("resources", {}))
        if self.opts["check_timing"]:
            self.compare_timing_map(
                name, "timing_values", base["timing_values"],
                cur["timing_values"])
            self.compare_timing_map(
                name, "wall_ms",
                {"median": base["wall_ms"]["median"]},
                {"median": cur["wall_ms"]["median"]})


def parse_args(argv):
    opts = {
        "check_timing": False,
        "timing_rtol": 0.6,
        "timing_floor_ms": 50.0,
        "value_rtol": 0.0,
        "check_resources": False,
        "resource_rtol": 1.0,
        "profiles_base": "",
        "profiles_cur": "",
    }
    paths = []
    for arg in argv[1:]:
        if arg == "--check-timing":
            opts["check_timing"] = True
        elif arg == "--check-resources":
            opts["check_resources"] = True
        elif arg.startswith("--profiles-base="):
            opts["profiles_base"] = arg.split("=", 1)[1]
        elif arg.startswith("--profiles-cur="):
            opts["profiles_cur"] = arg.split("=", 1)[1]
        elif arg.startswith("--resource-rtol="):
            opts["resource_rtol"] = float(arg.split("=", 1)[1])
        elif arg.startswith("--timing-rtol="):
            opts["timing_rtol"] = float(arg.split("=", 1)[1])
        elif arg.startswith("--timing-floor-ms="):
            opts["timing_floor_ms"] = float(arg.split("=", 1)[1])
        elif arg.startswith("--value-rtol="):
            opts["value_rtol"] = float(arg.split("=", 1)[1])
        elif arg.startswith("-"):
            print(__doc__, file=sys.stderr)
            sys.exit(USAGE)
        else:
            paths.append(arg)
    if len(paths) != 2:
        print(__doc__, file=sys.stderr)
        sys.exit(USAGE)
    return opts, paths


def main(argv):
    opts, (base_path, cur_path) = parse_args(argv)
    base = load(base_path)
    cur = load(cur_path)

    cmp = Comparison(opts)
    if base.get("suite") != cur.get("suite"):
        cmp.note(f"suite changed: {base.get('suite')!r} -> "
                 f"{cur.get('suite')!r}")

    base_cases = {c["name"]: c for c in base["cases"]}
    cur_cases = {c["name"]: c for c in cur["cases"]}
    for name in sorted(base_cases):
        if name not in cur_cases:
            cmp.regress(f"{name}: case missing in current")
            continue
        cmp.compare_case(name, base_cases[name], cur_cases[name])
    for name in sorted(set(cur_cases) - set(base_cases)):
        cmp.note(f"{name}: new case")

    for msg in cmp.notes:
        print(f"note: {msg}")
    if cmp.regressions:
        for msg in cmp.regressions:
            print(f"REGRESSION: {msg}", file=sys.stderr)
        # Tripped timing gates name the stacks that got slower, and
        # tripped heap-resource gates the allocating stacks, when both
        # runs recorded the matching per-case profiles.
        base_dir, cur_dir = opts["profiles_base"], opts["profiles_cur"]
        attributable = (
            ((cmp.timing_regressed, "cpu", "MRQ_SAMPLE=1"),
             (cmp.heap_regressed, "heap", "MRQ_HEAPPROF=1"))
            if base_dir and cur_dir else ())
        for cases, what, knob in attributable:
            for case in cases:
                report = attribute_regression(case, what, base_dir,
                                              cur_dir)
                if report is None:
                    print(f"note: no {what} profiles for {case}; "
                          f"run with MRQ_RUN_DIR and {knob} for "
                          f"attribution", file=sys.stderr)
                else:
                    print(f"--- {what} attribution for {case} ---",
                          file=sys.stderr)
                    print(report, file=sys.stderr)
        print(f"bench_compare: {len(cmp.regressions)} regression(s) "
              f"between {base_path} and {cur_path}", file=sys.stderr)
        return FATAL
    print(f"bench_compare: OK ({len(base_cases)} baseline cases, "
          f"{len(cmp.notes)} note(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
