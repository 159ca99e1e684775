#!/usr/bin/env python3
"""Validate MRQ stack-profile JSONL files (MRQ_SAMPLE_OUT, MRQ_HEAPPROF_OUT).

Expected document (schema version 2, one JSON object per line; the
writer is obs::writeStackProfile in src/obs/stack_profile.cpp):

  {"type": "stack_profile", "version": 2, "kind": K, "unit": U,
   "isa": "...", "git": "...", <totals of kind K>}
  {"type": "thread", "thread": "...", <fields of kind K>}  (0 or more)
  {"type": "stack", "thread": "...", "span": "...", "kernel": "...",
   "count": C, "weight": W,
   "frames": ["inner", ..., "outer"]}                     (0 or more)
  {"type": "stack_profile_end", "stacks": N, "count": sum(C),
   "weight": sum(W)}

  kind "cpu"  (unit "ns"):    totals hz, period_ns, samples, dropped;
                              thread fields busy_ns, queue_wait_ns,
                              idle_ns; weight = count * period_ns.
  kind "heap" (unit "bytes"): totals interval_bytes, samples,
                              sampled_bytes, current_bytes, peak_bytes,
                              alloc_count, alloc_bytes, free_count,
                              free_bytes, guard_violations; thread
                              fields alloc_bytes, alloc_count.

Cross-checks: the header comes first and the end line last, with
nothing after it; the end line's stack count, count sum and weight sum
match the stack rows.  cpu: every weight equals count * period_ns and
the header's samples equals the count sum.  heap: the weight sum never
exceeds the header's sampled_bytes (stacks are copied before the
counters are read, so a live profile's counters may run ahead) and
peak_bytes >= current_bytes.

Usage:
    check_profile_schema.py [--require-stacks] [--require-kernel]
                            [--require-span] FILE...

--require-stacks fails an otherwise valid profile holding zero
stacks; --require-kernel demands a stack tagged with a kernel family
or with a frame naming a kernel symbol (the gate that CPU sampling
attributes to kernels); --require-span demands a stack tagged with a
span path or kernel family (the gate that sampled allocations carry
attribution).  Exit codes: 0 valid, 1 invalid, 2 usage error.

load() is the one parser of the format: tools/profile_diff.py and
tools/bench_compare.py read profiles through it.
"""

import collections
import json
import sys

SCHEMA_VERSION = 2

FAIL = 1
USAGE = 2

KINDS = {
    "cpu": {
        "unit": "ns",
        "totals": ("hz", "period_ns", "samples", "dropped"),
        "thread": ("busy_ns", "queue_wait_ns", "idle_ns"),
    },
    "heap": {
        "unit": "bytes",
        "totals": ("interval_bytes", "samples", "sampled_bytes",
                   "current_bytes", "peak_bytes", "alloc_count",
                   "alloc_bytes", "free_count", "free_bytes",
                   "guard_violations"),
        "thread": ("alloc_bytes", "alloc_count"),
    },
}


class ProfileError(Exception):
    """A profile file is missing, truncated, or malformed."""


#: A validated profile: its header, thread rows and stack rows.
Profile = collections.namedtuple("Profile", "header threads stacks")


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _require_ints(obj, keys, what, where):
    for key in keys:
        if not _is_int(obj.get(key)) or obj[key] < 0:
            raise ProfileError("%s: %s field %r missing, not an integer, "
                               "or negative" % (where, what, key))


def _check_header(obj, where):
    if obj.get("type") != "stack_profile":
        raise ProfileError("%s: first line must be the stack_profile "
                           "header, got type=%r" % (where, obj.get("type")))
    if obj.get("version") != SCHEMA_VERSION:
        raise ProfileError("%s: schema version %r, expected %d" %
                           (where, obj.get("version"), SCHEMA_VERSION))
    kind = obj.get("kind")
    if kind not in KINDS:
        raise ProfileError("%s: unknown profile kind %r" % (where, kind))
    spec = KINDS[kind]
    if obj.get("unit") != spec["unit"]:
        raise ProfileError("%s: %s profile with unit %r, expected %r" %
                           (where, kind, obj.get("unit"), spec["unit"]))
    for key in ("isa", "git"):
        if not isinstance(obj.get(key), str):
            raise ProfileError("%s: header field %r missing or not a "
                               "string" % (where, key))
    _require_ints(obj, spec["totals"], "header", where)
    if kind == "cpu" and (obj["hz"] < 1 or obj["period_ns"] < 1):
        raise ProfileError("%s: hz/period_ns must be positive" % where)
    if kind == "heap":
        if obj["interval_bytes"] < 1:
            raise ProfileError("%s: interval_bytes must be positive" %
                               where)
        if obj["peak_bytes"] < obj["current_bytes"]:
            raise ProfileError("%s: peak_bytes %d < current_bytes %d" %
                               (where, obj["peak_bytes"],
                                obj["current_bytes"]))


def _check_stack(obj, header, where):
    for key in ("thread", "span", "kernel"):
        if not isinstance(obj.get(key), str):
            raise ProfileError("%s: stack field %r missing or not a "
                               "string" % (where, key))
    _require_ints(obj, ("count", "weight"), "stack", where)
    if obj["count"] < 1:
        raise ProfileError("%s: stack with count 0" % where)
    frames = obj.get("frames")
    if not isinstance(frames, list) or any(
            not isinstance(f, str) for f in frames):
        raise ProfileError("%s: stack frames missing or not a list of "
                           "strings" % where)
    if (header["kind"] == "cpu" and
            obj["weight"] != obj["count"] * header["period_ns"]):
        raise ProfileError("%s: weight %d != count %d * period_ns %d" %
                           (where, obj["weight"], obj["count"],
                            header["period_ns"]))


def load(path):
    """Parse and validate one profile; raise ProfileError with a
    one-line diagnostic on any missing, truncated or malformed input."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as err:
        raise ProfileError("%s: cannot read: %s" % (path, err))
    header = None
    end = None
    threads = []
    stacks = []
    for lineno, raw in enumerate(lines, 1):
        raw = raw.strip()
        if not raw:
            continue
        where = "%s:%d" % (path, lineno)
        try:
            obj = json.loads(raw)
        except ValueError as err:
            raise ProfileError("%s: bad JSON: %s" % (where, err))
        if not isinstance(obj, dict):
            raise ProfileError("%s: line is not a JSON object" % where)
        kind = obj.get("type")
        if header is None:
            _check_header(obj, where)
            header = obj
        elif end is not None:
            raise ProfileError("%s: line after stack_profile_end" % where)
        elif kind == "thread":
            if not isinstance(obj.get("thread"), str):
                raise ProfileError("%s: thread row without a thread "
                                   "name" % where)
            _require_ints(obj, KINDS[header["kind"]]["thread"], "thread",
                          where)
            threads.append(obj)
        elif kind == "stack":
            _check_stack(obj, header, where)
            stacks.append(obj)
        elif kind == "stack_profile_end":
            _require_ints(obj, ("stacks", "count", "weight"), "end",
                          where)
            end = obj
        else:
            raise ProfileError("%s: unknown line type %r" % (where, kind))

    if header is None:
        raise ProfileError("%s: empty profile (no header)" % path)
    if end is None:
        raise ProfileError("%s: missing stack_profile_end line "
                           "(truncated?)" % path)
    count = sum(s["count"] for s in stacks)
    weight = sum(s["weight"] for s in stacks)
    for key, have in (("stacks", len(stacks)), ("count", count),
                      ("weight", weight)):
        if end[key] != have:
            raise ProfileError("%s: end line claims %s %d, the stack "
                               "rows hold %d" % (path, key, end[key],
                                                 have))
    if header["kind"] == "cpu" and header["samples"] != count:
        raise ProfileError("%s: header claims %d samples, stacks sum to "
                           "%d" % (path, header["samples"], count))
    if header["kind"] == "heap" and weight > header["sampled_bytes"]:
        raise ProfileError("%s: stacks sum to %d sampled bytes, more "
                           "than the header total %d" %
                           (path, weight, header["sampled_bytes"]))
    return Profile(header, threads, stacks)


def check_file(path, require_stacks=False, require_kernel=False,
               require_span=False):
    try:
        prof = load(path)
    except ProfileError as err:
        print("check_profile_schema: %s" % err, file=sys.stderr)
        return FAIL
    stacks = prof.stacks
    problem = None
    if require_stacks and not stacks:
        problem = "--require-stacks: profile has no stacks"
    elif require_kernel and not any(
            s["kernel"] or any("kernel" in f or "mrq" in f
                               for f in s["frames"]) for s in stacks):
        problem = ("--require-kernel: no stack is tagged with a kernel "
                   "family or names a kernel frame")
    elif require_span and not any(s["span"] or s["kernel"]
                                  for s in stacks):
        problem = ("--require-span: no stack is tagged with a span path "
                   "or kernel family")
    if problem is not None:
        print("check_profile_schema: %s: %s" % (path, problem),
              file=sys.stderr)
        return FAIL
    print("check_profile_schema: %s: ok (%s, %d stacks, %d captures, "
          "weight %d %s, %d threads)" %
          (path, prof.header["kind"], len(stacks),
           sum(s["count"] for s in stacks),
           sum(s["weight"] for s in stacks), prof.header["unit"],
           len(prof.threads)))
    return 0


def main(argv):
    flags = {"--require-stacks": False, "--require-kernel": False,
             "--require-span": False}
    paths = []
    for arg in argv[1:]:
        if arg in flags:
            flags[arg] = True
        elif arg.startswith("--"):
            print("check_profile_schema: unknown option %s" % arg,
                  file=sys.stderr)
            return USAGE
        else:
            paths.append(arg)
    if not paths:
        print("usage: check_profile_schema.py [--require-stacks] "
              "[--require-kernel] [--require-span] FILE...",
              file=sys.stderr)
        return USAGE
    worst = 0
    for path in paths:
        worst = max(worst, check_file(
            path, require_stacks=flags["--require-stacks"],
            require_kernel=flags["--require-kernel"],
            require_span=flags["--require-span"]))
    return worst


if __name__ == "__main__":
    sys.exit(main(sys.argv))
