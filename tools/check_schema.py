#!/usr/bin/env python3
"""Validate mrq telemetry artifacts against their schemas (stdlib only).

Usage: check_schema.py KIND [FLAG...] FILE...

  KIND        artifact                                  flags
  bench       BENCH_<suite>.json trajectory (v1-v3)
  metrics     metrics.jsonl
  inspect     inspect.jsonl
  postmortem  postmortem.<pid>[.usr1].jsonl dump        --reason R
                                                        --require-flight
                                                        --require-symbol
  profile     <run>.cpu.jsonl / <run>.heap.jsonl        --require-stacks
                                                        --require-kernel
                                                        --require-span
  trace       <run>.trace.json Chrome trace JSON        --require-counter

Every artifact but the bench trajectory is a file in $MRQ_RUN_DIR.

Each record type's fields are declared once, in the tables below, as
a map from field to a type-and-range check.  The framing rules are
written once: a manifest comes first in metrics and inspect files
(each later manifest starts a new run block); a post-mortem or
profile header comes first and its end line last, with nothing after
it.  Only sums, counts and cross-line totals are code beside their
table.

Flags: --reason R requires header reason R (signal, terminate, hang,
usr1); --require-flight a flight event; --require-symbol a frame
whose symbol is not "?"; --require-stacks a stack row;
--require-kernel a stack tagged with a kernel family or with a frame
naming a kernel symbol; --require-span a stack tagged with a span
path or kernel family; --require-counter a counter (ph=C) track.
A flag the KIND does not define is a usage error.

load(kind, path) is the one parser of these formats: bench_compare.py,
profile_diff.py, trace_report.py and inspect_report.py read through
it.  Exit codes: 0 valid, 1 invalid, 2 usage error.
"""

import collections
import json
import re
import sys

FAIL = 1
USAGE = 2


class SchemaError(Exception):
    """An artifact is missing, truncated or malformed."""


class _Missing:
    def __repr__(self):
        return "<missing>"


MISSING = _Missing()

#: A header-framed JSONL file: its header, the lines between, its end.
Framed = collections.namedtuple("Framed", "header body end")


# ------------------------------------------------------------------
# Checks.  Each is a function (value, where) that raises SchemaError;
# "where" is a JSONPath-like location such as "f.jsonl:3:$.total".
# ------------------------------------------------------------------

def _fail(where, message):
    raise SchemaError("%s: %s" % (where, message))


def leaf(what, test):
    """A value for which test(value) holds, described as @what."""
    def check(v, where):
        if not test(v):
            _fail(where, "expected %s, got %r" % (what, v))
    return check


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _is_num(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_hex(v):
    return isinstance(v, str) and re.fullmatch(r"0x[0-9a-fA-F]+", v)


INT = leaf("an int", _is_int)
NUM = leaf("a number", _is_num)
STR = leaf("a string", lambda v: isinstance(v, str))
NAME = leaf("a non-empty string", lambda v: isinstance(v, str) and v != "")
BOOL = leaf("a bool", lambda v: isinstance(v, bool))
HEX = leaf("a 0x-prefixed hex string", _is_hex)
ABSENT = leaf("no such field", lambda v: v is MISSING)


def at_least(lo, test=_is_int):
    return leaf("%s >= %s" % ("an int" if test is _is_int else "a number",
                              lo), lambda v: test(v) and v >= lo)


def one_of(*choices):
    return leaf("one of %r" % (choices,),
                lambda v: not isinstance(v, bool) and v in choices)


def int_text(lo):
    """A decimal integer >= lo carried as a string."""
    return leaf("an integer string >= %d" % lo,
                lambda v: isinstance(v, str) and
                re.fullmatch(r"-?[0-9]+", v) is not None and int(v) >= lo)


def refuse(why):
    """A record type that must never appear."""
    def check(_v, where):
        _fail(where, why)
    return check


def fields(table, exact=False):
    """An object whose listed fields pass their checks; other fields
    are free unless @exact."""
    def check(v, where):
        if not isinstance(v, dict):
            _fail(where, "expected an object, got %r" % (v,))
        if exact and set(v) != set(table):
            _fail(where, "keys must be exactly %s" % sorted(table))
        for key, sub in table.items():
            sub(v.get(key, MISSING), "%s.%s" % (where, key))
    return check


def each(sub, nonempty=False):
    """A list whose items pass @sub."""
    def check(v, where):
        if not isinstance(v, list) or (nonempty and not v):
            _fail(where, "expected a %slist, got %r" %
                  ("non-empty " if nonempty else "", v))
        for i, item in enumerate(v):
            sub(item, "%s[%d]" % (where, i))
    return check


def values_of(sub):
    """An object with non-empty keys whose values pass @sub."""
    def check(v, where):
        if not isinstance(v, dict):
            _fail(where, "expected an object, got %r" % (v,))
        for key, item in v.items():
            if not key:
                _fail(where, "empty key")
            sub(item, "%s[%r]" % (where, key))
    return check


def tagged(key, variants):
    """An object checked by the variant its @key field names."""
    def check(v, where):
        tag = v.get(key, MISSING) if isinstance(v, dict) else MISSING
        try:
            variant = variants[tag]
        except (KeyError, TypeError):
            _fail("%s.%s" % (where, key), "unknown %s %r" % (key, tag))
        variant(v, where)
    return check


def all_of(*checks):
    def check(v, where):
        for sub in checks:
            sub(v, where)
    return check


# ------------------------------------------------------------------
# Tables.
# ------------------------------------------------------------------

NUM_MAP = values_of(NUM)
NOTHING = fields({})
COUNT = at_least(0)
POSITIVE = at_least(1)

MANIFEST = fields({"run": NAME, "seed": COUNT, "git": STR})

HEAP_COUNTERS = ("current_bytes", "peak_bytes", "alloc_count",
                 "alloc_bytes", "free_count", "free_bytes", "samples",
                 "guard_violations")

_CASE = {
    "name": NAME, "reps": POSITIVE, "warmup": COUNT,
    "failed": BOOL,
    "wall_ms": fields({k: NUM for k in ("count", "median", "mad", "min",
                                        "max", "mean", "outliers")},
                      exact=True),
    "values": NUM_MAP, "timing_values": NUM_MAP, "metrics": NUM_MAP,
}
_BENCH = {"type": one_of("bench"), "suite": NAME,
          "manifest": all_of(MANIFEST, fields({"type": one_of("manifest")}))}
# v2 added the per-case "resources" map; v3 only added heap keys to it.
BENCH = tagged("version", {
    v: fields(dict(_BENCH, cases=each(
        fields(dict(_CASE, resources=ABSENT if v == 1 else NUM_MAP)),
        nonempty=True)))
    for v in (1, 2, 3)})

METRICS = {
    "manifest": MANIFEST,
    "counter": fields({"name": NAME, "value": INT}),
    "gauge": fields({"name": NAME, "value": NUM}),
    "hist": fields({"name": NAME, "counts": each(COUNT),
                    "total": INT, "sum": INT}),
    "series": fields({"name": NAME, "step": INT, "value": NUM}),
    "alert": fields({"severity": one_of("warn", "fatal"), "rule": NAME,
                     "context": NAME, "detail": NAME, "batch": INT}),
    "timing": refuse("timing lines are wall-clock and never belong in "
                     "the deterministic JSONL sink"),
}

INSPECT = {
    "manifest": MANIFEST,
    "inspect": all_of(
        fields({"layer": NAME, "rung": NAME}),
        tagged("phase", {"train": fields({"step": COUNT}),
                         "eval": fields({"step": one_of(-1)})}),
        tagged("kind", {
            "weight_sqnr": fields({"sqnr_db": NUM, "n": POSITIVE}),
            "act_sqnr": fields({"sqnr_db": NUM, "n": POSITIVE}),
            "clip_sat": fields({"clip": leaf("a number > 0", lambda v:
                                             _is_num(v) and v > 0),
                                "saturated": COUNT, "n": POSITIVE,
                                "rate": NUM}),
            "term_energy": fields(dict(
                {k: COUNT for k in ("kept_mass", "dropped_mass",
                                    "kept_terms", "dropped_terms")},
                n=POSITIVE)),
            "grad_norm": fields({"l2": at_least(0, _is_num), "n": POSITIVE}),
            "rung_agree": fields({"ref": NAME,
                                  "kl": at_least(-1e-12, _is_num),
                                  "top1": leaf("a number in [0, 1]",
                                               lambda v: _is_num(v) and
                                               0 <= v <= 1),
                                  "n": POSITIVE}),
        })),
}

POSTMORTEM_REASONS = ("signal", "terminate", "hang", "usr1")
POSTMORTEM_HEADER = all_of(
    fields({"version": one_of(1), "pid": INT, "unix_time": INT,
            "thread": STR, "git": STR, "isa": STR, "peak_rss_kb": INT}),
    tagged("reason", dict(
        {r: NOTHING for r in POSTMORTEM_REASONS},
        signal=fields({"signal": STR, "signo": INT, "fault_addr": HEX}))))
POSTMORTEM = {
    "manifest": fields({"run": STR}),
    "heap": fields({k: INT for k in HEAP_COUNTERS}),
    "frame": fields({"index": INT, "pc": HEX, "symbol": STR,
                     "object": STR}),
    "flight": fields({"slot": INT, "thread": STR, "ns": INT,
                      "kind": one_of("mark", "span", "metric", "alert"),
                      "name": STR, "a": INT, "b": INT,
                      "v": leaf("a number or null", lambda v:
                                v in (None, MISSING) or _is_num(v))}),
    "postmortem_end": fields({"frames": INT, "flight_events": INT}),
}

PROFILE_KINDS = {
    "cpu": {
        "header": {"unit": one_of("ns"), "hz": POSITIVE, "period_ns": POSITIVE,
                   "samples": COUNT, "dropped": COUNT},
        "thread": ("busy_ns", "queue_wait_ns", "idle_ns"),
    },
    "heap": {
        "header": dict({k: COUNT for k in HEAP_COUNTERS},
                       unit=one_of("bytes"), interval_bytes=POSITIVE,
                       sampled_bytes=COUNT),
        "thread": ("alloc_bytes", "alloc_count"),
    },
}
PROFILE_HEADER = all_of(
    fields({"version": one_of(2), "isa": STR, "git": STR}),
    tagged("kind", {k: fields(spec["header"])
                    for k, spec in PROFILE_KINDS.items()}))


def _profile_records(header):
    thread_fields = PROFILE_KINDS[header["kind"]]["thread"]
    return {
        "thread": fields(dict({k: COUNT for k in thread_fields},
                              thread=STR)),
        "stack": fields({"thread": STR, "span": STR, "kernel": STR,
                         "count": POSITIVE, "weight": COUNT,
                         "frames": each(STR)}),
        "stack_profile_end": fields({"stacks": COUNT, "count": COUNT,
                                     "weight": COUNT}),
    }


_EVENT = {"pid": one_of(1), "name": NAME}
_TIMED = dict(_EVENT, tid=INT, ts=at_least(0, _is_num))
TRACE = fields({
    "otherData": fields({"droppedEvents": int_text(0),
                         "threads": int_text(1)}),
    "traceEvents": each(tagged("ph", {
        "M": fields(dict(_EVENT,
                         name=one_of("process_name", "thread_name"),
                         args=fields({"name": NAME}))),
        "X": fields(dict(_TIMED, dur=at_least(0, _is_num),
                         args=fields({"path": NAME}))),
        "C": fields(dict(_TIMED, args=fields({"value": NUM}))),
        "i": fields(dict(_TIMED, s=one_of("p"),
                         args=fields({"detail": STR}))),
    }), nonempty=True),
})

# ------------------------------------------------------------------
# Framing, and the checks a table cannot express.
# ------------------------------------------------------------------

def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as err:
        raise SchemaError("%s: cannot read: %s" % (path, err))


def _json_lines(path):
    """(where, object) for every line; blank or non-object lines and
    an empty file are errors."""
    out = []
    text = _read(path)
    lines = text[:-1] if text.endswith("\n") else text
    for lineno, line in enumerate(lines.split("\n") if lines else (), 1):
        where = "%s:%d" % (path, lineno)
        if not line.strip():
            _fail(where, "blank line")
        try:
            obj = json.loads(line)
        except ValueError as err:
            _fail(where, "invalid JSON: %s" % err)
        if not isinstance(obj, dict):
            _fail(where, "line is not a JSON object")
        out.append((where, obj))
    if not out:
        _fail(path, "empty file")
    return out


def _blocks(path, records):
    """Manifest-block JSONL: a manifest first, then typed records."""
    lines = _json_lines(path)
    if lines[0][1].get("type") != "manifest":
        _fail(lines[0][0], "the manifest must be the first line")
    check = tagged("type", records)
    for where, obj in lines:
        check(obj, where + ":$")
    return [obj for _, obj in lines]


def _framed(path, head, header_check, records):
    """Header-framed JSONL: the @head header first and once, its
    "<head>_end" line last with nothing after it."""
    lines = _json_lines(path)
    where, header = lines[0]
    if header.get("type") != head:
        _fail(where, "first line must be the %s header, got type=%r" %
              (head, header.get("type")))
    header_check(header, where + ":$")
    check = tagged("type", records(header))
    body, end = [], None
    for where, obj in lines[1:]:
        if end is not None:
            _fail(where, "line after %s_end" % head)
        if obj.get("type") == head:
            _fail(where, "duplicate %s header" % head)
        check(obj, where + ":$")
        if obj["type"] == head + "_end":
            end = obj
        else:
            body.append(obj)
    if end is None:
        _fail(path, "missing %s_end line (truncated?)" % head)
    return Framed(header, body, end)


def _json(path, check):
    try:
        doc = json.loads(_read(path))
    except ValueError as err:
        raise SchemaError("%s: invalid JSON: %s" % (path, err))
    check(doc, path + ":$")
    return doc


def _of(records, kind):
    return [r for r in records if r["type"] == kind]


def _load_bench(path):
    doc = _json(path, BENCH)
    names = []
    for i, case in enumerate(doc["cases"]):
        where = "%s:$.cases[%d].wall_ms" % (path, i)
        wall = case["wall_ms"]
        if wall["count"] != case["reps"]:
            _fail(where, "count %r != reps %r" % (wall["count"],
                                                  case["reps"]))
        if not wall["min"] <= wall["median"] <= wall["max"]:
            _fail(where, "median outside [min, max]")
        if not 0 <= wall["outliers"] <= wall["count"]:
            _fail(where, "outliers outside [0, count]")
        names.append(case["name"])
    if names != sorted(set(names)):
        _fail(path, "case names are not sorted and unique")
    return doc


def _load_metrics(path):
    records = _blocks(path, METRICS)
    for hist in _of(records, "hist"):
        if hist["total"] != sum(hist["counts"]):
            _fail(path, "hist %s: total %d != sum(counts) %d" %
                  (hist["name"], hist["total"], sum(hist["counts"])))
    return records


def _load_inspect(path):
    records = _blocks(path, INSPECT)
    for r in records:
        if r["type"] == "inspect" and r["kind"] == "clip_sat":
            if r["saturated"] > r["n"]:
                _fail(path, "clip_sat %s: saturated > n" % r["layer"])
            if abs(r["rate"] - r["saturated"] / r["n"]) > 1e-12:
                _fail(path, "clip_sat %s: rate != saturated/n" %
                      r["layer"])
    return records


def _load_postmortem(path):
    doc = _framed(path, "postmortem", POSTMORTEM_HEADER,
                  lambda _header: POSTMORTEM)
    for key, kind in (("frames", "frame"), ("flight_events", "flight")):
        have = len(_of(doc.body, kind))
        if doc.end[key] != have:
            _fail(path, "end line claims %s %d, the file holds %d" %
                  (key, doc.end[key], have))
    return doc


def _load_profile(path):
    doc = _framed(path, "stack_profile", PROFILE_HEADER, _profile_records)
    header, stacks = doc.header, _of(doc.body, "stack")
    for s in stacks if header["kind"] == "cpu" else ():
        if s["weight"] != s["count"] * header["period_ns"]:
            _fail(path, "stack weight %d != count %d * period_ns %d" %
                  (s["weight"], s["count"], header["period_ns"]))
    count = sum(s["count"] for s in stacks)
    weight = sum(s["weight"] for s in stacks)
    for key, have in (("stacks", len(stacks)), ("count", count),
                      ("weight", weight)):
        if doc.end[key] != have:
            _fail(path, "end line claims %s %d, the stack rows hold %d" %
                  (key, doc.end[key], have))
    if header["kind"] == "cpu":
        if header["samples"] != count:
            _fail(path, "header claims %d samples, stacks sum to %d" %
                  (header["samples"], count))
    else:
        if header["peak_bytes"] < header["current_bytes"]:
            _fail(path, "peak_bytes %d < current_bytes %d" %
                  (header["peak_bytes"], header["current_bytes"]))
        # Stacks are copied before the counters are read, so a live
        # profile's counters may run ahead of its stacks, never behind.
        if weight > header["sampled_bytes"]:
            _fail(path, "stacks sum to %d sampled bytes, more than the "
                  "header total %d" % (weight, header["sampled_bytes"]))
    return doc


def _load_trace(path):
    doc = _json(path, TRACE)
    events = doc["traceEvents"]
    meta = [e for e in events if e["ph"] == "M"]
    timed = [e for e in events if e["ph"] != "M"]
    if not any(e["name"] == "process_name" for e in meta):
        _fail(path, "no process_name metadata")
    unnamed = ({e["tid"] for e in timed} -
               {e.get("tid") for e in meta if e["name"] == "thread_name"})
    if unnamed:
        _fail(path, "tids without thread_name metadata: %s" %
              sorted(unnamed))
    spans = [e for e in events if e["ph"] == "X"]
    if not spans:
        _fail(path, "no span (ph=X) events")
    for e in spans:
        if e["args"]["path"].rsplit("/", 1)[-1] != e["name"]:
            _fail(path, "span name %r is not the leaf of path %r" %
                  (e["name"], e["args"]["path"]))
    # Rebased to the earliest event; drop-oldest may have evicted the
    # very first spans, hence the slack.
    if timed and min(e["ts"] for e in timed) > 1e9:
        _fail(path, "ts values look absolute, not rebased")
    return doc


# ------------------------------------------------------------------
# Kinds: the loader and the flags of each.
# ------------------------------------------------------------------

#: flag -> (allowed values or None for a switch, problem, holds(doc, v))
Kind = collections.namedtuple("Kind", "load flags")
KINDS = {
    "bench": Kind(_load_bench, {}),
    "metrics": Kind(_load_metrics, {}),
    "inspect": Kind(_load_inspect, {}),
    "postmortem": Kind(_load_postmortem, {
        "--reason": (POSTMORTEM_REASONS, "header has another reason",
                     lambda d, r: d.header["reason"] == r),
        "--require-flight": (None, "no flight events",
                             lambda d, _: _of(d.body, "flight")),
        "--require-symbol": (None, "no symbolized frame",
                             lambda d, _: any(
                                 f["symbol"] != "?"
                                 for f in _of(d.body, "frame"))),
    }),
    "profile": Kind(_load_profile, {
        "--require-stacks": (None, "the profile has no stacks",
                             lambda d, _: _of(d.body, "stack")),
        "--require-kernel": (
            None, "no stack is tagged with a kernel family or names a "
            "kernel frame",
            lambda d, _: any(s["kernel"] or any(
                "kernel" in f or "mrq" in f for f in s["frames"])
                for s in _of(d.body, "stack"))),
        "--require-span": (None, "no stack is tagged with a span path "
                           "or kernel family",
                           lambda d, _: any(s["span"] or s["kernel"]
                                            for s in _of(d.body, "stack"))),
    }),
    "trace": Kind(_load_trace, {
        "--require-counter": (None, "no counter (ph=C) track",
                              lambda d, _: any(e["ph"] == "C" for e in
                                               d["traceEvents"])),
    }),
}


def load(kind, path):
    """Parse and validate one @kind artifact; raise SchemaError with a
    one-line diagnostic on missing, truncated or malformed input.
    Returns the JSON document (bench, trace), the record list
    (metrics, inspect) or a Framed (postmortem, profile)."""
    return KINDS[kind].load(path)


def _usage(message):
    print("check_schema: %s\nusage: check_schema.py KIND [FLAG...] "
          "FILE...  (KIND: %s)" % (message, ", ".join(KINDS)),
          file=sys.stderr)
    return USAGE


def main(argv):
    if len(argv) < 2 or argv[1] not in KINDS:
        return _usage("unknown or missing KIND")
    kind = KINDS[argv[1]]
    wanted = []
    paths = []
    args = iter(argv[2:])
    for arg in args:
        if arg in kind.flags:
            choices, problem, holds = kind.flags[arg]
            value = next(args, None) if choices else None
            if choices and value not in choices:
                return _usage("%s takes one of %s" %
                              (arg, ", ".join(choices)))
            wanted.append((arg, value, problem, holds))
        elif arg.startswith("-"):
            return _usage("%s does not define %s" % (argv[1], arg))
        else:
            paths.append(arg)
    if not paths:
        return _usage("no FILE given")
    worst = 0
    for path in paths:
        try:
            doc = kind.load(path)
            for arg, value, problem, holds in wanted:
                if not holds(doc, value):
                    _fail(path, "%s: %s" % (arg, problem))
        except SchemaError as err:
            print("check_schema: %s" % err, file=sys.stderr)
            worst = FAIL
            continue
        print("check_schema: %s: ok (%s)" % (path, argv[1]))
    return worst


if __name__ == "__main__":
    sys.exit(main(sys.argv))
