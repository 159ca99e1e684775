#!/usr/bin/env python3
"""Audit raw environment access in the C++ tree (stdlib only).

All MRQ_* knobs flow through the typed helpers in src/obs/env.hpp
(envTruthy / envSet / envValue / envLong) so that the README env-var
table and the runtime agree on parsing rules, and so a future
snapshot-at-startup change has exactly one call site to touch.  A raw
std::getenv anywhere else silently forks the parsing rules — this
audit makes that a CI failure instead of a review-time catch.

The same audit keeps the README's knob table honest: the set of
"MRQ_*" names the C++ code under src/ and bench/ reads must equal the
set named in README.md's "Environment variables" section.  A knob
that ships undocumented, or a deleted knob that lingers in the docs,
fails CI.

Usage: check_env_usage.py [ROOT]

Scans ROOT (default: the repository root containing this script) for
*.cpp/*.hpp/*.h/*.cc files under src/, bench/, and tests/ and fails
when any file other than src/obs/env.hpp mentions getenv or
secure_getenv, or when the knob sets disagree.  Exit codes: 0 clean,
1 violations found.
"""

import os
import re
import sys

ALLOWED = {os.path.join("src", "obs", "env.hpp")}
SCAN_DIRS = ("src", "bench", "tests")
KNOB_DIRS = ("src", "bench")
EXTENSIONS = (".cpp", ".hpp", ".h", ".cc")
PATTERN = re.compile(r"\b(?:secure_)?getenv\b")
KNOB_LITERAL = re.compile(r'"(MRQ_[A-Z0-9_]+)"')
README_KNOB = re.compile(r"MRQ_[A-Z0-9_]+")
README_SECTION = "### Environment variables"


def scan(root):
    violations = []
    files = 0
    for top in SCAN_DIRS:
        base = os.path.join(root, top)
        if not os.path.isdir(base):
            continue
        for dirpath, _dirnames, filenames in os.walk(base):
            for name in sorted(filenames):
                if not name.endswith(EXTENSIONS):
                    continue
                path = os.path.join(dirpath, name)
                rel = os.path.relpath(path, root)
                files += 1
                if rel in ALLOWED:
                    continue
                with open(path, "r", encoding="utf-8",
                          errors="replace") as handle:
                    for lineno, line in enumerate(handle, 1):
                        if PATTERN.search(line):
                            violations.append(
                                (rel, lineno, line.strip()))
    return files, violations


def code_knobs(root):
    """MRQ_* names appearing as string literals in src/ and bench/."""
    names = set()
    for top in KNOB_DIRS:
        for dirpath, _dirnames, filenames in os.walk(
                os.path.join(root, top)):
            for name in filenames:
                if name.endswith(EXTENSIONS):
                    with open(os.path.join(dirpath, name), "r",
                              encoding="utf-8",
                              errors="replace") as handle:
                        names.update(KNOB_LITERAL.findall(handle.read()))
    return names


def readme_knobs(root):
    """MRQ_* names in README.md's env-var section."""
    names = set()
    inside = False
    with open(os.path.join(root, "README.md"), "r",
              encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("#"):
                inside = line.strip() == README_SECTION
            elif inside:
                names.update(README_KNOB.findall(line))
    return names


def knob_mismatches(code, readme):
    """Human-readable disagreements between the two knob sets."""
    return (["%s is read by the code but not documented in README.md" %
             name for name in sorted(code - readme)] +
            ["%s is documented in README.md but read nowhere" % name
             for name in sorted(readme - code)])


def main(argv):
    if len(argv) > 2:
        print(__doc__, file=sys.stderr)
        return 2
    if len(argv) == 2:
        root = argv[1]
    else:
        root = os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))
    files, violations = scan(root)
    for rel, lineno, line in violations:
        print("check_env_usage: %s:%d: raw getenv outside "
              "src/obs/env.hpp: %s" % (rel, lineno, line),
              file=sys.stderr)
    if violations:
        print("check_env_usage: %d violation(s); route environment "
              "reads through obs/env.hpp" % len(violations),
              file=sys.stderr)
    code = code_knobs(root)
    mismatches = knob_mismatches(code, readme_knobs(root))
    for msg in mismatches:
        print("check_env_usage: %s" % msg, file=sys.stderr)
    if violations or mismatches:
        return 1
    print("check_env_usage: ok (%d files scanned, getenv confined to "
          "src/obs/env.hpp, %d MRQ_* knobs match README.md)" %
          (files, len(code)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
