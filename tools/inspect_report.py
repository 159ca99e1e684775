#!/usr/bin/env python3
"""Render an mrq inspector JSONL file as per-layer/per-rung tables
(stdlib only).

Usage: inspect_report.py FILE

Sections:
  quantization health   one row per (layer, rung): mean weight/act
                        SQNR in dB, mean clip saturation rate, and
                        the kept fraction of term magnitude mass
  gradient norms        one row per (parameter, rung): mean L2 over
                        the sampled steps
  rung agreement        training draws (one row per student rung vs
                        the teacher) and the eval-time pairwise
                        matrix of logit KL / top-1 match

Reads the file produced by MRQ_INSPECT=on (inspect.jsonl in
MRQ_RUN_DIR) through check_schema.load("inspect", ...); an invalid
file exits 1 with that diagnostic.
"""

import sys
from collections import defaultdict

from check_schema import SchemaError, load


def mean(values):
    return sum(values) / len(values) if values else 0.0


def health_table(records):
    # (layer, rung) -> per-signal accumulators.
    cells = defaultdict(lambda: defaultdict(list))
    for r in records:
        key = (r["layer"], r["rung"])
        kind = r["kind"]
        if kind == "weight_sqnr":
            cells[key]["w_sqnr"].append(r["sqnr_db"])
        elif kind == "act_sqnr":
            cells[key]["a_sqnr"].append(r["sqnr_db"])
        elif kind == "clip_sat":
            cells[key]["sat"].append(r["rate"])
            cells[key]["clip"].append(r["clip"])
        elif kind == "term_energy":
            cells[key]["kept_mass"].append(r["kept_mass"])
            cells[key]["dropped_mass"].append(r["dropped_mass"])
    if not cells:
        return
    print("quantization health (means over sampled records)")
    print(f"  {'layer':<14} {'rung':<8} {'w_sqnr_db':>10} "
          f"{'a_sqnr_db':>10} {'sat_rate':>9} {'clip':>7} "
          f"{'kept_mass%':>10}")
    for (layer, rung), acc in sorted(cells.items()):
        kept = sum(acc["kept_mass"])
        dropped = sum(acc["dropped_mass"])
        total = kept + dropped

        def cell(name, fmt, values=None):
            vals = acc[name] if values is None else values
            return fmt.format(mean(vals)) if vals else "-"

        kept_pct = (f"{100.0 * kept / total:.2f}"
                    if total > 0 else "-")
        print(f"  {layer:<14} {rung:<8} "
              f"{cell('w_sqnr', '{:.2f}'):>10} "
              f"{cell('a_sqnr', '{:.2f}'):>10} "
              f"{cell('sat', '{:.4f}'):>9} "
              f"{cell('clip', '{:.3f}'):>7} "
              f"{kept_pct:>10}")
    print()


def grad_table(records):
    norms = defaultdict(list)
    for r in records:
        if r["kind"] == "grad_norm":
            norms[(r["layer"], r["rung"])].append(r["l2"])
    if not norms:
        return
    print("gradient norms (mean L2 over sampled steps)")
    print(f"  {'parameter':<22} {'rung':<8} {'mean_l2':>12} "
          f"{'samples':>8}")
    for (param, rung), values in sorted(norms.items()):
        print(f"  {param:<22} {rung:<8} {mean(values):>12.6g} "
              f"{len(values):>8}")
    print()


def agreement_tables(records):
    train = defaultdict(lambda: {"kl": [], "top1": []})
    eval_cells = {}
    rungs = []
    for r in records:
        if r["kind"] != "rung_agree":
            continue
        if r["phase"] == "train":
            acc = train[(r["rung"], r["ref"])]
            acc["kl"].append(r["kl"])
            acc["top1"].append(r["top1"])
        else:
            eval_cells[(r["rung"], r["ref"])] = (r["kl"], r["top1"])
            for name in (r["rung"], r["ref"]):
                if name not in rungs:
                    rungs.append(name)

    if train:
        print("training rung agreement (student vs teacher, "
              "means over sampled draws)")
        print(f"  {'student':<10} {'teacher':<10} {'kl':>10} "
              f"{'top1':>7} {'draws':>6}")
        for (rung, ref), acc in sorted(train.items()):
            print(f"  {rung:<10} {ref:<10} {mean(acc['kl']):>10.4f} "
                  f"{mean(acc['top1']):>7.3f} {len(acc['kl']):>6}")
        print()

    if eval_cells:
        print("eval rung-agreement matrix (KL / top-1 match)")
        width = max(len(name) for name in rungs) + 2
        header = " " * (width + 2)
        for name in rungs:
            header += f"{name:>{width + 12}}"
        print(header)
        for a in rungs:
            row = f"  {a:<{width}}"
            for b in rungs:
                cell = eval_cells.get((a, b)) or eval_cells.get((b, a))
                if a == b:
                    row += f"{'-':>{width + 12}}"
                elif cell is None:
                    row += f"{'?':>{width + 12}}"
                else:
                    kl, top1 = cell
                    row += f"{f'{kl:.4f}/{top1:.3f}':>{width + 12}}"
            print(row)
        print()


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        records = [r for r in load("inspect", argv[1])
                   if r["type"] == "inspect"]
    except SchemaError as err:
        print("inspect_report: %s" % err, file=sys.stderr)
        return 1
    if not records:
        print(f"{argv[1]}: no inspect records", file=sys.stderr)
        return 1
    steps = sorted({r["step"] for r in records if r["step"] >= 0})
    print(f"{argv[1]}: {len(records)} records, "
          f"{len(steps)} sampled training step(s)\n")
    health_table(records)
    grad_table(records)
    agreement_tables(records)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
