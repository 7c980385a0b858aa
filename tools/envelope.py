"""Envelope scan: verify every working point of a fixed grid and record it.

The base grid is half-integer lambda in [0.5, 39.5] x s = 10^(i/12 - 1),
i = 0..24, at alpha = 1 (1975 points), each built as
PotentialParams.from_lambda(s^2, lambda, 1) with every set lambda admits.
Per point it records:

- the outcome: "pass", "gate miss", or the error type and the first 60
  characters of its message;
- max_gap and max_self_gap from verify_qes;
- psi_gap: the largest, over the levels, of the max-normalised gap between
  the closed form and the oracle's eigenvector j on its set's fine grid,
  from verify_qes's report, scaled to the closed form at the vector's peak;
- N, the oracle's finest grid, and the wall time of the point.

    python tools/envelope.py --output ENVELOPE_32.json
    python tools/envelope.py --output new.json --compare ENVELOPE_32.json

--compare lists every verdict that flips and every gap that grows more than
10x to above GAP_FLOOR, and then exits 1.  BLAS runs on one thread.
"""

from __future__ import annotations

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from qhj_spectra import (  # noqa: E402
    PotentialParams,
    enumerate_qes_sets,
    evaluate_wavefunction,
    solve_classification,
    verify_qes,
    wavefunction,
)

BASE_LAMBDAS = tuple(0.5 * k for k in range(1, 80))
BASE_S = tuple(10.0 ** (i / 12.0 - 1.0) for i in range(25))
# Gaps below this are round-off, whatever their ratio.
GAP_FLOOR = 1e-10
GAPS = ("max_gap", "max_self_gap", "psi_gap")


def psi_gap(params, classification, levels, report) -> float:
    """The worst level's max |psi - v| over its set's fine grid, psi
    max-normalised and v the oracle's eigenvector j scaled to psi at v's peak."""
    worst = 0.0
    for qes_set, spectrum in zip(classification.sets, report.spectra):
        members = sorted((lvl for lvl in levels if lvl.qes_set == qes_set),
                         key=lambda lvl: lvl.energy)
        x = spectrum.grid.points() / params.alpha  # the grid is one of alpha x
        for j, level in enumerate(members):
            psi = evaluate_wavefunction(wavefunction(level, params), x)
            psi = psi / np.max(np.abs(psi))
            v = spectrum.eigenvectors[:, j]
            peak = int(np.argmax(np.abs(v)))
            worst = max(worst, float(np.max(np.abs(psi - v * (psi[peak] / v[peak])))))
    return worst


def scan_point(lam: float, s: float) -> dict:
    record = {"lambda": lam, "s": s}
    params = PotentialParams.from_lambda(s * s, lam, 1.0)
    classification = enumerate_qes_sets(lam)
    start = time.perf_counter()
    try:
        levels = solve_classification(params, classification)
        report = verify_qes(params, classification, analytic_levels=levels)
        record.update(
            outcome="pass" if report.overall_pass else "gate miss",
            max_gap=max(row.abs_gap for row in report.rows),
            max_self_gap=report.max_self_gap,
            N=report.grid.point_count_N,
        )
        record["psi_gap"] = psi_gap(params, classification, levels, report)
    except Exception as exc:  # every failure is recorded, typed
        record["outcome"] = f"{type(exc).__name__}: {str(exc)[:60]}"
    record["seconds"] = time.perf_counter() - start
    return record


def summary(points: list[dict]) -> dict:
    outcomes: dict[str, int] = {}
    for point in points:
        key = point["outcome"]
        outcomes[key] = outcomes.get(key, 0) + 1
    first_failing = {}
    for point in points:
        if point["outcome"] != "pass":
            first_failing.setdefault(repr(point["s"]), point["lambda"])
    gaps = {name: max((p[name] for p in points if name in p), default=None) for name in GAPS}
    return {"outcomes": dict(sorted(outcomes.items())),
            "first_failing_lambda_by_s": first_failing, **gaps}


def compare(old: dict, new: dict) -> list[str]:
    """Every verdict that flips, and every gap that grows more than 10x to
    above GAP_FLOOR, between two scans' common points."""
    before = {(p["lambda"], p["s"]): p for p in old["points"]}
    lines = []
    for point in new["points"]:
        key = (point["lambda"], point["s"])
        if key not in before:
            continue
        was = before[key]
        if was["outcome"] != point["outcome"]:
            lines.append(f"{key}: {was['outcome']!r} -> {point['outcome']!r}")
        for name in GAPS:
            a, b = was.get(name), point.get(name)
            if a is not None and b is not None and b > GAP_FLOOR and b > 10.0 * a:
                lines.append(f"{key}: {name} {a:.3g} -> {b:.3g}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--output", required=True, help="the scan's JSON file")
    parser.add_argument("--compare", help="an earlier scan to compare against")
    args = parser.parse_args(argv)
    points = [scan_point(lam, s) for lam in BASE_LAMBDAS for s in BASE_S]
    document = {
        "grid": "half-integer lambda in [0.5, 39.5] x s = 10^(i/12 - 1), i = 0..24, alpha = 1",
        "summary": summary(points),
        "points": points,
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        # One point per line, so that two scans diff point by point.
        handle.write('{"grid": %s,\n"summary": %s,\n"points": [\n%s\n]}\n' % (
            json.dumps(document["grid"]), json.dumps(document["summary"], sort_keys=True),
            ",\n".join(json.dumps(point, sort_keys=True) for point in points)))
    print(json.dumps(document["summary"], indent=2, sort_keys=True))
    if not args.compare:
        return 0
    with open(args.compare, encoding="utf-8") as handle:
        changes = compare(json.load(handle), document)
    for line in changes:
        print(line)
    print(f"{len(changes)} change(s) against {args.compare}")
    return 1 if changes else 0


if __name__ == "__main__":
    sys.exit(main())
