"""Command-line front end: classify, solve, verify, sample, table.

Outputs are deterministic: JSON with sorted keys and all floating-point
numbers rendered as decimal strings with 12 significant digits; sample emits
RFC-4180 CSV.  Exit codes: 0 success/pass, 1 verification mismatch,
2 usage or parameter error (an --output that cannot be written included),
3 internal failure (a broken invariant, a degenerate oracle vector, or any
other exception, whose traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import cmath
import csv
import io
import json
import math
import os
import sys
import traceback
from dataclasses import asdict, replace
from fractions import Fraction

import numpy as np

from .errors import InvariantViolationError, QhjSpectraError
from .oracle import DEFAULT_TOLERANCE, verify_qes
from .potential import PotentialParams, Variant, classify_symmetry, evaluate_potential
from .qhj import QesClassification, QesSet, SET_RESIDUES, enumerate_qes_sets
from .solver import (
    MAX_BLOCK_N,
    PRINTED_ENERGIES,
    evaluate_wavefunction,
    reproduce_paper_tables,
    solve_classification,
    wavefunction,
)

CONFIG_ENV_VAR = "QHJ_SPECTRA_CONFIG"
# The most points sample writes: at lambda = 10, 100001 points are 35 MB of CSV.
MAX_SAMPLE_POINTS = 10**6
# sample rejects a window holding less than this of a level's own peak.
MIN_WINDOW_PEAK = 1e-6

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


class UsageError(QhjSpectraError):
    """Bad flags or parameters; maps to exit code 2."""


def _fmt(value: float) -> str:
    return "%.12g" % float(value)


def _jsonable(obj):
    """Recursively convert to JSON-serializable form with stable float strings."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        return _fmt(obj)
    if isinstance(obj, complex):
        return {"real": _fmt(obj.real), "imag": _fmt(obj.imag)}
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _emit(document, output_path: str | None) -> None:
    """Write a JSON document, or CSV text as is, to output_path or stdout."""
    if isinstance(document, str):
        text = document
    else:
        text = json.dumps(_jsonable(document), sort_keys=True, indent=2) + "\n"
    if output_path:
        try:
            with open(output_path, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write output file {output_path!r}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _load_config(args) -> dict:
    path = getattr(args, "config", None) or os.environ.get(CONFIG_ENV_VAR)
    if not path:
        return {}
    try:
        with open(path, encoding="utf-8") as handle:
            config = json.load(handle)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read config file {path!r}: {exc}") from exc
    if not isinstance(config, dict):
        raise UsageError(f"config file {path!r} must contain a JSON object")
    return config


def _settings(args) -> dict:
    """Config-file values overlaid by the flags that were given (flags win)."""
    flags = {name: value for name, value in vars(args).items() if value is not None}
    settings = {**_load_config(args), **flags}
    for name, kind, what in (("output", str, "a string"),
                             ("assert_paper_table_33", bool, "a JSON boolean")):
        if settings.get(name) is not None and not isinstance(settings[name], kind):
            raise UsageError(f"{name} must be {what}, got {settings[name]!r}")
    return settings


def _require_number(settings, name, default=None) -> float:
    flag = "--" + name.replace("_", "-")
    value = settings.get(name, default)
    if value is None:
        raise UsageError(f"{flag} is required")
    try:
        if isinstance(value, bool):  # a JSON boolean, which float() would take
            raise TypeError
        value = float(value)
    except (TypeError, ValueError):
        raise UsageError(f"{flag} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise UsageError(f"{flag} must be finite")
    return value


def _require_whole(settings, name, default=None) -> int:
    value = _require_number(settings, name, default)
    if not value.is_integer():
        raise UsageError(f"--{name} must be a whole number, got {value!r}")
    return int(value)


def _variant_from(settings) -> Variant:
    tag = settings.get("variant", "real")
    try:
        return Variant(tag)
    except ValueError:
        valid = ", ".join(v.value for v in Variant)
        raise UsageError(f"unknown variant {tag!r}; expected one of: {valid}")


def _require_finite(name: str, value):
    if not cmath.isfinite(value):
        raise UsageError(f"{name} = {value!r} overflows float64 at this working point")
    return value


def _v1_alpha(settings, default=None) -> tuple[float, float]:
    """Positive V1 and alpha."""
    v1 = _require_number(settings, "v1", default)
    alpha = _require_number(settings, "alpha", default)
    if v1 <= 0.0:
        raise UsageError("v1 must be positive")
    if alpha <= 0.0:
        raise UsageError("alpha must be positive")
    return v1, alpha


def _working_point(settings) -> tuple[PotentialParams, QesClassification]:
    """Resolve the (params, sets-to-solve) selection for solve/verify/sample.

    Exactly one of --v2, (--set and --n), --lambda selects the working point.
    """
    v1, alpha = _v1_alpha(settings)
    chosen = [settings.get(name) is not None for name in ("v2", "set", "lambda")]
    if sum(chosen) != 1:
        raise UsageError(
            "exactly one of --v2, --set/--n, --lambda must select the working point"
        )
    has_set, has_n = settings.get("set") is not None, settings.get("n") is not None
    if has_set != has_n:
        raise UsageError("--set requires --n" if has_set else "--n requires --set")

    if has_set:
        set_index, n = _require_whole(settings, "set"), _require_whole(settings, "n")
        if set_index not in SET_RESIDUES:
            raise UsageError(f"--set must be 1..4, got {set_index}")
        if n < 0:
            raise UsageError(f"--n must be nonnegative, got {n}")
        qes_set = QesSet(set_index, n)
    if settings.get("v2") is not None:
        params = PotentialParams(v1=v1, v2=_require_number(settings, "v2"), alpha=alpha)
    else:
        lam = qes_set.lam if has_set else _require_number(settings, "lambda")
        try:
            params = PotentialParams.from_lambda(v1, lam, alpha)
        except ValueError as exc:  # V2 = -2 sqrt(V1) alpha lambda overflows
            raise UsageError(str(exc)) from None
    _require_finite("s = sqrt(V1)/alpha", params.s)
    lam = _require_finite("lambda", params.lam)
    if has_set:
        classification = QesClassification(lam=lam, sets=(qes_set,))
    else:
        classification = enumerate_qes_sets(lam)
        if not classification.sets:
            raise UsageError(
                f"no admissible QES sets at V2 = {params.v2!r} (lambda = {lam!r})"
            )
    n = max(qes_set.n for qes_set in classification.sets)
    if n > MAX_BLOCK_N:
        raise UsageError(
            f"this working point needs n = {n:g}; the dense pencil supports n <= {MAX_BLOCK_N}"
        )
    return params, classification


def _set_payload(qes_set: QesSet) -> dict:
    return {
        "set": qes_set.set_index,
        "b1": qes_set.b1,
        "b1_prime": qes_set.b1_prime,
        "n": qes_set.n,
        "parity": qes_set.parity,
    }


def _level_payload(level) -> dict:
    # Every factor of the closed form is read from the level; nothing is evaluated.
    return {
        "set": level.qes_set.set_index,
        "n": level.qes_set.n,
        "energy": level.energy,
        "parity": level.parity,
        "node_count": level.node_count,
        "basis_coefficients": list(level.basis_coefficients),
        "wavefunction": {
            "p1": level.qes_set.p1,
            "p2": level.qes_set.p2,
            "C": -level.params.s,
            "alpha": level.params.alpha,
        },
    }


def cmd_classify(settings) -> tuple[int, dict]:
    variant = _variant_from(settings)
    v1, alpha = _v1_alpha(settings)
    params = PotentialParams(v1=v1, v2=_require_number(settings, "v2"), alpha=alpha)
    report = classify_symmetry(params, variant)
    _require_finite("lambda", report.lambda_value)
    document = {
        "command": "classify",
        "parameters": {**asdict(params), "variant": variant.value},
        "symmetry": {
            ("lambda" if key == "lambda_value" else key): value
            for key, value in asdict(report).items() if key != "variant"
        },
    }
    if report.physical_qes_possible:
        m_paper = _require_finite("M = 2 lambda", 2.0 * report.lambda_value.real)
        classification = enumerate_qes_sets(report.lambda_value.real)
        document["classification"] = {
            "lambda": classification.lam,
            "m_paper": m_paper,
            "total_levels": classification.total_levels,
            "sets": [_set_payload(q) for q in classification.sets],
        }
    else:
        document["classification"] = {
            "lambda": report.lambda_value, "total_levels": 0, "sets": []
        }
    return EXIT_OK, document


def cmd_solve(settings) -> tuple[int, dict]:
    params, classification = _working_point(settings)
    levels = solve_classification(params, classification)
    bases = {level.qes_set: level.basis for level in levels}
    document = {
        "command": "solve",
        "parameters": asdict(params),
        "lambda": classification.lam,
        "sets": [{**_set_payload(q), "basis": asdict(bases[q])} for q in classification.sets],
        "levels": [_level_payload(level) for level in levels],
    }
    return EXIT_OK, document


def cmd_verify(settings) -> tuple[int, dict]:
    params, classification = _working_point(settings)
    tolerance = _require_number(settings, "tol", DEFAULT_TOLERANCE)
    if tolerance <= 0.0:
        raise UsageError("tolerance must be positive")
    document = {
        "command": "verify",
        "parameters": asdict(params),
        "lambda": classification.lam,
    }
    analytic_levels = None
    if settings.get("assert_paper_table_33"):
        # Substitute the published Table 3.3 set-4 energy (a duplicate of the
        # set-3 value) and let the oracle decide.
        levels = solve_classification(params, classification)
        if not any(level.qes_set.set_index == 4 for level in levels):
            raise UsageError(
                "--assert-paper-table-3.3 needs a working point containing "
                "set 4 (integer lambda)"
            )
        _, published = PRINTED_ENERGIES["3.3", 4]
        eps = published(params.s)
        (printed,) = params.scaled("the published E", [eps], 2)
        analytic_levels = [
            replace(level, mu=-eps) if level.qes_set.set_index == 4 else level
            for level in levels
        ]
        document["adjudication"] = (
            "asserting the published Table 3.3 set-4 energy "
            f"{printed} against the oracle"
        )

    report = verify_qes(
        params, classification, tolerance=tolerance, analytic_levels=analytic_levels
    )
    document.update(
        tolerance=tolerance,
        grid={"L": params.scaled("the oracle's wall L", [report.grid.half_width_L], -1)[0],
              "N": report.grid.point_count_N},
        overall_pass=report.overall_pass,
        max_self_gap=report.max_self_gap,
        levels=[
            {("set" if key == "set_index" else key): value
             for key, value in asdict(row).items()}
            for row in report.rows
        ],
        unmatched_but_expected=list(report.unmatched_oracle),
    )
    return (EXIT_OK if report.overall_pass else EXIT_MISMATCH), document


def cmd_sample(settings) -> tuple[int, str]:
    params, classification = _working_point(settings)
    points = _require_whole(settings, "points", 1001)
    if points < 2:
        raise UsageError("--points must be at least 2")
    if points > MAX_SAMPLE_POINTS:
        raise UsageError(
            f"--points must be at most {MAX_SAMPLE_POINTS}, got {settings['points']}"
        )
    if settings.get("x_min") is None or settings.get("x_max") is None:
        # Five well units u either side, so the window follows a narrow well;
        # 5u/alpha <= 50 / (V1^(1/4) alpha^(1/2)) is finite for V1, alpha > 0.
        half = 5.0 * params.well_unit / params.alpha
        settings = {"x_min": -half, "x_max": half, **settings}
    x_min = _require_number(settings, "x_min")
    x_max = _require_number(settings, "x_max")
    if not x_min < x_max:
        raise UsageError("--x-min must be below --x-max")
    if not math.isfinite(x_max - x_min):
        raise UsageError(
            f"--x-max - --x-min = {x_max!r} - {x_min!r} overflows float64"
        )
    x = np.linspace(x_min, x_max, points)
    # V1 > 0, so where V1 sinh^2 + V2 cosh is inf + -inf, V is +inf.
    with np.errstate(over="ignore", invalid="ignore"):
        v = evaluate_potential(params, Variant.REAL_SINH_GORDON, x).real
    v[np.isnan(v)] = np.inf

    columns = [("x", x), ("V", v)]
    levels = solve_classification(params, classification)
    # A stable sort by set keeps the energy order within each set.  Each
    # column is normalised to its peak on the sampled points.
    for level in sorted(levels, key=lambda level: level.qes_set.set_index):
        qes_set = level.qes_set
        name = f"psi_set{qes_set.set_index}_n{qes_set.n}_E{'%.6g' % level.energy}"
        # Relative to the level's own peak, to which its error is round-off.
        values = evaluate_wavefunction(wavefunction(level, params), x)
        peak = float(np.max(np.abs(values)))
        if not peak >= MIN_WINDOW_PEAK:
            raise UsageError(
                f"the x range holds at most {peak:.3g} of the peak of {name}, below "
                f"{MIN_WINDOW_PEAK:g}: its values there would be round-off"
            )
        columns.append((name, values / peak))

    buffer = io.StringIO()
    writer = csv.writer(buffer)  # RFC 4180: CRLF line endings
    writer.writerow([name for name, _ in columns])
    for i in range(points):
        writer.writerow([_fmt(values[i]) for _, values in columns])
    return EXIT_OK, buffer.getvalue()


def cmd_table(settings) -> tuple[int, dict]:
    v1, alpha = _v1_alpha(settings, default=1.0)
    _require_finite("s = sqrt(V1)/alpha", math.sqrt(v1) / alpha)
    # V2 at the tables' largest lambda, 3/2; their energies check themselves.
    _require_finite("V2 = -2 sqrt(V1) alpha lambda", -3.0 * math.sqrt(v1) * alpha)
    document = reproduce_paper_tables(v1, alpha)
    document["command"] = "table"
    return EXIT_OK, document


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--v1", default=None)
    parser.add_argument("--alpha", default=None)
    parser.add_argument("--config", default=None, help="JSON config file; flags win")
    parser.add_argument("--output", default=None, help="write output here instead of stdout")


def _add_working_point(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--v2", default=None)
    parser.add_argument("--set", dest="set", default=None)
    parser.add_argument("--n", dest="n", default=None)
    parser.add_argument("--lambda", dest="lambda", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qhj-spectra",
        description=(
            "Quasi-exactly-solvable spectra of the generalized Sinh-Gordon "
            "potential with independent numerical verification"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="PT classification and admissible QES sets")
    _add_common(p)
    p.add_argument("--v2", default=None)
    p.add_argument(
        "--variant", default=None, help="one of: " + ", ".join(v.value for v in Variant)
    )

    p = sub.add_parser("solve", help="QES energies and closed-form wavefunctions")
    _add_common(p)
    _add_working_point(p)

    p = sub.add_parser("verify", help="adjudicate analytic levels against the oracle")
    _add_common(p)
    _add_working_point(p)
    p.add_argument(
        "--tol", default=None,
        help=f"bound on |E_analytic - E_oracle| / alpha^2 (default {DEFAULT_TOLERANCE:g})",
    )
    p.add_argument(
        "--assert-paper-table-3.3", dest="assert_paper_table_33", action="store_true",
        default=None,
        help="assert the published Table 3.3 set-4 energy instead (expected to fail)",
    )

    p = sub.add_parser("sample", help="CSV of V(x) and the QES wavefunctions")
    _add_common(p)
    _add_working_point(p)
    p.add_argument("--x-min", dest="x_min", default=None)
    p.add_argument("--x-max", dest="x_max", default=None)
    p.add_argument("--points", default=None)

    p = sub.add_parser("table", help="reproduce the published tables with adjudication")
    _add_common(p)

    return parser


COMMANDS = {
    "classify": cmd_classify,
    "solve": cmd_solve,
    "verify": cmd_verify,
    "sample": cmd_sample,
    "table": cmd_table,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        settings = _settings(args)
        code, document = COMMANDS[args.command](settings)
        _emit(document, settings.get("output"))
    except QhjSpectraError as exc:
        kind = "usage" if isinstance(exc, UsageError) else type(exc).__name__
        _emit({"error": {"type": kind, "message": str(exc)}}, None)
        return EXIT_INTERNAL if isinstance(exc, InvariantViolationError) else EXIT_USAGE
    except Exception as exc:
        traceback.print_exc()
        _emit({"error": {"type": type(exc).__name__, "message": str(exc)}}, None)
        return EXIT_INTERNAL
    return code


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
