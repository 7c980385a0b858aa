"""Workload inputs, the ops they drive, and the check on every op's output.

Inputs depend only on (workload, seed, seconds).  Every call into the program
goes through a module attribute looked up at call time, so the spans that
`tracing.Tracer.patched` installs see the benchmark's own calls too.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import qhj_spectra as pkg
import qhj_spectra.cli as cli

from stats import TAIL_BEYOND

WORKLOADS = ("cli_cold", "spectrum_sweep", "verify_sweep")
CLI_COMMANDS = ("classify", "solve", "verify", "sample", "table")

# The ROADMAP sweep: block size n through lambda, well strength s.
ROADMAP_LAMBDAS = (1.0, 1.5, 2.0, 5.5, 10.0, 20.5, 40.0)
ROADMAP_S = (0.3, 1.0, 3.0)
ANCHOR_LAMBDAS = (1.0, 1.5, 2.0)
ROADMAP_GRID = tuple((lam, s) for lam in ROADMAP_LAMBDAS for s in ROADMAP_S)

# The timed mixes hold the ROADMAP grid points on which every op completed
# and passed its checks, over the whole [0.9, 1.1] jitter range, when this
# benchmark was defined: timed ops must not fail.  Every grid point, these
# and the failing rest, also runs once per run in the grid pass, whose
# outcomes are logged and counted.
TIMED_MIX = {
    "spectrum_sweep": tuple(
        (lam, s) for lam in (1.0, 1.5, 2.0, 5.5) for s in ROADMAP_S
    ) + ((10.0, 1.0), (10.0, 3.0)),
    "verify_sweep": tuple((lam, s) for lam in ANCHOR_LAMBDAS for s in ROADMAP_S)
    + ((5.5, 3.0),),
}

# Seconds one pass over a workload's mix took when the benchmark was defined
# (2-CPU x86-64 container, one BLAS thread).  The op count of a run is fixed
# from it and --seconds, so that every commit runs the same ops and the
# percentile ranks mean the same on both sides of a comparison.
NOMINAL_CYCLE_S = {"cli_cold": 3.85, "spectrum_sweep": 4.2, "verify_sweep": 0.45}

SAMPLE_GRID = np.linspace(-5.0, 5.0, 1001)  # the `sample` default for alpha = 1
RESIDUAL_POINTS = (0.31, 0.74, 1.27, 1.93, 2.41, 2.87)
RESIDUAL_CHECKS = 3
ENERGY_RTOL = 1e-9
RESIDUAL_TOL = 1e-8
GATE = 1e-6


@dataclass(frozen=True)
class Op:
    kind: str  # "spectrum", "verify" or a CLI subcommand
    lam: float
    s: float
    phase: str  # "warmup", "timed" or "grid"


@dataclass(frozen=True)
class Inputs:
    warmup: Op
    timed: tuple[Op, ...]
    grid: tuple[Op, ...]


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


class GateMissed(Exception):
    """The program reported that its own accuracy gate failed."""


class ExitStatus(Exception):
    """A CLI process exited with a non-zero code."""


def cycles(workload: str, seconds: float) -> int:
    per_cycle = len(CLI_COMMANDS) if workload == "cli_cold" else len(TIMED_MIX[workload])
    least = math.ceil((2 * TAIL_BEYOND + 1) / per_cycle)  # tail rank >= median
    return max(least, round(seconds / NOMINAL_CYCLE_S[workload]))


def make_inputs(workload: str, seed: int, seconds: float) -> Inputs:
    """The warm-up op, the timed ops and the grid-pass ops of one run.

    Each point of a mix takes one draw per cycle, stratified over its range:
    the k draws fall one in each of k equal strata, in seeded order.  Every
    run then samples the whole range about equally, so the order statistics
    of one run do not hinge on where a few draws happened to fall.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")
    k = cycles(workload, seconds)

    if workload == "cli_cold":
        log_s = (math.log(0.1), math.log(10.0))
        warmup = Op("verify", 1.5, math.exp(rng.uniform(*log_s)), "warmup")
        draws = {cmd: _stratified(rng, k, *log_s) for cmd in CLI_COMMANDS}
        lams = {cmd: [rng.choice(ANCHOR_LAMBDAS) for _ in range(k)] for cmd in CLI_COMMANDS}
        points = [
            [Op(cmd, lams[cmd][c], math.exp(draws[cmd][c]), "timed") for cmd in CLI_COMMANDS]
            for c in range(k)
        ]
        grid: tuple[Op, ...] = ()
    else:
        kind = "spectrum" if workload == "spectrum_sweep" else "verify"
        mix = TIMED_MIX[workload]
        warmup = Op(kind, 1.5, rng.uniform(0.9, 1.1), "warmup")
        draws = {point: _stratified(rng, k, 0.9, 1.1) for point in mix}
        points = [
            [Op(kind, lam, s * draws[(lam, s)][c], "timed") for lam, s in mix]
            for c in range(k)
        ]
        grid = tuple(Op(kind, lam, s * rng.uniform(0.9, 1.1), "grid") for lam, s in ROADMAP_GRID)

    timed: list[Op] = []
    for cycle in points:
        rng.shuffle(cycle)
        timed.extend(cycle)
    return Inputs(warmup, tuple(timed), grid)


def _stratified(rng: random.Random, k: int, lo: float, hi: float) -> list[float]:
    """k draws from [lo, hi), one in each of k equal strata, in random order."""
    width = (hi - lo) / k
    draws = [lo + (i + rng.random()) * width for i in range(k)]
    rng.shuffle(draws)
    return draws


def params_for(lam: float, s: float):
    """The working point with alpha = 1 and V1 = s^2."""
    return pkg.PotentialParams(v1=s * s, v2=-2.0 * s * lam, alpha=1.0)


# ---- ops ------------------------------------------------------------------


@dataclass
class SpectrumResult:
    params: object
    levels: list
    psi: list
    moving: list


def run_spectrum(op: Op) -> SpectrumResult:
    params = params_for(op.lam, op.s)
    classification = pkg.enumerate_qes_sets(op.lam)
    levels = pkg.solve_classification(params, classification)
    psi = [
        pkg.evaluate_wavefunction(pkg.wavefunction(level, params), SAMPLE_GRID)
        for level in levels
    ]
    moving = [pkg.count_moving_poles(level) for level in levels]
    return SpectrumResult(params, levels, psi, moving)


def run_verify(op: Op):
    params = params_for(op.lam, op.s)
    classification = pkg.enumerate_qes_sets(op.lam)
    return pkg.verify_qes(params, classification)


def cli_argv(op: Op) -> list[str]:
    v1 = repr(op.s * op.s)
    if op.kind == "classify":
        return ["classify", "--v1", v1, "--v2", repr(-2.0 * op.s * op.lam), "--alpha", "1"]
    if op.kind == "table":
        return ["table", "--v1", v1, "--alpha", "1"]
    return [op.kind, "--v1", v1, "--alpha", "1", "--lambda", repr(op.lam)]


def run_cli_inprocess(op: Op) -> tuple[int, str]:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli.main(cli_argv(op))
    return code, buffer.getvalue()


# ---- checks ---------------------------------------------------------------


def anchor_energies(lam: float, s: float) -> list[float] | None:
    """Closed-form QES energies (alpha = 1) at the paper's anchor points."""
    if lam == 1.0:  # sets 3 and 4, n = 0: -1/4 -/+ s
        energies = [-0.25 - s, -0.25 + s]
    elif lam == 1.5:  # set 2, n = 0: -1; set 1, n = 1: -(1 +/- sqrt(1 + 16 s^2))/2
        root = math.sqrt(1.0 + 16.0 * s * s)
        energies = [-1.0, -(1.0 + root) / 2.0, -(1.0 - root) / 2.0]
    elif lam == 2.0:  # sets 3 and 4, n = 1
        r3 = math.sqrt(4.0 * s * s - 2.0 * s + 1.0)
        r4 = math.sqrt(4.0 * s * s + 2.0 * s + 1.0)
        energies = [
            -(1.25 + s + r3),
            -(1.25 + s - r3),
            -(1.25 - s + r4),
            -(1.25 - s - r4),
        ]
    else:
        return None
    return sorted(energies)


def _require(condition: bool, detail: str) -> None:
    if not condition:
        raise CheckFailed(detail)


def _check_energies(op: Op, energies: list[float]) -> None:
    _require(len(energies) == round(2 * op.lam), f"{len(energies)} levels, expected {2 * op.lam:g}")
    expected = anchor_energies(op.lam, op.s)
    if expected is None:
        return
    for got, want in zip(sorted(energies), expected):
        _require(
            abs(got - want) <= ENERGY_RTOL * max(1.0, abs(want)),
            f"energy {got!r} differs from the closed form {want!r}",
        )


def check_spectrum(op: Op, result: SpectrumResult) -> None:
    _check_energies(op, [level.energy for level in result.levels])
    for level, psi, moving in zip(result.levels, result.psi, result.moving):
        expected_nodes = 2 * moving + (1 if level.parity == "odd" else 0)
        _require(
            level.node_count == expected_nodes,
            f"node_count {level.node_count} != 2 * {moving} moving poles"
            f" + parity at E = {level.energy!r}",
        )
        peak = float(np.max(np.abs(psi)))
        _require(
            np.all(np.isfinite(psi)) and 0.5 < peak <= 1.0 + 1e-9,
            f"sampled wavefunction peak {peak!r} is not max-normalized",
        )
        wf = pkg.wavefunction(level, result.params)
        checked = 0
        for x in RESIDUAL_POINTS:
            try:
                residual = pkg.schrodinger_residual(wf, level.energy, result.params, x)
            except pkg.QmfPoleError:
                continue
            _require(
                abs(residual) <= RESIDUAL_TOL * max(1.0, abs(level.energy)),
                f"Schrodinger residual {residual!r} at x = {x} for E = {level.energy!r}",
            )
            checked += 1
            if checked == RESIDUAL_CHECKS:
                break
        _require(checked == RESIDUAL_CHECKS, "too few residual points off the poles")


def check_verify(op: Op, report) -> None:
    if not report.overall_pass:
        raise GateMissed("verify_qes reported overall_pass = False")
    _check_energies(op, [row.energy_analytic for row in report.rows])
    for row in report.rows:
        _require(row.abs_gap <= GATE, f"abs_gap {row.abs_gap!r} above the gate")
        _require(
            row.node_count_analytic == row.node_count_oracle,
            f"node counts {row.node_count_analytic} != {row.node_count_oracle}",
        )


class CliChecker:
    """Checks CLI output: JSON against the shipped schema, CSV by shape."""

    def __init__(self, schema_path: Path):
        import jsonschema

        schema = json.loads(schema_path.read_text(encoding="utf-8"))
        self.validator = jsonschema.Draft202012Validator(schema)

    def check(self, op: Op, code: int, text: str) -> None:
        if code != 0:
            raise ExitStatus(f"exit code {code}: {text[:200]!r}")
        if op.kind == "sample":
            self._check_sample(op, text)
            return
        document = json.loads(text)
        errors = sorted(self.validator.iter_errors(document), key=str)
        _require(not errors, f"schema: {errors[0].message if errors else ''}")
        _require(document["command"] == op.kind, f"command {document['command']!r}")
        if op.kind == "classify":
            total = document["classification"]["total_levels"]
            _require(total == round(2 * op.lam), f"total_levels {total}")
        elif op.kind == "solve":
            _check_energies(op, [float(row["energy"]) for row in document["levels"]])
        elif op.kind == "verify":
            _require(document["overall_pass"] is True, "overall_pass is not true")
            _check_energies(op, [float(row["energy_analytic"]) for row in document["levels"]])
            for row in document["levels"]:
                _require(float(row["abs_gap"]) <= GATE, f"abs_gap {row['abs_gap']}")

    @staticmethod
    def _check_sample(op: Op, text: str) -> None:
        rows = list(csv.reader(io.StringIO(text)))
        header, body = rows[0], rows[1:]
        levels = round(2 * op.lam)
        _require(header[:2] == ["x", "V"], f"header {header[:2]!r}")
        _require(len(header) == 2 + levels, f"{len(header) - 2} psi columns, expected {levels}")
        _require(len(body) == len(SAMPLE_GRID), f"{len(body)} rows")
        values = np.array(body, dtype=float)
        _require(bool(np.all(np.isfinite(values))), "non-finite sample")
        _require(np.allclose(values[:, 0], SAMPLE_GRID, rtol=0, atol=1e-9), "x grid differs")
        peaks = np.max(np.abs(values[:, 2:]), axis=0)
        _require(bool(np.allclose(peaks, 1.0, rtol=0, atol=1e-11)), f"psi peaks {peaks!r}")
