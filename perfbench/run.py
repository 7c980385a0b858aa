"""qhj-spectra benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload spectrum_sweep --seed 1 --seconds 25 --trace 0

Run it from anywhere; it benchmarks the package under ``src/`` next to this
directory and fails if that is missing.  With ``--trace 0`` it prints the
end-to-end metrics; with ``--trace 1`` it runs the same ops again, each once
plain and once under spans, and prints the per-layer metrics.  The last line
of standard output is one JSON object; the lines before it are a readable
summary.  The full record of the run (context, per-op log, spans) goes to
``.perfbench-out/<workload>-seed<seed>-trace<trace>.json``.  See README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
import warnings
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path

from stats import nearest_rank, ranked, tail
from tracing import Target, Tracer, self_times

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "qhj_spectra"
SCHEMA = PACKAGE / "schema" / "cli_output.schema.json"
OUT = ROOT / ".perfbench-out"

# One BLAS/OpenMP thread (nproc is 2 where the benchmark was defined), set
# before numpy loads and inherited by every child process, so that both sides
# of a comparison run with the same cap.
THREAD_CAP = "1"
CAP_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
CHILD_TIMEOUT_S = 60.0
CLI_ENTRY = "from qhj_spectra.cli import entry; entry()"


# ---- child processes ------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    return env


@dataclass
class Child:
    code: int
    stdout: str
    stderr: str
    seconds: float
    max_rss_kb: int


def run_child(args: list[str], timeout: float = CHILD_TIMEOUT_S) -> Child:
    """Run a Python child to completion; wall time and peak RSS are its own."""
    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args],
            stdin=subprocess.DEVNULL,
            stdout=out,
            stderr=err,
            cwd=ROOT,
            env=child_env(),
        )
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            killer.join()
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(
            proc.returncode,
            out.read().decode("utf-8", "replace"),
            err.read().decode("utf-8", "replace"),
            seconds,
            usage.ru_maxrss,
        )


def last_json_line(child: Child) -> dict:
    if child.code != 0:
        raise RuntimeError(f"child exited {child.code}: {child.stderr[-2000:]}")
    return json.loads(child.stdout.strip().splitlines()[-1])


def measure_setup(args) -> tuple[float, float]:
    """Median over fresh processes of import + inputs + one warm-up op.

    Returns (seconds rescaled to the reference speed, raw seconds).
    """
    runs = []
    for _ in range(SETUP_REPEATS):
        child = run_child(
            [__file__, "--setup-probe", "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds)],
            timeout=120.0,
        )
        runs.append(last_json_line(child))
    return (statistics.median(r["setup_s"] for r in runs),
            statistics.median(r["raw_setup_s"] for r in runs))


def setup_probe(args) -> None:
    start = time.perf_counter()
    bench = Bench(args.workload)
    inputs = bench.workloads.make_inputs(args.workload, args.seed, args.seconds)
    record = bench.execute(inputs.warmup, cold=args.workload == "cli_cold")
    if record["outcome"] != "ok":
        raise RuntimeError(f"warm-up op failed: {record}")
    seconds = time.perf_counter() - start
    import calibrate

    probe = calibrate.Probe(args.workload)
    (setup_s,) = probe.rescale([seconds], [0], [probe(), probe()])
    print(json.dumps({"setup_s": setup_s, "raw_setup_s": seconds}))


def import_times() -> dict:
    """Import costs from `python -X importtime`, median of a few fresh processes."""
    runs = []
    for _ in range(IMPORT_REPEATS):
        child = run_child(["-X", "importtime", "-c", "import qhj_spectra"])
        if child.code != 0:
            raise RuntimeError(f"import failed: {child.stderr[-2000:]}")
        self_us: dict[str, int] = {}
        cumulative_us: dict[str, int] = {}
        for line in child.stderr.splitlines():
            if not line.startswith("import time:") or "self [us]" in line:
                continue
            own, cumulative, name = line[len("import time:"):].split("|")
            name = name.strip()
            self_us[name] = int(own)
            cumulative_us[name] = int(cumulative)

        def package_self(root: str) -> float:
            return 1e-6 * sum(
                us for name, us in self_us.items()
                if name == root or name.startswith(root + ".")
            )

        runs.append({
            "import.qhj_spectra_s": 1e-6 * cumulative_us["qhj_spectra"],
            "import.scipy_s": package_self("scipy"),
            "import.numpy_s": package_self("numpy"),
        })
    return {key: statistics.median(run[key] for run in runs) for key in runs[0]}


# ---- ops ------------------------------------------------------------------


def error_layer(exc: BaseException) -> str | None:
    """The innermost package module in the traceback: the layer that raised."""
    layer = None
    for frame, _ in traceback.walk_tb(exc.__traceback__):
        name = frame.f_globals.get("__name__", "")
        if name.startswith("qhj_spectra"):
            layer = name
    return layer


class Stopwatch:
    """Context manager that keeps the wall time of its block in `duration`."""

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.duration = time.perf_counter() - self.start


class Bench:
    """Runs and checks single ops of one workload."""

    def __init__(self, workload: str):
        import workloads  # numpy and qhj_spectra load here, inside set-up

        self.workloads = workloads
        self.workload = workload
        self.cli_checker = (
            workloads.CliChecker(SCHEMA) if workload == "cli_cold" else None
        )

    def _call(self, op, cold: bool):
        """Run one op; returns (result, child process or None)."""
        w = self.workloads
        if self.workload == "spectrum_sweep":
            return w.run_spectrum(op), None
        if self.workload == "verify_sweep":
            return w.run_verify(op), None
        if cold:
            child = run_child(["-c", CLI_ENTRY, *w.cli_argv(op)])
            return (child.code, child.stdout), child
        return w.run_cli_inprocess(op), None

    def _check(self, op, result) -> None:
        w = self.workloads
        if self.workload == "spectrum_sweep":
            w.check_spectrum(op, result)
        elif self.workload == "verify_sweep":
            w.check_verify(op, result)
        else:
            self.cli_checker.check(op, *result)

    def execute(self, op, cold: bool = False, timer=Stopwatch) -> dict:
        """Run, time and check one op; returns its per-op log record.

        `timer()` is a context manager around the op whose `duration` is the
        op's time: a stopwatch, or the root span of a traced op.
        """
        w = self.workloads
        record = {
            "workload": self.workload, "phase": op.phase, "kind": op.kind,
            "lam": op.lam, "s": op.s, "seconds": None, "outcome": "ok",
            "error_type": None, "error_layer": None, "detail": None,
        }
        child = None
        try:
            with timer() as clock:
                result, child = self._call(op, cold)
        except Exception as exc:  # the op itself raised: record it and go on
            record.update(outcome="raised", error_type=type(exc).__name__,
                          error_layer=error_layer(exc), detail=str(exc)[:300])
        record["seconds"] = clock.duration
        if child is not None:
            record["max_rss_kb"] = child.max_rss_kb
        if record["outcome"] != "ok":
            return record
        try:
            self._check(op, result)
        except w.CheckFailed as exc:
            record.update(outcome="check", detail=str(exc))
        except w.GateMissed as exc:
            record.update(outcome="gate", detail=str(exc))
        except w.ExitStatus as exc:
            record.update(outcome="exit", detail=str(exc))
            if child is not None and child.stdout.lstrip().startswith("{"):
                record["error_type"] = json.loads(child.stdout).get("error", {}).get("type")
        return record


def run_grid(bench: Bench, ops, timer_for=None) -> tuple[list[dict], int]:
    """One pass over the whole ROADMAP grid; returns records and quad warnings."""
    records, quad_warnings = [], 0
    for i, op in enumerate(ops):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            timer = timer_for(i) if timer_for else Stopwatch
            records.append(bench.execute(op, timer=timer))
        quad_warnings += count_quad_warnings(caught)
    return records, quad_warnings


def count_quad_warnings(caught) -> int:
    """scipy IntegrationWarnings, matched by name so scipy need not be imported."""
    return sum(w.category.__name__ == "IntegrationWarning" for w in caught)


def summarize(records: list[dict]) -> dict:
    ok = [r["outcome"] == "ok" for r in records]
    values = ranked([r["seconds"] for r in records], ok)
    failed = len(ok) - sum(ok)
    summary = {
        "attempted": len(records),
        "failed": failed,
        "failed_frac": failed / len(records),
        "op_p50_s": nearest_rank(values, 50.0),
    }
    summary["op_tail_pct"], summary["op_tail_s"] = tail(values)
    return summary


# ---- the two kinds of run -------------------------------------------------


def timed_loop(bench: Bench, ops, cold: bool) -> list[dict]:
    """Run the timed ops with speed probes between them (see calibrate.py)."""
    import calibrate

    probe = calibrate.Probe(bench.workload)
    records, probe_after, probes = [], [], [probe()]
    last_probe = time.perf_counter()
    for i, op in enumerate(ops):
        records.append(bench.execute(op, cold=cold))
        probe_after.append(len(probes) - 1)
        if time.perf_counter() - last_probe >= calibrate.PROBE_EVERY_S or i == len(ops) - 1:
            probes.append(probe())
            last_probe = time.perf_counter()
    rescaled = probe.rescale([r["seconds"] for r in records], probe_after, probes)
    for record, seconds in zip(records, rescaled):
        record["raw_seconds"], record["seconds"] = record["seconds"], seconds
    return records


def end_to_end(bench: Bench, inputs, setup: tuple[float, float]) -> tuple[dict, dict]:
    cold = bench.workload == "cli_cold"
    timed = timed_loop(bench, inputs.timed, cold)
    if cold:
        peak_kb = max(r["max_rss_kb"] for r in timed)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    grid, quad_warnings = run_grid(bench, inputs.grid)

    summary = summarize(timed)
    raw = summarize([dict(r, seconds=r["raw_seconds"]) for r in timed])
    metrics = {
        "setup_s": (setup[0], "s"),
        "op_p50_s": (summary["op_p50_s"], "s"),
        "op_tail_s": (summary["op_tail_s"], "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    detail = {
        "summary": summary,
        "raw": {"setup_s": setup[1], "op_p50_s": raw["op_p50_s"], "op_tail_s": raw["op_tail_s"]},
        "grid": summarize(grid) if grid else None,
        "grid_quad_warnings": quad_warnings,
        "ops": timed + grid,
    }
    return metrics, detail


def layer_names(spans) -> list[str]:
    """Span names, with the oracle's two grid solves told apart by call order."""
    names, seen = [], {}
    for span in spans:
        name = span.name
        if name == "oracle.lowest_eigenvalues":
            key = span.parent
            seen[key] = seen.get(key, 0) + 1
            name += ".coarse" if seen[key] == 1 else ".fine"
        names.append(name)
    return names


LAYERS = (
    "op",
    "cli.classify", "cli.solve", "cli.verify", "cli.sample", "cli.table",
    "qhj.enumerate_qes_sets",
    "solver.build_pencil", "solver.solve_levels", "solver.wavefunction",
    "solver.evaluate_wavefunction", "solver.count_moving_poles",
    "solver.moving_pole_contour_value",
    "oracle.verify_qes", "oracle.lowest_eigenvalues.coarse",
    "oracle.lowest_eigenvalues.fine", "potential.evaluate_potential",
)


def _contour_drift(args, kwargs, raw):
    return {"drift": max(abs(raw.real - round(raw.real)), abs(raw.imag))}


def _verify_attrs(args, kwargs, report):
    orders = [r.convergence_order for r in report.rows if math.isfinite(r.convergence_order)]
    return {
        "gate_pass": report.overall_pass,
        "max_abs_gap": max((r.abs_gap for r in report.rows), default=0.0),
        "min_order": min(orders, default=math.inf),
    }


TARGETS = (
    Target("qhj_spectra.cli", "main", lambda a, k: "cli." + (a[0] if a else k["argv"])[0]),
    Target("qhj_spectra.potential", "evaluate_potential", "potential.evaluate_potential"),
    Target("qhj_spectra.qhj", "enumerate_qes_sets", "qhj.enumerate_qes_sets"),
    Target("qhj_spectra.solver", "build_pencil", "solver.build_pencil",
           lambda a, k, pencil: {"size": pencil.size}),
    Target("qhj_spectra.solver", "solve_levels", "solver.solve_levels"),
    Target("qhj_spectra.solver", "wavefunction", "solver.wavefunction"),
    Target("qhj_spectra.solver", "evaluate_wavefunction", "solver.evaluate_wavefunction"),
    Target("qhj_spectra.solver", "count_moving_poles", "solver.count_moving_poles"),
    Target("qhj_spectra.solver", "moving_pole_contour_value",
           "solver.moving_pole_contour_value", _contour_drift),
    Target("qhj_spectra.oracle", "verify_qes", "oracle.verify_qes", _verify_attrs),
    Target("qhj_spectra.oracle", "lowest_eigenvalues", "oracle.lowest_eigenvalues",
           lambda a, k, spectrum: {"points": spectrum.grid.point_count_N}),
)


@contextmanager
def traced_op(tracer: Tracer, op_index: int):
    """Spans on for one op: the package patched, the op's root span open."""
    with tracer.patched("qhj_spectra", TARGETS), tracer.span("op", op=op_index) as span:
        yield span


def per_layer(bench: Bench, inputs) -> tuple[dict, dict]:
    imports = import_times()
    timed_tracer, grid_tracer = Tracer(), Tracer()
    records, plain_s, traced_s, quad_warnings = [], 0.0, 0.0, 0
    for i, op in enumerate(inputs.timed):
        # Alternate which run goes first, so neither one always gets warm caches.
        for run_traced in ((False, True) if i % 2 == 0 else (True, False)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                if run_traced:
                    record = bench.execute(op, timer=partial(traced_op, timed_tracer, i))
                    traced_s += record["seconds"]
                    records.append(record)
                    quad_warnings += count_quad_warnings(caught)
                else:
                    plain_s += bench.execute(op)["seconds"]
    grid, grid_quad_warnings = run_grid(
        bench, inputs.grid, timer_for=lambda i: partial(traced_op, grid_tracer, i)
    )

    names = layer_names(timed_tracer.spans)
    selfs = self_times(timed_tracer.spans)
    op_total = sum(s.duration for s, n in zip(timed_tracer.spans, names) if n == "op")
    layers = {}
    for name in LAYERS:
        picked = [i for i, n in enumerate(names) if n == name]
        layers[name] = {
            "calls": len(picked),
            "total_s": sum(timed_tracer.spans[i].duration for i in picked),
            "self_s": sum(selfs[i] for i in picked),
        }
    metrics = {key: (value, "s") for key, value in imports.items()}
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "frac")
    for name in LAYERS:
        metrics[f"{name}.self_pct"] = (100.0 * layers[name]["self_s"] / op_total, "%")

    all_spans = timed_tracer.spans + grid_tracer.spans
    all_names = names + layer_names(grid_tracer.spans)

    def attrs(name, key):
        return [s.attrs[key] for s, n in zip(all_spans, all_names)
                if n.startswith(name) and key in s.attrs]

    def failed(name, error=None):
        return sum(1 for s, n in zip(all_spans, all_names) if n.startswith(name)
                   and s.error is not None and (error is None or s.error == error))

    orders = [o for o in attrs("oracle.verify_qes", "min_order") if math.isfinite(o)]
    metrics.update({
        "solver.pencil_size.max": (max(attrs("solver.build_pencil", "size"), default=0), "count"),
        "solver.solve_levels.failed": (failed("solver.solve_levels"), "count"),
        "solver.count_moving_poles.calls": (layers["solver.count_moving_poles"]["calls"], "count"),
        "solver.contour_drift.max": (max(attrs("solver.moving_pole_contour_value", "drift"), default=0.0), "1"),
        "solver.quad_warnings": (quad_warnings + grid_quad_warnings, "count"),
        "oracle.grid_points.sum": (sum(attrs("oracle.lowest_eigenvalues", "points")), "count"),
        "oracle.max_abs_gap": (max(attrs("oracle.verify_qes", "max_abs_gap"), default=0.0), "1"),
        "oracle.min_convergence_order": (min(orders, default=0.0), "1"),
        "oracle.failed.invariant": (failed("oracle.lowest_eigenvalues", "InvariantViolationError"), "count"),
        "oracle.failed.mismatch": (failed("oracle.verify_qes", "HardMismatchError"), "count"),
        "oracle.failed.gate": (sum(1 for g in attrs("oracle.verify_qes", "gate_pass") if not g), "count"),
        "grid.failed": (sum(r["outcome"] != "ok" for r in grid), "count"),
    })
    detail = {
        "summary": summarize(records),
        "grid": summarize(grid) if grid else None,
        "layers": layers,
        "traced_s": traced_s,
        "plain_s": plain_s,
        "ops": records + grid,
        "spans": [
            [s.name, s.start, s.end, s.parent, s.op, s.error]
            for s in timed_tracer.spans
        ],
    }
    return metrics, detail


# ---- main -----------------------------------------------------------------


def run_context() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "thread_cap": {name: os.environ[name] for name in CAP_VARIABLES},
        "platform": platform.platform(),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli_cold", "spectrum_sweep", "verify_sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file() or not SCHEMA.is_file():
        print(f"error: no qhj_spectra package under {SRC}", file=sys.stderr)
        return 2
    for name in CAP_VARIABLES:
        os.environ[name] = THREAD_CAP
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    if args.setup_probe:
        setup_probe(args)
        return 0

    context = run_context()
    setup = None if args.trace else measure_setup(args)
    bench = Bench(args.workload)
    import qhj_spectra

    if Path(qhj_spectra.__file__).resolve().parent != PACKAGE.resolve():
        print(f"error: imported {qhj_spectra.__file__}, not {PACKAGE}", file=sys.stderr)
        return 2
    inputs = bench.workloads.make_inputs(args.workload, args.seed, args.seconds)
    # A traced cli_cold run calls cli.main in-process, so it warms up in-process.
    warmup = bench.execute(inputs.warmup, cold=args.workload == "cli_cold" and not args.trace)
    if warmup["outcome"] != "ok":
        print(f"error: warm-up op failed: {warmup}", file=sys.stderr)
        return 1

    started = time.perf_counter()
    if args.trace:
        metrics, detail = per_layer(bench, inputs)
    else:
        metrics, detail = end_to_end(bench, inputs, setup)
    summary = detail["summary"]
    checks_failed = sum(r["outcome"] == "check" for r in detail["ops"] if r["phase"] == "timed")

    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "wall_s": time.perf_counter() - started,
        "context": context, "inputs": {"warmup": asdict(inputs.warmup)},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **detail,
    }
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(result, indent=1, default=str) + "\n", encoding="utf-8")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} record={out_file.relative_to(ROOT)}")
    tail_pct = summary.get("op_tail_pct")
    print(f"#   timed ops: {summary['failed']} of {summary['attempted']} failed "
          f"(failed_frac {summary['failed_frac']:.4g}); tail rank p{_fmt(tail_pct)}")
    if detail["grid"]:
        grid = detail["grid"]
        print(f"#   ROADMAP grid pass: {grid['failed']} of {grid['attempted']} failed "
              f"(failed_frac {grid['failed_frac']:.4g})")
        for r in detail["ops"]:
            if r["phase"] == "grid" and r["outcome"] != "ok":
                print(f"#     lambda={r['lam']:g} s={r['s']:.4g}: {r['outcome']} "
                      f"{r['error_type'] or ''} {(r['detail'] or '')[:70]}")
    for name, value in detail.get("raw", {}).items():
        print(f"#   raw {name} = {_fmt(value)} s (unscaled wall time)")
    for name, layer in detail.get("layers", {}).items():
        print(f"#   layer {name}: calls={layer['calls']} total_s={layer['total_s']:.6g} "
              f"self_s={layer['self_s']:.6g}")
    for name, (value, unit) in metrics.items():
        print(f"#   {name} = {_fmt(value)} {unit}")
    print(json.dumps({
        "correct": checks_failed == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
