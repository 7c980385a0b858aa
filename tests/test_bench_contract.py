"""The benchmark's span contract (perfbench/run.py), pinned against the package:
every traced function resolves, and each annotation reads a real result."""

import importlib
import importlib.util
import sys
from pathlib import Path

import qhj_spectra
from qhj_spectra import PotentialParams, enumerate_qes_sets, solve_classification

_BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_run():
    # run.py imports its siblings stats and tracing as top-level modules, and
    # defines dataclasses, which look their module up in sys.modules while
    # it executes.  Nothing is written under perfbench/.
    spec = importlib.util.spec_from_file_location("perfbench_run", _BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    sys.path.insert(0, str(_BENCH))
    bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = bytecode
        sys.path.remove(str(_BENCH))
    return module


run = _load_run()

PARAMS = PotentialParams.from_lambda(1.0, 1.5, 1.0)


class TestSpanContract:
    def test_every_target_resolves_in_its_module(self):
        for target in run.TARGETS:
            module = importlib.import_module(target.module)
            assert callable(getattr(module, target.function, None)), target

    def test_the_verify_and_contour_annotations_read_real_results(self):
        report = qhj_spectra.verify_qes(PARAMS, enumerate_qes_sets(PARAMS.lam))
        attrs = run._verify_attrs((), {}, report)
        assert sorted(attrs) == ["gate_pass", "max_abs_gap", "min_order"]
        assert attrs["gate_pass"] is True and attrs["max_abs_gap"] <= 1e-6
        for level in solve_classification(PARAMS, enumerate_qes_sets(PARAMS.lam)):
            value = qhj_spectra.moving_pole_contour_value(level)
            assert run._contour_drift((), {}, value) == {"drift": 0.0}

    def test_a_traced_op_annotates_every_span_without_error(self):
        # As the benchmark's traced pass does: every binding in the package
        # patched, one verify and one spectrum op, every target's span closed.
        tracer = run.Tracer()
        with tracer.patched("qhj_spectra", run.TARGETS):
            qhj_spectra.verify_qes(PARAMS, enumerate_qes_sets(PARAMS.lam))
            for level in qhj_spectra.solve_classification(PARAMS,
                                                          enumerate_qes_sets(PARAMS.lam)):
                qhj_spectra.moving_pole_contour_value(level)
        assert [span.error for span in tracer.spans] == [None] * len(tracer.spans)
        annotated = {span.name for span in tracer.spans if span.attrs}
        assert {"solver.build_pencil", "solver.moving_pole_contour_value",
                "oracle.verify_qes", "oracle.lowest_eigenvalues"} <= annotated
