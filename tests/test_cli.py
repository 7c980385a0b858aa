import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from importlib import resources

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qhj_spectra import cli, enumerate_qes_sets, solve_classification, solver
from qhj_spectra.cli import main
from qhj_spectra.qhj import INTEGER_TOLERANCE
from qhj_spectra.errors import (
    DegenerateVectorError,
    InadmissibleParametersError,
    InvariantViolationError,
)


@pytest.fixture(scope="module")
def schema():
    text = (
        resources.files("qhj_spectra") / "schema" / "cli_output.schema.json"
    ).read_text()
    return json.loads(text)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def run_module(*argv, env=None):
    """Run the CLI in a fresh interpreter, as `python -m qhj_spectra.cli`."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return subprocess.run(
        [sys.executable, "-m", "qhj_spectra.cli", *argv],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src, **(env or {})},
    )


class TestClassify:
    def test_real_working_point(self, capsys, schema):
        code, doc = run_json(
            capsys, "classify", "--v1", "1", "--v2", "-3", "--alpha", "1"
        )
        assert code == 0
        jsonschema.validate(doc, schema)
        assert doc["classification"]["lambda"] == "1.5"
        assert [(s["set"], s["n"]) for s in doc["classification"]["sets"]] == [
            (1, 1),
            (2, 0),
        ]
        assert doc["classification"]["total_levels"] == 3
        # The variant is printed once, with the parameters.
        assert doc["parameters"]["variant"] == "real"
        assert "variant" not in doc["symmetry"]

    def test_imag_cosh(self, capsys, schema):
        code, doc = run_json(
            capsys, "classify", "--v1", "1", "--v2", "4", "--alpha", "2",
            "--variant", "i-cosh",
        )
        assert code == 0
        jsonschema.validate(doc, schema)
        assert doc["symmetry"]["physical_qes_possible"] is False
        imags = sorted(
            float(c["imag"]) for c in doc["symmetry"]["lambda_candidates"]
        )
        assert imags == [-1.0, 1.0]
        assert doc["classification"]["sets"] == []

    def test_negative_v1_is_usage_error(self, capsys, schema):
        code, doc = run_json(
            capsys, "classify", "--v1", "-1", "--v2", "-3", "--alpha", "1"
        )
        assert code == 2
        jsonschema.validate(doc, schema)
        assert "v1" in doc["error"]["message"]

    @pytest.mark.parametrize("v2, sets", [
        # lambda = 2500000000000000.5 and 2^51 + 0.5: half-odd, so sets 1 and 2.
        ("-5000000000000001", [(1, 2500000000000000), (2, 2499999999999999)]),
        ("-4503599627370497", [(1, 2**51), (2, 2**51 - 1)]),
    ])
    def test_admission_is_exact_beyond_two_to_the_51(self, capsys, schema, v2, sets):
        code, doc = run_json(capsys, "classify", "--v1", "1", f"--v2={v2}", "--alpha", "1")
        assert code == 0
        jsonschema.validate(doc, schema)
        assert [(q["set"], q["n"]) for q in doc["classification"]["sets"]] == sets

    def test_m_beyond_float64_is_usage_error(self, schema):
        # lambda = 1e308 is finite, M = 2 lambda is not: a usage error before
        # the sets are enumerated, with nothing on stderr in a fresh process.
        result = run_module(
            "classify", "--v1", "1", "--v2=-1e308", "--alpha", "0.5",
            env={"PYTHONWARNINGS": "error"},
        )
        assert result.returncode == 2
        assert result.stderr == ""
        doc = json.loads(result.stdout)
        jsonschema.validate(doc, schema)
        assert doc["error"] == {
            "type": "usage",
            "message": "M = 2 lambda = inf overflows float64 at this working point",
        }

    def test_missing_flag_is_usage_error(self, capsys):
        code, doc = run_json(capsys, "classify", "--v1", "1", "--alpha", "1")
        assert code == 2
        assert doc["error"]["type"] == "usage"


class TestSolve:
    def test_by_set_and_n(self, capsys, schema):
        code, doc = run_json(
            capsys, "solve", "--v1", "1", "--alpha", "1", "--set", "2", "--n", "0"
        )
        assert code == 0
        jsonschema.validate(doc, schema)
        assert doc["parameters"]["v2"] == "-3"
        (level,) = doc["levels"]
        assert level["energy"] == "-1"
        assert level["parity"] == "odd"
        assert level["node_count"] == 1

    def test_by_lambda(self, capsys, schema):
        code, doc = run_json(
            capsys, "solve", "--v1", "1", "--alpha", "1", "--lambda", "1"
        )
        assert code == 0
        jsonschema.validate(doc, schema)
        energies = [float(level["energy"]) for level in doc["levels"]]
        assert energies == pytest.approx([-1.25, 0.75])
        assert [level["node_count"] for level in doc["levels"]] == [0, 1]
        # The level holds its basis coefficients and parity; its wavefunction
        # block holds only the closed form's other factors, and its set the
        # basis.  At lambda = 1 both sets have n = 0: P = 1 and no basis.
        for level in doc["levels"]:
            assert set(level["wavefunction"]) == {"p1", "p2", "C", "alpha"}
            assert level["basis_coefficients"] == ["1"]
        assert [qes_set["basis"] for qes_set in doc["sets"]] == [{"alpha": [], "beta": []}] * 2

    def test_basis_reconstructs_the_closed_form(self, capsys, schema):
        # From the printed basis and coefficients alone, psi = w(z) sum_k c_k
        # q_k(z) with q_0 = 1 and beta_(k+1) q_(k+1) = (z - alpha_k) q_k -
        # beta_k q_(k-1) matches sample's columns (each max-normalised).
        argv = ("--v1", "1", "--alpha", "1", "--lambda", "5.5")
        code, doc = run_json(capsys, "solve", *argv)
        assert code == 0
        jsonschema.validate(doc, schema)
        code, out = run_cli(capsys, "sample", *argv, "--points", "201")
        rows = list(csv.reader(io.StringIO(out)))
        x = np.array([float(row[0]) for row in rows[1:]])
        columns = {name: np.array([float(row[i]) for row in rows[1:]])
                   for i, name in enumerate(rows[0])}
        z = np.cosh(x) - 1.0
        bases = {qes_set["set"]: qes_set["basis"] for qes_set in doc["sets"]}
        for level in doc["levels"]:
            basis = bases[level["set"]]
            alpha, beta = ([float(v) for v in basis[key]] for key in ("alpha", "beta"))
            c = [float(v) for v in level["basis_coefficients"]]
            q, q_, poly = np.ones_like(z), np.zeros_like(z), c[0] * np.ones_like(z)
            for k, (ak, bk) in enumerate(zip(alpha, beta)):
                q, q_ = ((z - ak) * q - (beta[k - 1] if k else 0.0) * q_) / bk, q
                poly += c[k + 1] * q
            w = level["wavefunction"]
            p1, p2, big_c = float(w["p1"]), float(w["p2"]), float(w["C"])
            psi = np.abs(z) ** p1 * (z + 2.0) ** p2 * np.exp(big_c * (1.0 + z)) * poly
            psi *= np.where(x < 0.0, -1.0, 1.0) if p1 > 0.0 else 1.0
            psi /= np.abs(psi).max()
            energy = "%.6g" % float(level["energy"])
            name = f"psi_set{level['set']}_n{level['n']}_E{energy}"
            np.testing.assert_allclose(psi, columns[name], rtol=0.0, atol=1e-10)

    def test_block_of_thirty(self, capsys, schema):
        # lambda = 30 (n = 29, 28): every level keeps its Sturm node count.
        code, doc = run_json(
            capsys, "solve", "--v1", "1", "--alpha", "1", "--lambda", "30"
        )
        assert code == 0
        jsonschema.validate(doc, schema)
        assert len(doc["levels"]) == 60
        for qes_set in doc["sets"]:
            in_set = [lvl for lvl in doc["levels"] if lvl["set"] == qes_set["set"]]
            odd = 1 if qes_set["parity"] == "odd" else 0
            assert [lvl["node_count"] for lvl in in_set] == [
                2 * j + odd for j in range(qes_set["n"] + 1)
            ]

    def test_by_v2(self, capsys):
        code, doc = run_json(
            capsys, "solve", "--v1", "1", "--alpha", "1", "--v2", "-3"
        )
        assert code == 0
        assert len(doc["levels"]) == 3

    def test_inadmissible_lambda(self, capsys):
        code, doc = run_json(
            capsys, "solve", "--v1", "1", "--alpha", "1", "--lambda", "0.7"
        )
        assert code == 2
        assert "no admissible QES sets" in doc["error"]["message"]

    def test_lambda_within_the_tolerance_solves(self, capsys, schema):
        # Admitted as set 1 with n = 0; build_pencil checks it by the same rule.
        code, doc = run_json(
            capsys, "solve", "--v1", "1", "--alpha", "1", "--lambda", "0.5000000008"
        )
        assert code == 0
        jsonschema.validate(doc, schema)
        assert doc["lambda"] == "0.5000000008"
        assert [(q["set"], q["n"]) for q in doc["sets"]] == [(1, 0)]

    def test_sets_are_those_of_the_working_points_lambda(self, capsys):
        # --lambda gives the working point's lambda itself.  At this tolerance
        # edge the V2 it derives, -2 sqrt(V1) alpha lambda, gives back a
        # lambda an ulp lower, 1.499999999, which admits no set: --lambda
        # solves the sets of the lambda given, --v2 classifies V2's own.
        code, doc = run_json(
            capsys, "solve", "--v1", "2", "--alpha", "1",
            "--lambda", "1.4999999990000001",
        )
        assert code == 0
        assert [(q["set"], q["n"]) for q in doc["sets"]] == [(1, 1), (2, 0)]
        assert doc["parameters"]["v2"] == "-4.24264068429"
        code, doc = run_json(
            capsys, "solve", "--v1", "2", "--alpha", "1", "--v2=-4.242640684290858"
        )
        assert code == 2
        assert doc["error"]["message"] == (
            "no admissible QES sets at V2 = -4.242640684290858 (lambda = 1.499999999)"
        )

    @given(
        q=st.integers(min_value=1, max_value=40),
        edge=st.sampled_from([-1, 1]),
        ulps=st.integers(min_value=-1, max_value=1),
        s=st.floats(min_value=0.1, max_value=10.0),
        log_alpha=st.floats(min_value=-0.5, max_value=0.5),
    )
    @example(q=3, edge=-1, ulps=1, s=math.sqrt(2.0), log_alpha=0.0)  # 1.4999999990000001
    @settings(max_examples=150, deadline=None)
    def test_lambda_admits_exactly_the_enumerated_sets(self, q, edge, ulps, s, log_alpha):
        # lambda at a tolerance edge of M = q, rounded, then moved by one ulp
        # either way: --lambda solves exactly enumerate_qes_sets(lambda).
        lam = float((q + 2 * edge * Fraction(INTEGER_TOLERANCE)) / 2)
        for _ in range(abs(ulps)):
            lam = math.nextafter(lam, math.copysign(math.inf, ulps))
        alpha = 10.0**log_alpha
        settings = {"v1": repr((s * alpha) ** 2), "alpha": repr(alpha), "lambda": repr(lam)}
        expected = enumerate_qes_sets(lam).sets
        if not expected:
            with pytest.raises(cli.UsageError, match="no admissible QES sets"):
                cli._working_point(settings)
            return
        params, classification = cli._working_point(settings)
        assert params.lam == lam
        assert classification.sets == expected
        solve_classification(params, classification)

    @pytest.mark.parametrize(
        "argv, config",
        [
            (["--lambda", "1.5", "--n", "7"], {}),
            (["--v2", "-3", "--n", "7"], {}),
            (["--lambda", "1.5"], {"n": 7}),
        ],
        ids=["lambda-flag", "v2-flag", "lambda-config"],
    )
    def test_n_without_set_is_usage_error(self, capsys, tmp_path, monkeypatch, argv, config):
        # --n only completes --set; alone it would be ignored.  The error
        # comes before any numpy work.
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        monkeypatch.setattr(cli, "solve_classification", None)
        code, doc = run_json(
            capsys, "solve", "--v1", "1", "--alpha", "1", "--config", str(path), *argv
        )
        assert code == 2
        assert doc["error"] == {"type": "usage", "message": "--n requires --set"}

    def test_overdetermined_working_point(self, capsys):
        code, doc = run_json(
            capsys, "solve", "--v1", "1", "--alpha", "1", "--lambda", "1",
            "--v2", "-2",
        )
        assert code == 2

    @pytest.mark.parametrize("lam", ["40", "80.5", "200.5"])
    @pytest.mark.parametrize("v1", ["0.01", "1", "100"])
    def test_large_blocks_solve_with_sturm_node_counts(self, capsys, lam, v1):
        # s = 0.1, 1 and 10 at alpha = 1, up to n = 200: exit 0, nothing on
        # stderr under warnings as errors, and level j of each set has
        # 2 j + odd nodes.  About 1.5 s for the nine points.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["solve", "--v1", v1, "--alpha", "1", "--lambda", lam])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        doc = json.loads(captured.out)
        assert len(doc["levels"]) == round(2 * float(lam))
        for qes_set in doc["sets"]:
            odd = 1 if qes_set["parity"] == "odd" else 0
            counts = [level["node_count"] for level in doc["levels"]
                      if level["set"] == qes_set["set"]]
            assert counts == [2 * j + odd for j in range(qes_set["n"] + 1)]

    @pytest.mark.parametrize("v1, alpha, levels, nodes", [
        # s = 1e12: the nodes span the weight's own width, about 1e-5 in
        # alpha x, not the oracle's wall at alpha L >= 3.
        ("1e24", "1", [("-2e+12", 0), ("-1", 1), ("2e+12", 2)], 40),
        # s = 1e-300: the nodes reach z ~ 1e301, and the Stieltjes procedure
        # runs in z over a power of two, so z q_k^2 stays within float64.
        ("1e-300", "1e150", [("-1e+300", 0), ("-1e+300", 1), ("3.31561842338e-16", 2)], 6954),
    ])
    def test_extreme_wells_solve_as_the_monomial_code_did(self, capsys, monkeypatch, v1,
                                                          alpha, levels, nodes):
        # The energies and node counts the monomial code printed; set 1
        # (n = 1) is the one set with a basis.
        sizes, spied = [], solver._nodes

        def spy(*args):
            z, log_w = spied(*args)
            sizes.append(z.size)
            return z, log_w

        monkeypatch.setattr(solver, "_nodes", spy)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, doc = run_json(capsys, "solve", "--v1", v1, "--alpha", alpha,
                                 "--lambda", "1.5")
        assert code == 0
        assert [(level["energy"], level["node_count"]) for level in doc["levels"]] == levels
        assert sizes == [nodes]


class TestVerify:
    def test_lambda_one_passes(self, capsys, schema):
        code, doc = run_json(
            capsys, "verify", "--v1", "1", "--alpha", "1", "--lambda", "1",
            "--tol", "1e-4",
        )
        assert code == 0
        jsonschema.validate(doc, schema)
        assert doc["overall_pass"] is True
        assert len(doc["levels"]) == 2

    def test_lambda_thirty_passes(self, capsys, schema):
        # A second-order finite-difference oracle missed the 1e-6 gate here on
        # 25 of the 60 levels (worst gap 3.8e-6), though the energies are right.
        code, doc = run_json(
            capsys, "verify", "--v1", "1", "--alpha", "1", "--lambda", "30"
        )
        assert code == 0
        jsonschema.validate(doc, schema)
        assert len(doc["levels"]) == 60
        assert all(float(row["abs_gap"]) <= 1e-10 for row in doc["levels"])
        assert float(doc["max_self_gap"]) <= 1e-10

    def test_assert_paper_table_exits_one(self, capsys, schema):
        code, doc = run_json(
            capsys, "verify", "--v1", "1", "--alpha", "1", "--lambda", "1",
            "--assert-paper-table-3.3",
        )
        assert code == 1
        jsonschema.validate(doc, schema)
        assert doc["overall_pass"] is False
        # The published set-4 energy -5/4 is two below the odd sector's 3/4.
        set_four = [row for row in doc["levels"] if row["set"] == 4]
        assert len(set_four) == 1
        assert float(set_four[0]["abs_gap"]) == pytest.approx(2.0, abs=1e-6)

    def test_assert_paper_table_exits_one_at_small_alpha(self, capsys, schema):
        # s = 1, alpha = 1e-4: the published set-4 energy is 2 alpha^2 = 2e-8
        # from the oracle's, far inside an absolute 1e-6, yet 2 in units of
        # alpha^2, which --tol bounds.
        code, doc = run_json(
            capsys, "verify", "--v1", "1e-8", "--alpha", "1e-4", "--lambda", "1",
            "--assert-paper-table-3.3",
        )
        assert code == 1
        jsonschema.validate(doc, schema)
        (set_four,) = [row for row in doc["levels"] if row["set"] == 4]
        assert float(set_four["abs_gap"]) == pytest.approx(2e-8, rel=1e-6)

    @pytest.mark.parametrize("v1, alpha", [("1", "1"), ("2", "0.5")])
    def test_asserted_energy_is_the_tables_printed_row(self, capsys, v1, alpha):
        code, doc = run_json(
            capsys, "verify", "--v1", v1, "--alpha", alpha, "--lambda", "1",
            "--assert-paper-table-3.3",
        )
        assert code == 1
        (asserted,) = [row["energy_analytic"] for row in doc["levels"] if row["set"] == 4]
        code, doc = run_json(capsys, "table", "--v1", v1, "--alpha", alpha)
        assert code == 0
        (printed,) = [row["printed"] for row in doc["rows"]
                      if (row["table"], row["set"], row["quantity"]) == ("3.3", 4, "energy")]
        assert asserted == printed


class TestSample:
    def test_shape_contract(self, capsys):
        code, out = run_cli(
            capsys, "sample", "--v1", "1", "--alpha", "1", "--lambda", "1.5"
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 1002  # header + 1001 points
        assert all(len(row) == 5 for row in rows)
        header = rows[0]
        assert header[:2] == ["x", "V"]
        assert all(name.startswith("psi_set") for name in header[2:])

    def test_rfc4180_line_endings_and_decimal_dot(self, capsys):
        code, out = run_cli(
            capsys, "sample", "--v1", "1", "--alpha", "1", "--set", "2",
            "--n", "0", "--points", "5",
        )
        assert code == 0
        assert "\r\n" in out
        assert "," in out and ";" not in out.splitlines()[1]

    def test_values_at_origin(self, capsys):
        code, out = run_cli(
            capsys, "sample", "--v1", "1", "--alpha", "1", "--lambda", "1.5"
        )
        rows = list(csv.reader(io.StringIO(out)))
        header, data = rows[0], rows[1:]
        mid = data[len(data) // 2]  # 1001 points: midpoint is x = 0
        assert float(mid[0]) == 0.0
        assert float(mid[1]) == pytest.approx(-3.0)
        odd_column = header.index("psi_set2_n0_E-1")
        assert float(mid[odd_column]) == 0.0

    @pytest.mark.parametrize("v1, lam", [("1", "1.5"), ("1", "10"), ("0.05", "10")])
    def test_one_closed_form_evaluation_per_column(self, capsys, monkeypatch, v1, lam):
        # Each column is psi over its maximum on the sampled points, read
        # from one evaluation per row block of its set: every level's row is
        # evaluated at the sampled points exactly once, and each peak is
        # exactly 1.
        evaluate, solve = solver._evaluate, cli.solve_classification
        blocks, levels = [], []

        def counted(*args, **kwargs):
            if args[3].size == 1001 and args[3][0] != 0.0:  # not a normalisation scan
                blocks.append([tuple(row) for row in args[0].tolist()])
            return evaluate(*args, **kwargs)

        def solved(*args):
            result = solve(*args)
            levels.extend(result)
            return result

        monkeypatch.setattr(solver, "_evaluate", counted)
        monkeypatch.setattr(cli, "solve_classification", solved)
        code, out = run_cli(capsys, "sample", "--v1", v1, "--alpha", "1", "--lambda", lam)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        psi = np.array(rows[1:], dtype=float)[:, 2:]
        assert psi.shape == (1001, round(2 * float(lam)))
        per_set = [sum(level.qes_set == qes_set for level in levels)
                   for qes_set in {level.qes_set for level in levels}]
        assert len(per_set) == 2
        assert len(blocks) == sum(len(solver._row_blocks(count, 1001)) for count in per_set)
        evaluated = sorted(row for block in blocks for row in block)
        assert evaluated == sorted(level.basis_coefficients for level in levels)
        assert np.abs(psi).max(axis=0).tolist() == [1.0] * psi.shape[1]

    def test_default_window_follows_a_narrow_well(self):
        # s = 1e12: the well is about 1e-6 wide, so the default window is
        # +-5u/alpha with u = 10 / sqrt(s) = 1e-5, not +-5/alpha, whose step
        # of 0.01 held none of the peak (exit 2).  Every column peaks at 1.
        result = run_module("sample", "--v1", "1e24", "--alpha", "1", "--lambda", "1.5",
                            env={"PYTHONWARNINGS": "error"})
        assert result.returncode == 0
        assert result.stderr == ""
        rows = list(csv.reader(io.StringIO(result.stdout)))
        assert rows[0][2:] == ["psi_set1_n1_E-2e+12", "psi_set1_n1_E2e+12", "psi_set2_n0_E-1"]
        data = np.array(rows[1:], dtype=float)
        assert data.shape == (1001, 5)
        assert data[0, 0] == pytest.approx(-5e-5, rel=1e-12)
        assert data[-1, 0] == pytest.approx(5e-5, rel=1e-12)
        assert np.abs(data[:, 2:]).max(axis=0).tolist() == [1.0] * 3

    @pytest.mark.parametrize("args, ratio", [
        (("--v1", "1e-6", "--lambda", "10"), "7.64e-17"),
        (("--v1", "1", "--lambda", "1", "--x-max", "1000", "--points", "5"), "9.84e-32"),
    ])
    def test_window_that_misses_the_peak_is_usage_error(self, schema, args, ratio):
        # The closed form is exact to round-off relative to its own peak, so
        # a window holding less than 1e-6 of a level's peak would print
        # round-off: a usage error naming the level and the ratio, with an
        # empty stderr under warnings as errors.
        result = run_module("sample", "--alpha", "1", *args, env={"PYTHONWARNINGS": "error"})
        assert result.returncode == 2
        assert result.stderr == ""
        doc = json.loads(result.stdout)
        jsonschema.validate(doc, schema)
        assert doc["error"]["type"] == "usage"
        assert re.fullmatch(rf"the x range holds at most {ratio} of the peak of "
                            r"psi_set\d_n\d+_E\S+, below 1e-06: its values there "
                            r"would be round-off", doc["error"]["message"])

    def test_far_out_v_is_inf_and_stderr_empty(self):
        # From x = 748.75 on both sinh^2 and cosh overflow, so V1 sinh^2 +
        # V2 cosh is inf + -inf; with V1 > 0, V tends to +inf.  A fresh
        # process shows what numpy would print on stderr.
        result = run_module(
            "sample", "--v1", "1", "--alpha", "1", "--lambda", "1",
            "--x-min=-1", "--x-max", "1000", "--points", "5",
        )
        assert result.returncode == 0
        assert result.stderr == ""
        rows = list(csv.reader(io.StringIO(result.stdout)))
        assert len(rows) == 6
        assert not any(cell == "nan" for row in rows for cell in row)
        assert [row[1] for row in rows[-2:]] == ["inf", "inf"]

    @pytest.mark.parametrize("args, message", [
        (("--points", "1e15"), "--points must be at most 1000000, got 1e15"),
        (("--points", "1e300"), "--points must be at most 1000000, got 1e300"),
        (("--points", "1000001"), "--points must be at most 1000000, got 1000001"),
        (("--x-min=-1e308", "--x-max", "1e308", "--points", "3"),
         "--x-max - --x-min = 1e+308 - -1e+308 overflows float64"),
    ])
    def test_oversized_sample_is_usage_error(self, schema, args, message):
        # Rejected before any numpy work: no allocation error, no overflow
        # warning and no traceback, in a fresh process with warnings as errors.
        result = run_module(
            "sample", "--v1", "1", "--alpha", "1", "--lambda", "1", *args,
            env={"PYTHONWARNINGS": "error"},
        )
        assert result.returncode == 2
        assert result.stderr == ""
        doc = json.loads(result.stdout)
        jsonschema.validate(doc, schema)
        assert doc["error"] == {"type": "usage", "message": message}

    def test_columns_grouped_by_set_then_energy(self, capsys):
        # at lambda = 2 the set-3 and set-4 energies interleave, so a sort
        # across sets would reorder these columns
        code, out = run_cli(
            capsys, "sample", "--v1", "1", "--alpha", "1", "--lambda", "2",
            "--points", "5",
        )
        assert code == 0
        header = next(csv.reader(io.StringIO(out)))
        psi = header[2:]
        assert [name.split("_")[1] for name in psi] == ["set3", "set3", "set4", "set4"]
        for group in (psi[:2], psi[2:]):
            energies = [float(name.split("_E")[1]) for name in group]
            assert energies == sorted(energies)
        energies = [float(name.split("_E")[1]) for name in psi]
        assert energies != sorted(energies)


class TestTable:
    def test_flag_contract(self, capsys, schema):
        code, doc = run_json(capsys, "table")
        assert code == 0
        jsonschema.validate(doc, schema)
        flags = [row["flag"] for row in doc["rows"]]
        assert flags.count("paper-typo-suspected") == 3
        by_key = {
            (row["table"], str(row["set"]), row["quantity"]): row["flag"]
            for row in doc["rows"]
        }
        assert by_key[("3.2", "2", "energy")] == "matches-paper"
        assert by_key[("3.3", "3", "energy")] == "matches-paper"

    @pytest.mark.parametrize(
        "flags, config",
        [(["--v1", "nan"], None), (["--alpha", "inf"], None), ([], {"v1": "abc"})],
        ids=["v1-nan", "alpha-inf", "config-v1-abc"],
    )
    def test_invalid_v1_alpha_is_usage_error(
        self, capsys, schema, tmp_path, flags, config
    ):
        if config is not None:
            path = tmp_path / "config.json"
            path.write_text(json.dumps(config))
            flags = ["--config", str(path)]
        code, doc = run_json(capsys, "table", *flags)
        assert code == 2
        jsonschema.validate(doc, schema)
        assert doc["error"]["type"] == "usage"

    def test_only_working_point_commands_take_v2(self, capsys):
        for command in ("classify", "solve", "verify", "sample"):
            code, _ = run_cli(capsys, command, "--v1", "1", "--alpha", "1", "--v2=-3")
            assert code == 0
        with pytest.raises(SystemExit) as exit_info:
            main(["table", "--v1", "1", "--alpha", "1", "--v2=-3"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --v2=-3" in capsys.readouterr().err


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv, config",
        [
            (["solve", "--lambda", "nan"], None),
            (["solve", "--lambda", "inf"], None),
            (["solve", "--v2", "nan"], None),
            (["verify", "--lambda", "1", "--tol", "nan"], None),
            (["solve"], {"set": "x", "n": 0}),
            (["solve"], {"set": 1, "n": 0.5}),
            # Flag values go through the same checks as config values.
            (["solve", "--v2", "abc"], None),
            (["solve", "--set", "1", "--n", "1.5"], None),
            (["classify", "--variant", "bogus"], None),
            (["sample", "--lambda", "1", "--points", "x"], None),
        ],
        ids=[
            "lambda-nan",
            "lambda-inf",
            "v2-nan",
            "tol-nan",
            "config-set-x",
            "config-n-fraction",
            "flag-v2-abc",
            "flag-n-fraction",
            "flag-variant-bogus",
            "flag-points-x",
        ],
    )
    def test_invalid_numbers_are_usage_errors(
        self, capsys, schema, tmp_path, argv, config
    ):
        if config is not None:
            path = tmp_path / "config.json"
            path.write_text(json.dumps(config))
            argv = argv + ["--config", str(path)]
        code, doc = run_json(capsys, *argv, "--v1", "1", "--alpha", "1")
        assert code == 2
        jsonschema.validate(doc, schema)
        assert doc["error"]["type"] == "usage"

    @pytest.mark.parametrize(
        "error, expected",
        [
            (InvariantViolationError, 3),
            (DegenerateVectorError, 3),
            (InadmissibleParametersError, 2),
        ],
    )
    def test_internal_failures_exit_three(
        self, capsys, schema, monkeypatch, error, expected
    ):
        def failing_verify(*args, **kwargs):
            raise error("injected failure")

        monkeypatch.setattr(cli, "verify_qes", failing_verify)
        code, doc = run_json(
            capsys, "verify", "--v1", "1", "--alpha", "1", "--lambda", "1"
        )
        assert code == expected
        jsonschema.validate(doc, schema)
        assert doc == {
            "error": {"type": error.__name__, "message": "injected failure"}
        }

    def test_wall_beyond_float64_is_usage_error(self, capsys, schema):
        # At V1 = 1e307 the oracle's tail wall sits where V1 sinh^2 overflows.
        code = main(["verify", "--v1", "1e307", "--alpha", "1", "--lambda", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ""
        doc = json.loads(captured.out)
        jsonschema.validate(doc, schema)
        assert doc["error"]["type"] == "InadmissibleParametersError"
        assert "wall xi = alpha L = 2.99" in doc["error"]["message"]
        assert "--" not in doc["error"]["message"]

    def test_wall_at_inf_minus_inf_leaves_stderr_empty(self, schema):
        # At alpha = 1e160 the wall sits at alpha L = 375, where V1 sinh^2 and
        # V2 cosh both overflow, so V(L) = inf + -inf; a fresh process shows
        # what numpy would print on stderr.
        result = run_module("verify", "--v1", "1", "--alpha", "1e160", "--lambda", "1")
        assert result.returncode == 2
        assert result.stderr == ""
        doc = json.loads(result.stdout)
        jsonschema.validate(doc, schema)
        assert doc["error"]["type"] == "InadmissibleParametersError"
        assert "wall xi = alpha L = 375.1" in doc["error"]["message"]

    @pytest.mark.parametrize(
        "argv, kind",
        [
            # s = sqrt(V1)/alpha is inf.
            (["solve", "--v1", "1", "--alpha", "1e-320", "--lambda", "1.5"], "usage"),
            # 2 sqrt(V1) alpha underflows to 0: the working point's own check.
            (["solve", "--v1", "1e-300", "--v2=-1e300", "--alpha", "1e-300"],
             "DegeneratePotentialError"),
            (["classify", "--v1", "1e-300", "--v2=-1e300", "--alpha", "1e-300"],
             "DegeneratePotentialError"),
            # The derived V2 is -inf.
            (["solve", "--v1", "1e300", "--alpha", "1e300", "--lambda", "1.5"], "usage"),
            # s is inf here too; classify has no use for s and rejects the
            # derived lambda, which is inf as well.
            (["classify", "--v1", "1", "--v2", "-3", "--alpha", "1e-320"], "usage"),
            # The derived lambda is inf.
            (["classify", "--v1", "1e-200", "--v2=-1e300", "--alpha", "1e-100"], "usage"),
            (["solve", "--v1", "1e-200", "--v2=-1e300", "--alpha", "1e-100"], "usage"),
            (["solve", "--v1", "1e300", "--alpha", "1", "--set", "1", "--n", "1e300"],
             "usage"),
        ],
        ids=[
            "s-inf",
            "solve-denominator-zero",
            "classify-denominator-zero",
            "v2-inf",
            "classify-s-inf",
            "classify-lambda-inf",
            "solve-lambda-inf",
            "set-v2-inf",
        ],
    )
    def test_derived_numbers_beyond_float64_are_usage_errors(
        self, capsys, schema, argv, kind
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ""
        doc = json.loads(captured.out)
        jsonschema.validate(doc, schema)
        assert doc["error"]["type"] == kind

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--lambda", "1e300"],
            ["solve", "--set", "1", "--n", "1e300"],
            ["verify", "--lambda", "1e5"],
            ["sample", "--set", "3", "--n", "501"],
            # lambda = 501.5: set 1 has n = 501, set 2 n = 500.
            ["solve", "--v2=-1003"],
        ],
        ids=["lambda-1e300", "n-1e300", "verify-lambda-1e5", "sample-n-501", "v2-n-501"],
    )
    def test_block_beyond_the_bound_is_usage_error(self, capsys, schema, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([*argv, "--v1", "1", "--alpha", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ""
        doc = json.loads(captured.out)
        jsonschema.validate(doc, schema)
        assert doc["error"]["type"] == "usage"
        assert doc["error"]["message"].endswith(f"supports n <= {solver.MAX_BLOCK_N}")

    def test_block_at_the_bound_is_a_working_point(self):
        settings = {"v1": 1, "alpha": 1, "set": 3, "n": solver.MAX_BLOCK_N}
        _, classification = cli._working_point(settings)
        assert [qes_set.n for qes_set in classification.sets] == [solver.MAX_BLOCK_N]

    def test_unwritable_output_is_usage_error(self, capsys, schema, tmp_path):
        target = tmp_path / "missing" / "out.json"
        code, doc = run_json(
            capsys, "solve", "--v1", "1", "--alpha", "1", "--lambda", "1",
            "--output", str(target),
        )
        assert code == 2
        jsonschema.validate(doc, schema)
        assert doc["error"]["type"] == "usage"
        assert "cannot write output file" in doc["error"]["message"]
        assert not target.exists()

    @pytest.mark.parametrize("error", [ValueError, ZeroDivisionError, MemoryError])
    def test_other_exceptions_exit_three(self, capsys, schema, monkeypatch, error):
        def failing_verify(*args, **kwargs):
            raise error("injected failure")

        monkeypatch.setattr(cli, "verify_qes", failing_verify)
        code = main(["verify", "--v1", "1", "--alpha", "1", "--lambda", "1"])
        captured = capsys.readouterr()
        assert code == 3
        doc = json.loads(captured.out)
        jsonschema.validate(doc, schema)
        assert doc == {
            "error": {"type": error.__name__, "message": "injected failure"}
        }
        assert captured.err.startswith("Traceback")
        assert f"{error.__name__}: injected failure" in captured.err

    @pytest.mark.parametrize("v1, alpha, message", [
        # s = 1e100: the start grid leaves eps ~ s^2 unresolved, and the rule
        # asks for ~1e100 points.
        ("1e200", "1", "the oracle's sizing rule asks for N = 1.68e+100 grid points at "
                        "s = 1e+100; N is limited to 12288"),
        # s = 1e160: v = V / alpha^2 has no float64 value, so no grid is sized.
        ("1e300", "1e-10", "v = V / alpha^2 overflows float64 at s = 1e+160, at the "
                           "oracle's wall xi = alpha L = 2.99"),
    ], ids=["s1e100", "s1e160"])
    def test_grid_beyond_its_cap_is_inadmissible(self, capsys, schema, v1, alpha, message):
        code = main(["verify", "--v1", v1, "--alpha", alpha, "--lambda", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ""
        doc = json.loads(captured.out)
        jsonschema.validate(doc, schema)
        assert doc["error"]["type"] == "InadmissibleParametersError"
        assert doc["error"]["message"].startswith(message)

    def test_lambda_forty_block_solves_with_every_node_count(self, capsys, schema):
        # lambda = 40 (n = 39, 38): the monomial eigenvector lost the signs of
        # its smallest components and the Sturm check failed the set.  In the
        # orthonormal basis every level keeps its node count, and solve exits 0.
        code, doc = run_json(
            capsys, "solve", "--v1", "1", "--alpha", "1", "--lambda", "40"
        )
        assert code == 0
        jsonschema.validate(doc, schema)
        assert len(doc["levels"]) == 80
        for qes_set in doc["sets"]:
            in_set = [lvl for lvl in doc["levels"] if lvl["set"] == qes_set["set"]]
            odd = 1 if qes_set["parity"] == "odd" else 0
            assert [lvl["node_count"] for lvl in in_set] == [
                2 * j + odd for j in range(qes_set["n"] + 1)
            ]

    @staticmethod
    def solved_without_a_warning(capsys, set_index, n):
        # solve at V1 = alpha = 1 with warnings as errors: exit 0, an empty
        # stderr, n + 1 levels with node counts 2 j + odd, and n alpha_k
        # and beta_k for the set.  (The schema is checked on smaller sets:
        # here it would cost seconds.)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["solve", "--v1", "1", "--alpha", "1", "--set", str(set_index),
                         "--n", str(n)])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        doc = json.loads(captured.out)
        (qes_set,) = doc["sets"]
        odd = 1 if qes_set["parity"] == "odd" else 0
        assert [lvl["node_count"] for lvl in doc["levels"]] == [
            2 * j + odd for j in range(n + 1)]
        assert len(qes_set["basis"]["alpha"]) == len(qes_set["basis"]["beta"]) == n

    def test_set_three_at_n_400_solves_without_a_warning(self, capsys):
        # Set 3's monomial scaling D overflowed float64 from n = 305 at s = 1
        # and the set failed; the orthonormal basis has no such scaling.
        self.solved_without_a_warning(capsys, 3, 400)

    def test_set_one_at_n_300_solves_without_a_warning(self, capsys):
        # Set 1's monomial eigenvector's last component underflowed to 0 at
        # n = 300 and the set failed; the basis has no leading-1 division.
        self.solved_without_a_warning(capsys, 1, 300)

    def test_table_beyond_float64_is_usage_error(self, schema):
        # V2 = -2 sqrt(V1) alpha lambda overflows float64 here: a usage error
        # naming V2, with an empty stderr under warnings as errors.
        result = run_module("table", "--v1", "1e300", "--alpha", "1e200",
                            env={"PYTHONWARNINGS": "error"})
        assert result.returncode == 2
        assert result.stderr == ""
        doc = json.loads(result.stdout)
        jsonschema.validate(doc, schema)
        assert doc["error"] == {
            "type": "usage",
            "message": "V2 = -2 sqrt(V1) alpha lambda = -inf overflows float64 at this working point",
        }
        result = run_module("table", "--v1", "1.7e308", "--alpha", "1.3e154")
        assert result.returncode == 2 and result.stderr == ""
        assert json.loads(result.stdout)["error"]["message"] == (
            "V2 = -2 sqrt(V1) alpha lambda = -inf overflows float64 at this working point")
        # s = 1e-310: V2 is finite, but E = alpha^2 eps is not.
        result = run_module("table", "--v1", "1e-300", "--alpha", "1e160",
                            env={"PYTHONWARNINGS": "error"})
        assert result.returncode == 2 and result.stderr == ""
        assert json.loads(result.stdout)["error"] == {
            "type": "InadmissibleParametersError",
            "message": "E = -alpha^2 mu overflows float64 at alpha = 1e+160",
        }

    @given(
        command=st.sampled_from(["classify", "solve", "sample", "table"]),
        v1=st.floats(min_value=-300.0, max_value=300.0).map(lambda e: 10.0**e),
        alpha=st.floats(min_value=-150.0, max_value=150.0).map(lambda e: 10.0**e),
        lam=st.integers(min_value=1, max_value=80).map(lambda m: m / 2.0),
        points=st.integers(min_value=2, max_value=101),
        well_widths=st.none() | st.floats(min_value=0.1, max_value=100.0),
    )
    # A window of +-5 well widths at s = 1e12, where the lattice's step was
    # wider than the well: a RuntimeWarning (exit 3), now a CSV.
    @example(command="sample", v1=1e24, alpha=1.0, lam=1.5, points=101, well_widths=5.0)
    # s = 5.5e54, where the lattice had no finite value (exit 3) and then
    # the default window +-5/alpha held none of the peak (exit 2); the
    # window +-5u/alpha follows the well, and every column peaks at 1.
    @example(command="sample", v1=1.748955475109327e+65, alpha=7.568016110058467e-23,
             lam=40.0, points=51, well_widths=None)
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_no_run_fails_internally_across_the_float_range(
        self, command, v1, alpha, lam, points, well_widths
    ):
        # Across the float range every run either answers or is a usage
        # error, under warnings as errors: none exits 3.  sample's window is
        # +-well_widths well widths 1 / (alpha sqrt(s)), or its default.
        argv = [command, "--v1", repr(v1), "--alpha", repr(alpha)]
        if command == "classify":
            argv.append(f"--v2={-2.0 * math.sqrt(v1) * alpha * lam!r}")
        elif command != "table":
            argv += ["--lambda", repr(lam)]
        if command == "sample":
            argv += ["--points", str(points)]
            if well_widths is not None:
                half = well_widths / (alpha * math.sqrt(math.sqrt(v1) / alpha))
                argv += [f"--x-min={-half!r}", f"--x-max={half!r}"]
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = main(argv)
        assert code in (0, 2), (argv, out.getvalue()[-300:], err.getvalue()[-300:])

    def test_module_entry_point(self, schema):
        result = run_module("classify", "--v1", "1", "--v2", "-3", "--alpha", "1")
        assert result.returncode == 0
        jsonschema.validate(json.loads(result.stdout), schema)


class TestContract:
    def test_determinism(self, capsys):
        _, first = run_cli(
            capsys, "classify", "--v1", "1", "--v2", "-3", "--alpha", "1"
        )
        _, second = run_cli(
            capsys, "classify", "--v1", "1", "--v2", "-3", "--alpha", "1"
        )
        assert first == second

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, out = run_cli(
            capsys, "solve", "--v1", "1", "--alpha", "1", "--set", "2",
            "--n", "0", "--output", str(target),
        )
        assert code == 0
        assert out == ""
        doc = json.loads(target.read_text())
        assert doc["command"] == "solve"

    def test_config_file_flags_win(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"v1": 1.0, "alpha": 1.0, "lambda": 1.0}))
        code, doc = run_json(capsys, "solve", "--config", str(config))
        assert code == 0
        assert len(doc["levels"]) == 2
        code, doc = run_json(
            capsys, "solve", "--config", str(config), "--lambda", "1.5"
        )
        assert code == 0
        assert len(doc["levels"]) == 3

    @pytest.mark.parametrize(
        "command, config, message",
        [
            ("solve", {"v1": True, "alpha": 1, "lambda": 1}, "--v1 must be a number, got True"),
            ("solve", {"v1": 1, "alpha": 1, "lambda": False},
             "--lambda must be a number, got False"),
            ("verify", {"v1": 1, "alpha": 1, "lambda": 1, "assert_paper_table_33": "no"},
             "assert_paper_table_33 must be a JSON boolean, got 'no'"),
            ("solve", {"v1": 1, "alpha": 1, "lambda": 1, "output": 2},
             "output must be a string, got 2"),
        ],
        ids=["v1-true", "lambda-false", "flag-string", "output-number"],
    )
    def test_config_value_of_the_wrong_type_is_usage_error(
        self, capfd, schema, tmp_path, command, config, message
    ):
        # A number is a JSON number or a numeric string, never a boolean; the
        # flag is a JSON boolean; the output path is a string.
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code = main([command, "--config", str(path)])
        captured = capfd.readouterr()
        assert code == 2
        assert captured.err == ""
        doc = json.loads(captured.out)
        jsonschema.validate(doc, schema)
        assert doc["error"] == {"type": "usage", "message": message}

    def test_config_flag_and_numeric_strings_still_work(self, capsys, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(
            {"v1": "1", "alpha": 1.0, "lambda": "1", "assert_paper_table_33": False}
        ))
        code, doc = run_json(capsys, "verify", "--config", str(path))
        assert code == 0
        assert "adjudication" not in doc

    def test_config_env_var(self, capsys, tmp_path, monkeypatch):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"v1": 1.0, "v2": -3.0, "alpha": 1.0}))
        monkeypatch.setenv("QHJ_SPECTRA_CONFIG", str(config))
        code, doc = run_json(capsys, "classify")
        assert code == 0
        assert doc["classification"]["lambda"] == "1.5"

    def test_twelve_significant_digits(self, capsys):
        code, doc = run_json(
            capsys, "solve", "--v1", "1", "--alpha", "1", "--lambda", "1.5"
        )
        ground = doc["levels"][0]["energy"]
        assert ground == "-2.56155281281"
