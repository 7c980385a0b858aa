import csv
import io
import json
import os
import subprocess
import sys
from importlib import resources

import jsonschema
import numpy as np
import pytest

from qhj_spectra import cli, solver
from qhj_spectra.cli import main
from qhj_spectra.errors import (
    ContourCollisionError,
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

    def test_overdetermined_working_point(self, capsys):
        code, doc = run_json(
            capsys, "solve", "--v1", "1", "--alpha", "1", "--lambda", "1",
            "--v2", "-2",
        )
        assert code == 2


class TestVerify:
    def test_lambda_one_passes(self, capsys, schema):
        code, doc = run_json(
            capsys, "verify", "--v1", "1", "--alpha", "1", "--lambda", "1",
            "--tol", "1e-4", "--N", "60",
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

    def test_starting_points_at_the_floor(self, capsys, schema):
        # --N starts the grid rule, which needs N >= k = n + 3 = 3 per sector
        # at lambda = 1 and grows N until the sector is resolved.
        code, doc = run_json(
            capsys, "verify", "--v1", "1", "--alpha", "1", "--lambda", "1",
            "--N", "3", "--L", "20",
        )
        assert code == 0
        jsonschema.validate(doc, schema)
        assert float(doc["max_self_gap"]) <= 1e-10
        assert doc["grid"]["N"] > 3
        # The far wall is trimmed to the default one.
        assert float(doc["grid"]["L"]) < 5.0

    def test_starting_points_above_the_bound(self, capsys, schema, monkeypatch):
        # The dense solves cost N^3 time and N^2 memory, so --N above 1000 is
        # refused before any solve; --N 1000 itself reaches the oracle.
        grids = []

        def recording_verify(params, classification, grid, **kwargs):
            grids.append(grid.point_count_N)
            raise InvariantViolationError("stop before solving")

        monkeypatch.setattr(cli, "verify_qes", recording_verify)
        for n, expected in (("1001", 2), ("100000", 2), ("1000", 3)):
            code = main(
                ["verify", "--v1", "1", "--alpha", "1", "--lambda", "1", "--N", n]
            )
            captured = capsys.readouterr()
            assert code == expected
            assert captured.err == ""
            doc = json.loads(captured.out)
            jsonschema.validate(doc, schema)
            if expected == 2:
                assert doc["error"]["type"] == "usage"
                assert "at most 1000" in doc["error"]["message"]
                assert "N^3" in doc["error"]["message"]
        assert grids == [1000]

    def test_assert_paper_table_exits_one(self, capsys, schema):
        code, doc = run_json(
            capsys, "verify", "--v1", "1", "--alpha", "1", "--lambda", "1",
            "--N", "60", "--assert-paper-table-3.3",
        )
        assert code == 1
        jsonschema.validate(doc, schema)
        assert doc["overall_pass"] is False
        # The published set-4 energy -5/4 is two below the odd sector's 3/4.
        set_four = [row for row in doc["levels"] if row["set"] == 4]
        assert len(set_four) == 1
        assert float(set_four[0]["abs_gap"]) == pytest.approx(2.0, abs=1e-6)


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
        # Each column is sign exp(log|psi| - its maximum over the sampled
        # points), read from one evaluation per row block of its set: every
        # level's row is evaluated exactly once, and each peak is exactly 1.
        log_abs, solve = solver._log_abs, cli.solve_classification
        blocks, levels = [], []

        def counted(*args, **kwargs):
            blocks.append([tuple(row) for row in args[0][:, :, 0].T.tolist()])
            return log_abs(*args, **kwargs)

        def solved(*args):
            result = solve(*args)
            levels.extend(result)
            return result

        monkeypatch.setattr(solver, "_log_abs", counted)
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
        assert evaluated == sorted(level.coefficients for level in levels)
        assert np.abs(psi).max(axis=0).tolist() == [1.0] * psi.shape[1]

    def test_far_out_v_is_inf_and_stderr_empty(self):
        # From x = 748.75 on both sinh^2 and cosh overflow, so V1 sinh^2 +
        # V2 cosh is inf + -inf; with V1 > 0, V tends to +inf.  A fresh
        # process shows what numpy would print on stderr.
        src = os.path.dirname(os.path.dirname(cli.__file__))
        result = subprocess.run(
            [sys.executable, "-m", "qhj_spectra.cli", "sample", "--v1", "1",
             "--alpha", "1", "--lambda", "1", "--x-max", "1000", "--points", "5"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert result.returncode == 0
        assert result.stderr == ""
        rows = list(csv.reader(io.StringIO(result.stdout)))
        assert len(rows) == 6
        assert not any(cell == "nan" for row in rows for cell in row)
        assert [row[1] for row in rows[-2:]] == ["inf", "inf"]

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


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv, config",
        [
            (["solve", "--lambda", "nan"], None),
            (["solve", "--lambda", "inf"], None),
            (["solve", "--v2", "nan"], None),
            (["verify", "--lambda", "1", "--L", "-1"], None),
            # Each sector needs N >= k = n + 3 from the start of the grid rule.
            (["verify", "--lambda", "1", "--N", "2"], None),
            (["verify", "--lambda", "1", "--tol", "nan"], None),
            (["verify", "--lambda", "20.5", "--N", "22"], None),
            (["solve"], {"set": "x", "n": 0}),
            (["solve"], {"set": 1, "n": 0.5}),
            # Flag values go through the same checks as config values.
            (["solve", "--v2", "abc"], None),
            (["solve", "--set", "1", "--n", "1.5"], None),
            (["classify", "--variant", "bogus"], None),
            (["verify", "--lambda", "1", "--N", "2e3x"], None),
            (["sample", "--lambda", "1", "--points", "x"], None),
        ],
        ids=[
            "lambda-nan",
            "lambda-inf",
            "v2-nan",
            "L-negative",
            "N-small",
            "tol-nan",
            "N-below-block",
            "config-set-x",
            "config-n-fraction",
            "flag-v2-abc",
            "flag-n-fraction",
            "flag-variant-bogus",
            "flag-N-garbled",
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
            (ContourCollisionError, 3),
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
        code = main(
            ["verify", "--v1", "1", "--alpha", "1", "--lambda", "1", "--L", "400"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ""
        doc = json.loads(captured.out)
        jsonschema.validate(doc, schema)
        assert doc["error"]["type"] == "usage"
        assert "--L = 400.0" in doc["error"]["message"]
        assert "V(L) overflows float64" in doc["error"]["message"]

    def test_wall_at_inf_minus_inf_leaves_stderr_empty(self, schema):
        # At L = 1000 both sinh^2 and cosh overflow, so V(L) = inf + -inf; a
        # fresh process shows what numpy would print on stderr.
        src = os.path.dirname(os.path.dirname(cli.__file__))
        result = subprocess.run(
            [sys.executable, "-m", "qhj_spectra.cli", "verify", "--v1", "1",
             "--alpha", "1", "--lambda", "1", "--L", "1000"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert result.returncode == 2
        assert result.stderr == ""
        doc = json.loads(result.stdout)
        jsonschema.validate(doc, schema)
        assert doc["error"]["type"] == "usage"
        assert "--L = 1000.0 is too far out" in doc["error"]["message"]

    def test_block_beyond_root_finding_is_internal_failure(self, capsys, schema):
        # lambda = 40 (n = 39, 38): eigh's eigenvector loses the signs of its
        # smallest components, so the sign changes of P's coefficients break
        # the Sturm node-count invariant, which fails instead of printing
        # wrong nodes.
        code, doc = run_json(
            capsys, "solve", "--v1", "1", "--alpha", "1", "--lambda", "40"
        )
        assert code == 3
        jsonschema.validate(doc, schema)
        assert doc["error"]["type"] == "InvariantViolationError"

    def test_module_entry_point(self, schema):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        result = subprocess.run(
            [sys.executable, "-m", "qhj_spectra.cli", "classify",
             "--v1", "1", "--v2", "-3", "--alpha", "1"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
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
