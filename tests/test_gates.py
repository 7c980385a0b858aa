"""The compare functions behind two CI verdicts, on synthetic inputs: the
golden corpus (tests/golden/corpus.py) and the envelope scan (tools/envelope.py)."""

import importlib.util
import json
from pathlib import Path

import numpy as np

from golden import corpus
from qhj_spectra import PotentialParams, enumerate_qes_sets, verify_qes

_SPEC = importlib.util.spec_from_file_location(
    "envelope", Path(__file__).resolve().parent.parent / "tools" / "envelope.py")
envelope = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(envelope)


class TestEnvelopeCompare:
    @staticmethod
    def scan(*points):
        return {"points": [{"lambda": lam, "s": s, **fields} for lam, s, fields in points]}

    def test_a_flipped_outcome_is_listed(self):
        old = self.scan((1.5, 1.0, {"outcome": "pass"}))
        new = self.scan((1.5, 1.0, {"outcome": "InvariantViolationError: Sturm"}))
        (line,) = envelope.compare(old, new)
        assert "(1.5, 1.0)" in line and "InvariantViolationError" in line

    def test_a_gap_that_grows_tenfold_above_the_floor_is_listed(self):
        old = self.scan((2.0, 0.1, {"outcome": "pass", "max_gap": 1e-11, "psi_gap": 3e-11}))
        new = self.scan((2.0, 0.1, {"outcome": "pass", "max_gap": 2e-10, "psi_gap": 3e-11}))
        (line,) = envelope.compare(old, new)
        assert "max_gap" in line

    def test_growth_below_the_floor_or_within_tenfold_is_not_listed(self):
        old = self.scan((2.0, 0.1, {"outcome": "pass", "max_gap": 1e-13, "psi_gap": 1e-9}))
        # 500x, but to 5e-11 < GAP_FLOOR; and 9x above the floor.
        new = self.scan((2.0, 0.1, {"outcome": "pass", "max_gap": 5e-11, "psi_gap": 9e-9}))
        assert envelope.GAP_FLOOR == 1e-10
        assert envelope.compare(old, new) == []

    def test_a_point_only_one_scan_has_is_not_listed(self):
        old = self.scan((1.0, 1.0, {"outcome": "pass"}), (3.0, 1.0, {"outcome": "pass"}))
        new = self.scan((1.0, 1.0, {"outcome": "pass"}),
                        (4.0, 1.0, {"outcome": "ValueError: x", "max_gap": 1.0}))
        assert envelope.compare(old, new) == []


class TestEnvelopeScan:
    def test_the_psi_gap_reads_verifys_spectra(self, monkeypatch):
        # A point's psi gap is taken against the fine spectra verify_qes
        # returns: scanning it decomposes exactly the matrices verify_qes does.
        sizes = []
        original = np.linalg.eigh

        def recorded(matrix, *args, **kwargs):
            sizes.append(matrix.shape[0])
            return original(matrix, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recorded)
        lam, s = 5.5, 1.0
        verify_qes(PotentialParams.from_lambda(s * s, lam, 1.0), enumerate_qes_sets(lam))
        verified, sizes[:] = list(sizes), []
        record = envelope.scan_point(lam, s)
        assert record["outcome"] == "pass"
        assert record["psi_gap"] <= 1e-10
        assert sizes == verified


class TestCorpusCompare:
    @staticmethod
    def json_run(document, code=0):
        return corpus.render(code, json.dumps(document, indent=2) + "\n", "")

    @staticmethod
    def csv_run(psi):
        return corpus.render(0, f"x,V,psi_set1_n0_E-1\r\n0,-2,{psi}\r\n", "")

    def test_a_changed_twelfth_digit_of_energy_is_a_diff(self):
        want = self.json_run({"levels": [{"energy": "-1.23456789012"}]})
        got = self.json_run({"levels": [{"energy": "-1.23456789013"}]})
        (diff,) = corpus.compare(want, got)
        assert diff.startswith("/levels/0/energy")

    def test_a_round_off_field_within_the_tolerance_is_not_a_diff(self):
        assert "abs_gap" in corpus.ROUND_OFF_FIELDS and corpus.ROUND_OFF_TOLERANCE == 1e-10
        want = self.json_run({"levels": [{"abs_gap": "1.2e-12"}]})
        assert corpus.compare(want, self.json_run({"levels": [{"abs_gap": "9.1e-11"}]})) == []
        assert corpus.compare(want, self.json_run({"levels": [{"abs_gap": "2.2e-10"}]})) != []

    def test_a_psi_column_past_the_tolerance_is_a_diff(self):
        want = self.csv_run("0.5")
        (diff,) = corpus.compare(want, self.csv_run("0.5000000002"))
        assert "psi_set1_n0_E-1" in diff
        assert corpus.compare(want, self.csv_run("0.50000000005")) == []

    def test_convergence_order_is_compared_only_for_presence(self):
        want = self.json_run({"levels": [{"convergence_order": "3.9", "energy": "-1"}]})
        got = self.json_run({"levels": [{"convergence_order": "1.2", "energy": "-1"}]})
        assert corpus.compare(want, got) == []
        missing = self.json_run({"levels": [{"energy": "-1"}]})
        assert corpus.compare(want, missing) != []

    def test_exit_code_and_stderr_must_match(self):
        want = corpus.render(2, "{}\n", "")
        assert corpus.compare(want, corpus.render(3, "{}\n", "")) != []
        assert corpus.compare(want, corpus.render(2, "{}\n", "warning\n")) != []
