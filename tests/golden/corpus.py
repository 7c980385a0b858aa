"""Golden CLI corpus: record and compare every case of cases.json.

Each case is one CLI invocation: its argv, an optional config file (its JSON
content; the argv, and the output, name it as "{config}") and its environment
(PYTHONWARNINGS=error unless the case says otherwise).  expected/<name>.txt
holds what it printed: a JSON header line with the exit code and stderr,
then stdout verbatim.  A traceback is kept as its last line only, and a
stdout above STORED_LIMIT bytes is kept as the SHA-256 of its text with
every round-off value replaced by "~".

    python tests/golden/corpus.py --record [NAME ...]   # fresh processes
    python tests/golden/corpus.py --compare [NAME ...]  # exit 1 on a diff

Every byte must match, except the round-off fields below, compared to
ROUND_OFF_TOLERANCE (absolute below 1, relative above), and the noise
fields, compared only for their presence.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
CASES = HERE / "cases.json"
EXPECTED = HERE / "expected"
SRC = HERE.parent.parent / "src"
STORED_LIMIT = 100_000
ROUND_OFF_TOLERANCE = 1e-10
# JSON keys whose values sit at round-off level: verify's gaps to the oracle
# and self-gaps, and the entries of a level's orthonormal-basis coefficient
# vector, whose smallest entries are round-off.  The oracle's eigenvalues
# (energy_oracle, unmatched_but_expected) and a set's basis (alpha_k and
# beta_k, sums of BLAS dot products) carry round-off that can move their 12th
# printed digit with the BLAS build and thread count: they take the same
# tolerance.
ROUND_OFF_FIELDS = frozenset({"abs_gap", "self_gap", "max_self_gap", "basis_coefficients",
                              "basis", "energy_oracle", "unmatched_but_expected"})
# sample's wavefunction columns (psi_*) are max-normalised values whose error
# is round-off relative to the peak: they take the same tolerance.
ROUND_OFF_COLUMN_PREFIX = "psi_"
# verify's convergence_order is the log ratio of two round-off gaps, so its
# digits are noise: only its presence is compared.
NOISE_FIELDS = frozenset({"convergence_order"})


def load_cases(names=None) -> list[dict]:
    cases = json.loads(CASES.read_text(encoding="utf-8"))
    if names:
        known = {case["name"] for case in cases}
        missing = sorted(set(names) - known)
        if missing:
            raise SystemExit(f"unknown cases: {', '.join(missing)}")
        cases = [case for case in cases if case["name"] in names]
    return cases


def _named(case, argv, text: str) -> str:
    """text with the config file's temporary path written back as "{config}"."""
    for given, arg in zip(case["argv"], argv):
        if given == "{config}":
            text = text.replace(arg, given)
    return text


@contextlib.contextmanager
def _argv(case):
    """The case's argv, with "{config}" replaced by a file holding its config."""
    if "config" not in case:
        yield list(case["argv"])
        return
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "config.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(case["config"], handle)
        yield [path if arg == "{config}" else arg for arg in case["argv"]]


def _environment(case) -> dict:
    return {"PYTHONWARNINGS": "error", **case.get("env", {})}


def run_fresh(case) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of the case in a fresh interpreter."""
    env = {**os.environ, **_environment(case)}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with _argv(case) as argv:
        result = subprocess.run(
            [sys.executable, "-m", "qhj_spectra.cli", *argv],
            capture_output=True, env=env, timeout=600,
        )
        # Bytes, decoded as is: sample's CSV ends its lines with CRLF.
        return (result.returncode, _named(case, argv, result.stdout.decode("utf-8")),
                _named(case, argv, result.stderr.decode("utf-8")))


def run_in_process(case) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of the case through cli.main in this process.

    Warnings are errors unless the case's PYTHONWARNINGS says otherwise.
    """
    from qhj_spectra import cli

    out, err = io.StringIO(), io.StringIO()
    with _argv(case) as argv, warnings.catch_warnings():
        warnings.simplefilter(_environment(case)["PYTHONWARNINGS"] or "default")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, _named(case, argv, out.getvalue()), _named(case, argv, err.getvalue())


def render(code: int, stdout: str, stderr: str) -> str:
    """The expected file's text for one run."""
    if stderr.startswith("Traceback"):
        stderr = stderr.rstrip("\n").rsplit("\n", 1)[-1] + "\n"
    header = {"exit": code, "stderr": stderr}
    if len(stdout.encode("utf-8")) > STORED_LIMIT:
        text = _without_round_off(stdout).encode("utf-8")
        header["stdout_sha256"] = hashlib.sha256(text).hexdigest()
        stdout = ""
    return json.dumps(header, sort_keys=True) + "\n" + stdout


def _without_round_off(stdout: str) -> str:
    """stdout with every round-off value replaced by "~"."""
    try:
        document = json.loads(stdout)
    except ValueError:
        rows = list(csv.reader(io.StringIO(stdout)))
        rounded = [i for i, name in enumerate(rows[0]) if name.startswith(ROUND_OFF_COLUMN_PREFIX)]
        for row in rows[1:]:
            for i in rounded:
                row[i] = "~"
        return "\n".join(",".join(row) for row in rows)

    def blank(value, tolerant=False):
        if isinstance(value, dict):
            return {key: blank(item, tolerant or key in ROUND_OFF_FIELDS | NOISE_FIELDS)
                    for key, item in value.items()}
        if isinstance(value, list):
            return [blank(item, tolerant) for item in value]
        return "~" if tolerant else value

    return json.dumps(blank(document), sort_keys=True)


def _parse(text: str) -> tuple[dict, str]:
    header, _, stdout = text.partition("\n")
    return json.loads(header), stdout


def _close(want: str, got: str) -> bool:
    try:
        want, got = float(want), float(got)
    except ValueError:
        return want == got
    return abs(want - got) <= ROUND_OFF_TOLERANCE * max(1.0, abs(want))


def _json_diffs(want, got, path="", tolerant=False) -> list[str]:
    if isinstance(want, dict) and isinstance(got, dict):
        if want.keys() != got.keys():
            return [f"{path or '/'}: keys {sorted(want)} != {sorted(got)}"]
        diffs = []
        for key in want:
            if key in NOISE_FIELDS:
                continue
            diffs += _json_diffs(want[key], got[key], f"{path}/{key}",
                                 tolerant or key in ROUND_OFF_FIELDS)
        return diffs
    if isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            return [f"{path}: {len(want)} entries != {len(got)}"]
        diffs = []
        for i, (a, b) in enumerate(zip(want, got)):
            diffs += _json_diffs(a, b, f"{path}/{i}", tolerant)
        return diffs
    if want == got or (tolerant and isinstance(want, str) and isinstance(got, str)
                       and _close(want, got)):
        return []
    return [f"{path}: {want!r} != {got!r}"]


def _csv_diffs(want: str, got: str) -> list[str]:
    want_rows = list(csv.reader(io.StringIO(want)))
    got_rows = list(csv.reader(io.StringIO(got)))
    if len(want_rows) != len(got_rows) or want_rows[:1] != got_rows[:1]:
        return [f"csv: header or row count differs ({len(want_rows)} != {len(got_rows)} rows)"]
    header = want_rows[0]
    diffs = []
    for r, (a, b) in enumerate(zip(want_rows[1:], got_rows[1:]), start=1):
        for name, x, y in zip(header, a, b):
            if x != y and not (name.startswith(ROUND_OFF_COLUMN_PREFIX) and _close(x, y)):
                diffs.append(f"csv row {r} {name}: {x} != {y}")
    return diffs


def compare(expected_text: str, got_text: str) -> list[str]:
    """The differences between an expected file's text and a run's."""
    want, want_out = _parse(expected_text)
    got, got_out = _parse(got_text)
    diffs = [f"{key}: {want.get(key)!r} != {got.get(key)!r}"
             for key in sorted(set(want) | set(got)) if want.get(key) != got.get(key)]
    if "stdout_sha256" in want or want_out == got_out:
        return diffs
    try:
        return diffs + _json_diffs(json.loads(want_out), json.loads(got_out))
    except ValueError:
        return diffs + _csv_diffs(want_out, got_out)


def expected_path(case) -> Path:
    return EXPECTED / f"{case['name']}.txt"


def read_expected(case) -> str:
    """The case's expected text, line endings as recorded."""
    return expected_path(case).read_bytes().decode("utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--record", action="store_true")
    mode.add_argument("--compare", action="store_true")
    parser.add_argument("names", nargs="*", help="cases to run (default: all)")
    args = parser.parse_args(argv)
    failed = 0
    for case in load_cases(args.names):
        text = render(*run_fresh(case))
        path = expected_path(case)
        if args.record:
            path.write_bytes(text.encode("utf-8"))
            continue
        diffs = (compare(read_expected(case), text)
                 if path.exists() else ["no expected file"])
        if diffs:
            failed += 1
            print(f"{case['name']}: {len(diffs)} difference(s)")
            for line in diffs[:20]:
                print(f"  {line}")
    if args.compare:
        print(f"{failed} of {len(load_cases(args.names))} cases differ")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
