"""The golden report corpus: every entry of ``tests/golden/`` rerun in
process through ``cli.main`` and compared with what was recorded.

Exit codes, standard output, report keys, strings, booleans and integers
must be equal.  Floats must agree to 1e-12 relative, because another
numpy, BLAS or libm may move a last bit; a CSV cell holds 12 significant
digits, so its text may also move by one unit in its last digit.
``tests/golden/regenerate.py`` rewrites the corpus.
"""

import csv
import glob
import io
import json
import math
import os

import pytest

from tests.golden.regenerate import ENTRIES, run_entry

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
REL = 1e-12


def _assert_same(got, want, where):
    if isinstance(want, float) and isinstance(got, float):
        assert math.isclose(got, want, rel_tol=REL, abs_tol=0.0), f"{where}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), f"{where}: keys differ"
        for key in want:
            _assert_same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{where}: lengths differ"
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


def _assert_same_csv(got: str, want: str):
    got_rows, want_rows = list(csv.reader(io.StringIO(got))), list(csv.reader(io.StringIO(want)))
    assert got_rows[0] == want_rows[0], "CSV header differs"
    assert len(got_rows) == len(want_rows), "CSV row counts differ"
    for i, (g_row, w_row) in enumerate(zip(got_rows[1:], want_rows[1:]), start=1):
        assert len(g_row) == len(w_row), f"row {i}: cell counts differ"
        for g, w in zip(g_row, w_row):
            if g == w:
                continue
            a, b = float(g), float(w)
            last_digit = 10.0 ** (math.floor(math.log10(abs(b))) - 11) if b else 0.0
            assert abs(a - b) <= REL * abs(b) + last_digit, f"row {i}: {g} != {w}"


def test_corpus_holds_every_entry():
    on_disk = {os.path.basename(p)[: -len(".json")] for p in glob.glob(os.path.join(GOLDEN, "*.json"))}
    assert on_disk == set(ENTRIES)


@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_golden_entry(name):
    with open(os.path.join(GOLDEN, f"{name}.json")) as fh:
        want = json.load(fh)
    assert want["argv"] == ENTRIES[name]
    got = run_entry(want["argv"])
    assert got["exit_code"] == want["exit_code"]
    assert got["stdout"] == want["stdout"]
    assert sorted(got) == sorted(want)
    if "body" in want:
        _assert_same(got["body"], want["body"], "body")
    if "csv" in want:
        _assert_same_csv(got["csv"], want["csv"])


def test_regenerate_reports_what_moved():
    """regenerate.py's summary of a rewritten entry: which of exit code,
    stdout and passes moved, and the largest relative float change."""
    from tests.golden.regenerate import movement

    def entry(code, out, passed, margin):
        return {"argv": [], "exit_code": code, "stdout": out,
                "body": {"reports": [{"pass": passed, "regions": [{"min_margin": margin}]}], "seed": 0}}

    old = entry(0, "PASS x\n", True, 1e-9)
    assert movement(old, old) == "moved: none; largest relative float change 0"
    assert movement(old, entry(0, "PASS x \n", True, 0.5e-9)) == "moved: stdout; largest relative float change 0.5"
    assert movement(old, entry(1, "FAIL x\n", False, 1e-9)).startswith("moved: exit code, stdout, pass;")
    csv_old = {"exit_code": 0, "stdout": "", "csv": "a,b\n1,2\n3,4\n"}
    assert movement(csv_old, dict(csv_old, csv="a,b\n1,2\n3,5\n")) == "moved: none; largest relative float change 0.2"


def test_regenerate_check_writes_nothing(capsys):
    """regenerate.py --check prints each entry's movement line and leaves
    every corpus file as it was."""
    from tests.golden.regenerate import main

    def corpus():
        files = {}
        for path in glob.glob(os.path.join(GOLDEN, "*.json")) + glob.glob(os.path.join(GOLDEN, "inputs", "*")):
            with open(path, "rb") as fh:
                files[path] = (os.stat(path).st_mtime_ns, fh.read())
        return files

    before = corpus()
    main(["identities-grid", "csv-focal"], check=True)
    assert capsys.readouterr().err == ("identities-grid: moved: none; largest relative float change 0\n"
                                       "csv-focal: moved: none; largest relative float change 0\n")
    assert corpus() == before
