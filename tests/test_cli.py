import argparse
import csv
import json
import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from picband import cli, curvature
from picband.reporting import canonical_body
from tests.conftest import complex_to_json, constant_curvature, curvature_to_json
from tests.golden.regenerate import ENTRIES, EXIT_CODES, HERE, run_entry


def run_cli(args):
    return subprocess.run([sys.executable, "-m", "picband.cli", *args], capture_output=True, text=True)


@pytest.mark.parametrize("argv, code", EXIT_CODES, ids=["-".join(argv) for argv, _ in EXIT_CODES])
def test_exit_code(argv, code):
    entry = run_entry(argv)
    assert entry["exit_code"] == code
    assert code != 2 or "body" not in entry  # an error writes no report


def test_table_band_of_20000_knots(tmp_path):
    """The natural spline of a 20,000-knot table is one O(m) sweep, where a
    dense solve would hold three 3.2 GB matrices."""
    m = 20000
    path = tmp_path / "band.json"
    phi = {"kind": "table", "x": [3 * i / (m - 1) for i in range(m)], "values": [1.0] * m}
    path.write_text(json.dumps({"n": 4, "r0": 0.5, "r1": 2.5, "phi": phi}))
    assert run_entry(["verify", "band", "--band", str(path)])["exit_code"] == 0


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")], ids=["unset", "user-set"])
def test_cli_defaults_to_one_blas_thread(preset, expected):
    """Importing the CLI sets one BLAS thread unless the user set a count."""
    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in blas}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    code = "import os, picband.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == expected


def test_verify_curvature_negative_sigma_is_a_verdict():
    """--sigma -1 was refused (exit 2) while verify band judged it."""
    for n in ("4", "6"):
        assert cli.main(["verify", "curvature", "--n", n, "--sigma", "-1"]) in (0, 1)


@pytest.mark.parametrize("n", ["0", "-1", "11", "1000000000000000", "4..1000000000000000", "4..1000000000",
                               "1" + "0" * 400])
def test_clifford_dimension_past_the_stacks_is_usage_error(tmp_path, monkeypatch, capsys, n):
    """A dimension below 1 or one whose largest degree stack passes
    MAX_STACK_ENTRIES is refused before any stack or range list is built:
    4..10^15 ended in a MemoryError (exit 1), and --n 0 passes vacuously on
    the stacks."""
    def refuse(*args, **kwargs):
        raise AssertionError("reached a stack past the limit")

    monkeypatch.setattr(cli.exterior, "_key_stack", refuse)
    report = tmp_path / "r.json"
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "clifford", "--n", n, "--out", str(report)])
    assert exc.value.code == 2
    assert "dimensions >= 1 whose degree stacks fit in MAX_STACK_ENTRIES" in capsys.readouterr().err
    assert not report.exists()
    assert cli.exterior.MAX_STACK_ENTRIES >= 10 * math.comb(10, 4) * math.comb(10, 5)  # n = 10 still runs


def _flip_one_sign(stack_fn, n, k):
    """stack_fn with one nonzero entry of its (n, k) stack negated."""
    def flipped(n_, k_):
        S = stack_fn(n_, k_)
        if (n_, k_) == (n, k):
            S = S.copy()
            S[tuple(np.argwhere(S)[0])] *= -1
        return S
    return flipped


def test_clifford_basis_defect_is_exact_and_a_corrupted_stack_fails(monkeypatch, capsys):
    """On the degree stacks the basis relations hold with defect exactly 0;
    one flipped sign in wedge_stack(4, 2) fails them by 2 and makes the
    suite FAIL (exit 1)."""
    assert all(cli._clifford_basis_defect(n) == 0.0 for n in range(1, 9))
    monkeypatch.setattr(cli.exterior, "wedge_stack", _flip_one_sign(cli.exterior.wedge_stack, 4, 2))
    assert cli._clifford_basis_defect(4) == 2.0
    assert cli.main(["verify", "clifford", "--n", "4..5", "--samples", "1"]) == 1
    out = capsys.readouterr().out
    assert "FAIL clifford.relations.n4" in out and "PASS clifford.relations.n5" in out


def test_verify_failure_exit_code():
    # sigma above the product minimum: stochastic search finds a counter-frame;
    # a process, so that python -m picband.cli passes main's exit code on
    out = run_cli(["verify", "curvature", "--sigma", "2.5"])
    assert out.returncode == 1
    assert "FAIL" in out.stdout


def test_input_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_entry(["verify", "weitzenboeck", "--tensor", str(bad)])["exit_code"] == 2
    assert "input error" in capsys.readouterr().err


def test_reports_byte_identical(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    for p in (p1, p2):
        out = run_cli(["verify", "counterexample", "--out", str(p)])
        assert out.returncode == 0
    b1 = json.loads(p1.read_text())
    b2 = json.loads(p2.read_text())
    assert canonical_body(b1) == canonical_body(b2)
    assert "timestamp" in b1["metadata"]


def test_env_seed_override(monkeypatch):
    monkeypatch.delenv("PIC_TOOLKIT_SEED", raising=False)
    body = run_entry(["verify", "curvature", "--seed", "3"])["body"]
    monkeypatch.setenv("PIC_TOOLKIT_SEED", "3")
    assert run_entry(["verify", "curvature", "--seed", "5"])["body"] == body


def test_verify_focal_cli():
    # run_entry fails a run that writes any file besides its report: the
    # curve is `emit csv --curve focal`
    entry = run_entry(["verify", "focal", "--n", "4", "--sigma", "1", "--lambda", "5",
                       "--lambda-bar", "100", "--rf", "18.01"])
    assert entry["exit_code"] == 0
    checks = {r["check"] for r in entry["body"]["reports"]}
    assert {"focal.regularity", "focal.boundary", "focal.inequality.N", "focal.inequality.D"} <= checks


def test_focal_curve_needs_the_focal_radius_verify_focal_needs(tmp_path):
    """At r_f = 30, below 9 sqrt(n/sigma) = 31.18 for n = 6 and sigma = 0.5,
    the focal inequality's hypothesis fails: the verdict and the emitted
    curve both exit 2 and write nothing."""
    flags = ["--n", "6", "--sigma", "0.5", "--rf", "30"]
    for argv in (["verify", "focal", *flags], ["emit", "csv", "--curve", "focal", *flags]):
        out = tmp_path / "out"
        assert cli.main([*argv, "--out", str(out)]) == 2, argv
        assert not out.exists(), argv


def test_verify_weitzenboeck_with_tensor_file(tmp_path):
    R = constant_curvature(4, 1.0)
    path = tmp_path / "tensor.json"
    path.write_text(json.dumps(curvature_to_json(R)))
    entry = run_entry(["verify", "weitzenboeck", "--tensor", str(path), "--sigma", "4"])
    assert entry["exit_code"] == 0
    assert "weitzenboeck.lower_bound" in entry["stdout"]


def test_verify_hodge_custom_complex(tmp_path):
    from picband import hodge as H

    doc = complex_to_json(H.load_bundled("annulus"))
    path = tmp_path / "annulus.json"
    path.write_text(json.dumps(doc))
    assert run_entry(["verify", "hodge", "--complex", str(path), "--twists", "3"])["exit_code"] == 0


def test_verify_band_with_spec(tmp_path):
    spec = {"n": 4, "phi": {"kind": "const"}, "r0": 0.0, "r1": 2.0}
    path = tmp_path / "band.json"
    path.write_text(json.dumps(spec))
    assert run_entry(["verify", "band", "--band", str(path), "--sigma", "1.0"])["exit_code"] == 0


def test_curvature_report_restarts_are_the_search_effort(tmp_path):
    path = tmp_path / "r.json"
    assert cli.main(["verify", "curvature", "--out", str(path)]) == 0
    (report,) = json.loads(path.read_text())["report"]["reports"]
    assert report["params"] == {"n": 4, "restarts": 0, "sigma": 1.0}  # closed form, no search


@pytest.mark.parametrize("K, code", [("1e9", 2), ("1e308", 2), ("1e6", 0)])
def test_barrier_curve_past_oracle_step_limit_is_input_error(tmp_path, capsys, K, code):
    """The oracle's RK4 step of 1e-4 resolves K = 1e6, not K = 1e9, where it
    used to write oracle -1.12e7 against barrier 9.49e4 and exit 0."""
    path = tmp_path / "barrier.csv"
    argv = ["emit", "csv", "--curve", "barrier", "--K", K, "--points", "3", "--out", str(path)]
    assert cli.main(argv) == code
    if code == 2:
        assert "step limit" in capsys.readouterr().err
        assert not path.exists()
    else:
        rows = list(csv.reader(path.read_text().splitlines()))[1:]
        assert len(rows) == 3 and all(abs(float(row[3])) < 1e-9 for row in rows)


EXTREME_VALUES = ["nan", "inf", "-inf", "1e308", "-1e308", "-1", "-0.5", "0", "1e-308", "5e-324"]
COMPARISON_PATHS = {
    ("verify", "comparison", "--draws", "3"): ("--draws", "--seed", "--tol"),
    ("verify", "focal"): ("--n", "--sigma", "--lambda", "--lambda-bar", "--rf"),
    ("verify", "bandwidth"): ("--n", "--sigma", "--delta", "--Lambda", "--rf", "--L"),
    ("emit", "csv", "--curve", "barrier", "--points", "5"): ("--n", "--K", "--Lambda", "--rho-max"),
    ("emit", "csv", "--curve", "focal", "--points", "5"): ("--n", "--sigma", "--lambda", "--lambda-bar", "--rf"),
    ("verify", "counterexample"): ("--n", "--k", "--sigma", "--L"),
}


def _exit_2_or_finite(argv, out):
    """Run argv in process: a usage or input error (exit 2) writes nothing,
    a run (exit 0) writes only finite numbers; anything else is a defect.
    verify bandwidth, identities, band and curvature may also fail (exit 1):
    --Lambda 1e308 or --sigma 1e-308 give a finite negative margin, a grid
    file's residual may exceed its bound, and a band or a tensor file may
    fall short of sigma; the margins must be finite."""
    try:
        code = cli.main([*argv, "--out", str(out)])
    except SystemExit as exc:
        code = exc.code
    may_fail = argv[:2] in (["verify", "bandwidth"], ["verify", "identities"], ["verify", "band"],
                            ["verify", "curvature"])
    assert code in ((0, 1, 2) if may_fail else (0, 2)), argv
    if code == 2:
        assert not out.exists(), argv
    elif argv[0] == "emit":
        rows = list(csv.reader(out.read_text().splitlines()))[1:]
        assert rows and all(math.isfinite(float(v)) for row in rows for v in row), argv
    else:
        reports = json.loads(out.read_text())["report"]["reports"]
        assert all(isinstance(r["min_margin"], float) for rep in reports for r in rep["regions"]), argv


def _path_id(base) -> str:
    """comparison, barrier, focal (the emitted curve), verify-focal,
    verify-bandwidth and verify-counterexample."""
    return base[-3] if len(base) > 2 else "-".join(base)


@pytest.mark.parametrize("base", sorted(COMPARISON_PATHS), ids=_path_id)
def test_comparison_paths_on_extreme_values(tmp_path, base):
    """NaN, infinities, huge, tiny and negative values in every flag."""
    for flag in COMPARISON_PATHS[base]:
        for value in EXTREME_VALUES:
            out = tmp_path / f"{flag}{value}"
            _exit_2_or_finite([*base, flag, value], out)


GRID_DOC = {
    "n": 3, "L": 2.0, "N_r": 12, "N_t": 4,
    "fields": [
        [{"index": [1, 2], "coef": [1.0, 0.0],
          "factors": [{"axis": 0, "kind": "sin", "freq": 1.3, "phase": 0.4},
                      {"axis": 1, "kind": "cos", "freq": 1, "phase": 0.3}]}],
        [{"index": [2], "coef": [0.7, 0.2],
          "factors": [{"axis": 0, "kind": "cos", "freq": 0.9, "phase": 0.1},
                      {"axis": 1, "kind": "cos", "freq": 1, "phase": 0.3}]},
         {"index": [1, 2, 3], "coef": [0.4, -0.1],
          "factors": [{"axis": 0, "kind": "sin", "freq": 1.7, "phase": 0.9},
                      {"axis": 2, "kind": "sin", "freq": 1, "phase": 0.2}]}],
    ],
}


def _grid_number_paths(doc):
    """Key paths of the grid sizes, of L, of each coef part and of each
    factor's freq and phase."""
    yield ("N_r",)
    yield ("N_t",)
    yield ("L",)
    for i, spec in enumerate(doc["fields"]):
        for j, term in enumerate(spec):
            for part in range(len(term["coef"])):
                yield ("fields", i, j, "coef", part)
            for k in range(len(term["factors"])):
                yield ("fields", i, j, "factors", k, "freq")
                yield ("fields", i, j, "factors", k, "phase")


# grid sizes past the node limit (the integrals would allocate all
# N_r * N_t^(n-1) nodes) and one past the float range
HUGE_SIZES = ["100000", "10000000000000", "1" + "0" * 400]


def _sweep_file_number(tmp_path, argv, base_doc, where, values, integers):
    """Run argv + [file] once per value, the file being base_doc with the
    number at key path ``where`` replaced; values listed in ``integers`` are
    written as JSON integers, the others as floats (a non-finite one as
    Python's NaN or Infinity literal)."""
    for i, value in enumerate(values):
        doc = json.loads(json.dumps(base_doc))
        *parents, last = where
        target = doc
        for key in parents:
            target = target[key]
        target[last] = int(value) if value in integers else float(value)
        name = "-".join(map(str, where)) + str(i)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        _exit_2_or_finite([*argv, str(path)], tmp_path / f"{name}.out")


def test_grid_config_numbers_on_extreme_values(tmp_path):
    """Every number inside a verify identities --grid file at the extreme
    values, the grid sizes also at huge integers."""
    for where in _grid_number_paths(GRID_DOC):
        values = EXTREME_VALUES + (HUGE_SIZES if where[0].startswith("N_") else [])
        _sweep_file_number(tmp_path, ["verify", "identities", "--grid"], GRID_DOC, where, values, HUGE_SIZES)


def test_grid_spacing_underflow_is_named_on_stderr(tmp_path, capsys):
    """An L whose radial spacing rounds to 0 is refused for that reason,
    not by whatever the zero spacing breaks first."""
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({**GRID_DOC, "L": 5e-324}))
    assert cli.main(["verify", "identities", "--grid", str(path)]) == 2
    assert "radial spacing h = L / (N_r - 1) = 0.0 is not positive" in capsys.readouterr().err


# numeric flags of the suites the sweeps above leave out; each of these
# suites takes at most about 0.05 s at its defaults
SUITE_FLAGS = {
    ("verify", "clifford", "--n", "4"): ("--n", "--samples", "--seed"),
    ("verify", "curvature"): ("--n", "--sigma", "--tol", "--seed"),
    ("verify", "weitzenboeck"): ("--n", "--sigma", "--tol", "--seed"),
    ("verify", "counterexample"): ("--seed",),
    ("verify", "hodge"): ("--twists", "--seed"),
}


@pytest.mark.parametrize("base, flag", [(base, flag) for base, flags in SUITE_FLAGS.items() for flag in flags],
                         ids=lambda v: v if isinstance(v, str) else v[1])
def test_suite_flags_on_extreme_values(tmp_path, capsys, base, flag):
    """Each extreme value on each flag: exit 0, 1 or 2, never an internal
    error; an error writes no report, and a run prints and writes only
    finite margins."""
    for i, value in enumerate(EXTREME_VALUES):
        out = tmp_path / f"{i}.json"
        try:
            code = cli.main([*base, flag, value, "--out", str(out)])
        except SystemExit as exc:
            code = exc.code
        printed = capsys.readouterr().out.split()
        assert code in (0, 1, 2), (flag, value)
        if code == 2:
            assert not out.exists(), (flag, value)
            continue
        margins = [float(word.split("=", 1)[1]) for word in printed if word.startswith("min_margin=")]
        assert margins and all(math.isfinite(m) for m in margins), (flag, value)
        reports = json.loads(out.read_text())["report"]["reports"]
        assert all(isinstance(r["min_margin"], float) for rep in reports for r in rep["regions"]), (flag, value)


# integer fields of band specs and tensor files: a dimension whose dense n^4
# tensor is past MAX_TENSOR_COMPONENTS (191 GiB; was a MemoryError, exit 3),
# a fraction (was truncated to 4 and run) and one past the float range
BIG_INTEGERS = ["400", "1" + "0" * 400]
INTEGER_EXTREMES = BIG_INTEGERS + ["4.5"]
BAND_DOC = {"n": 4, "phi": {"kind": "sin", "scale": 1.0}, "r0": 0.5, "r1": 1.5}
TENSOR_DOC = {"n": 4, "components": [{"i": 1, "j": 2, "k": 1, "l": 2, "v": 1.0},
                                     {"i": 3, "j": 4, "k": 3, "l": 4, "v": 2.0}]}
FILE_NUMBERS = {
    "band": (["verify", "band", "--band"], BAND_DOC, {("n",): True, ("r0",): False, ("r1",): False,
                                                      ("phi", "scale"): False}),
    "tensor": (["verify", "curvature", "--tensor"], TENSOR_DOC,
               {("n",): True, ("components", 0, "v"): False, ("components", 0, "i"): True}),
}


@pytest.mark.parametrize("kind", sorted(FILE_NUMBERS))
def test_band_and_tensor_file_numbers_on_extreme_values(tmp_path, kind):
    """Every listed number inside a band spec or a tensor file at the extreme
    values, its integer fields also at INTEGER_EXTREMES: exit 0, 1 or 2 with
    finite margins, never an internal error."""
    argv, doc, fields = FILE_NUMBERS[kind]
    for where, integer in fields.items():
        values = EXTREME_VALUES + (INTEGER_EXTREMES if integer else [])
        _sweep_file_number(tmp_path, argv, doc, where, values, BIG_INTEGERS)


def test_band_file_that_overflows_while_loading_is_an_input_error(tmp_path, capsys):
    """A band table at the ends of the float range loads its cubic spline
    past the float range.  The loader's overflow is reported as a
    computation that is not finite at these inputs: exit 2, no report."""
    doc = {"n": 4, "r0": -1e308, "r1": 1e308,
           "phi": {"kind": "table", "x": [-1e308, 0, 1e308], "values": [1, 2, 1]}}
    path = tmp_path / "band.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    assert cli.main(["verify", "band", "--band", str(path), "--out", str(out)]) == 2
    assert "the computation is not finite at these inputs" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("v", [1e20, 1e200, -1e200, 1e300])
def test_frame_search_on_a_huge_tensor_is_a_verdict(tmp_path, v):
    """At n = 5 the verdict runs the frame search.  The coordinate frame
    (e3, e4, e1, e5) has isotropic curvature 0, so sigma = 1 fails at every
    v; at 1e20 the search on the unscaled tensor accepted no step and
    passed on its best random start, 1.1e16.  The margins must be finite:
    no square of a frame overflows."""
    doc = {"n": 5, "components": [{"i": 1, "j": 2, "k": 1, "l": 2, "v": v},
                                  {"i": 3, "j": 4, "k": 3, "l": 4, "v": 2.0}]}
    path = tmp_path / "tensor.json"
    path.write_text(json.dumps(doc))
    argv = ["verify", "curvature", "--sigma", "1", "--tensor", str(path)]
    _exit_2_or_finite(argv, tmp_path / "r.json")
    assert not json.loads((tmp_path / "r.json").read_text())["report"]["reports"][0]["pass"]


CIRCLE_DOC = {"dim": 1, "simplices": {"0": [[0], [1], [2]], "1": [[0, 1], [1, 2], [0, 2]]}}
HODGE_ARGV = ["verify", "hodge", "--twists", "3", "--complex"]


def test_hodge_complex_numbers_on_extreme_values(tmp_path):
    """The declared dimension, a vertex label and a label inside an edge of
    a verify hodge --complex file at the extreme values and at
    INTEGER_EXTREMES: exit 0, 1 or 2, never an internal error, and no
    report on exit 2."""
    for where in (("dim",), ("simplices", "0", 0, 0), ("simplices", "1", 0, 1)):
        _sweep_file_number(tmp_path, HODGE_ARGV, CIRCLE_DOC, where, EXTREME_VALUES + INTEGER_EXTREMES, BIG_INTEGERS)


@pytest.mark.parametrize("key", ["1e308", "-1", "nan", "inf", "1.5", "400", "1" + "0" * 400])
def test_hodge_complex_dimension_keys_on_extreme_values(tmp_path, key):
    """A simplex-list key that is no dimension, or a dimension its simplices
    do not have."""
    simplices = dict(CIRCLE_DOC["simplices"])
    simplices[key] = simplices.pop("1")
    path = tmp_path / "complex.json"
    path.write_text(json.dumps({"dim": 1, "simplices": simplices}))
    _exit_2_or_finite([*HODGE_ARGV, str(path)], tmp_path / "r.json")


def test_band_sigma_on_extreme_values(tmp_path):
    for i, value in enumerate(EXTREME_VALUES):
        _exit_2_or_finite(["verify", "band", "--sigma", value], tmp_path / f"{i}.json")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "curvature", "--n", "400"],
        ["verify", "weitzenboeck", "--n", "400"],
        ["verify", "counterexample", "--n", "400"],
        ["verify", "curvature", "--tensor", "{tensor}"],
        ["verify", "band", "--band", "{band}"],
    ],
    ids=["curvature", "weitzenboeck", "counterexample", "tensor-file", "band-spec"],
)
def test_dimension_past_dense_tensor_limit_is_input_error(tmp_path, capsys, argv):
    """n = 400 needs 400^4 components (191 GiB): refused before anything is
    allocated, where it used to end in a MemoryError (exit 3)."""
    files = {"tensor": tmp_path / "tensor.json", "band": tmp_path / "band.json"}
    files["tensor"].write_text(json.dumps({"n": 400, "components": []}))
    files["band"].write_text(json.dumps({**BAND_DOC, "phi": {"kind": "const"}, "n": 400}))
    report = tmp_path / "r.json"
    argv = [arg.format(**files) for arg in argv]
    assert cli.main([*argv, "--out", str(report)]) == 2
    assert "more than MAX_TENSOR_COMPONENTS" in capsys.readouterr().err
    assert not report.exists()


def test_complex_past_the_boundary_budget_is_input_error(tmp_path, capsys):
    """A 1-D cycle of 1,025 vertices needs 1025^2 dense boundary entries, past
    hodge.MAX_BOUNDARY_ENTRIES: verify hodge --complex exits 2 and writes no
    report."""
    m = 1025
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps({"dim": 1, "simplices": {"0": [[v] for v in range(m)],
                                                        "1": [sorted([v, (v + 1) % m]) for v in range(m)]}}))
    report = tmp_path / "r.json"
    assert cli.main(["verify", "hodge", "--complex", str(path), "--out", str(report)]) == 2
    assert "1050625 dense boundary matrix entries, more than MAX_BOUNDARY_ENTRIES" in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize("argv", [["--L", "1e308"], ["--sigma", "1e308"]], ids=["L", "sigma"])
def test_counterexample_infinite_margin_is_input_error(tmp_path, capsys, argv):
    """2L - 2 / sqrt(sigma) and 2 sigma overflow to inf in Python floats:
    --L 1e308 passed with width_margin "inf" (exit 0)."""
    report = tmp_path / "r.json"
    assert cli.main(["verify", "counterexample", *argv, "--out", str(report)]) == 2
    captured = capsys.readouterr()
    assert "is not finite at these inputs" in captured.err and captured.out == ""
    assert not report.exists()


def test_band_spec_dipping_below_zero_between_scan_radii_is_input_error(tmp_path, capsys):
    """The spline of this table reaches phi = -0.0746 near r = 1.504, between
    two of the 64 scan radii; it loaded and --sigma=-1e9 passed (exit 0)."""
    xs = [3.0 * i / 300 for i in range(301)]
    values = [1.0 if x < 1.5 else 0.03 for x in xs]
    spec = {"n": 4, "r0": 0, "r1": 3, "phi": {"kind": "table", "x": xs, "values": values}}
    path = tmp_path / "band.json"
    path.write_text(json.dumps(spec))
    assert cli.main(["verify", "band", "--band", str(path), "--sigma=-1e9"]) == 2
    assert "warping must stay positive on the band, phi = -0.0745" in capsys.readouterr().err


@pytest.mark.parametrize("phi, unread", [
    ({"kind": "table", "scale": 3.0, "x": [0, 1, 2, 3], "values": [1, 1, 1, 1]}, "'scale'"),
    ({"kind": "sin", "x": [0, 1, 2, 3], "values": [1, 1, 1, 1]}, "'values', 'x'"),
], ids=["table-with-scale", "sin-with-table"])
def test_band_spec_key_its_kind_does_not_read_is_input_error(tmp_path, capsys, phi, unread):
    """A table reads kind, x and values; const, sin and linear read kind
    and scale.  The table with scale 3 printed PASS (min_margin=1, exit 0)
    with the scale dropped; at phi = 3 the minimum is 2/9, a FAIL."""
    path, out = tmp_path / "band.json", tmp_path / "r.json"
    path.write_text(json.dumps({"n": 4, "r0": 0.5, "r1": 2.5, "phi": phi}))
    assert cli.main(["verify", "band", "--band", str(path), "--sigma", "1", "--out", str(out)]) == 2
    assert f"not [{unread}]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("r0, r1, scale, sigma", [
    (1.5707963267948966, 3168.2961911453067, 2.0, "1"),
    (0.5, 396.34067435231395, 1.0, "0.5"),
], ids=["sin-2-every-scan-radius-on-a-crest", "sin-1"])
def test_sin_band_changing_sign_is_input_error(tmp_path, capsys, r0, r1, scale, sigma):
    """phi = scale sin r changes sign on these bands, but each of the 64
    radii of the old positivity scan sat where phi > 0: verify band printed
    PASS (exit 0).  phi is least at 3 pi/2, where it is -scale."""
    path, out = tmp_path / "band.json", tmp_path / "r.json"
    path.write_text(json.dumps({"n": 4, "r0": r0, "r1": r1, "phi": {"kind": "sin", "scale": scale}}))
    assert cli.main(["verify", "band", "--band", str(path), "--sigma", sigma, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"warping must stay positive on the band, phi = {-scale:g} at r = 4.71238898038469" in err
    assert not out.exists()


TERM = GRID_DOC["fields"][0][0]


@pytest.mark.parametrize("argv, doc, name", [
    (["verify", "band", "--band"], {**BAND_DOC, "sigma": 5}, "['sigma']"),
    (["verify", "band", "--band"], {**BAND_DOC, "r0": "0.5"}, "r0 must be a number"),
    (["verify", "band", "--band"], {**BAND_DOC, "phi": {"kind": "sin", "scale": True}}, "scale must be a number"),
    (["verify", "band", "--band"], {**BAND_DOC, "phi": {"kind": "table", "x": [0, 1, "2"], "values": [1, 1, 1]}},
     "x must be a number"),
    (["verify", "curvature", "--tensor"], {**TENSOR_DOC, "symmetric": True}, "['symmetric']"),
    (["verify", "curvature", "--tensor"],
     {**TENSOR_DOC, "components": [{**TENSOR_DOC["components"][0], "scale": 100}]}, "['scale']"),
    (["verify", "curvature", "--tensor"],
     {**TENSOR_DOC, "components": [{**TENSOR_DOC["components"][0], "v": "1.5"}]}, "v must be a number"),
    (["verify", "identities", "--grid"], {**GRID_DOC, "Nr": 24}, "['Nr']"),
    (["verify", "identities", "--grid"], {**GRID_DOC, "L": True}, "L must be a number"),
    (["verify", "identities", "--grid"], {**GRID_DOC, "fields": [[{**TERM, "weight": 2}], [TERM]]},
     "['weight']"),
    (["verify", "identities", "--grid"], {**GRID_DOC, "fields": [[{**TERM, "coef": [True, 0]}], [TERM]]},
     "coef must be a number"),
    (["verify", "identities", "--grid"],
     {**GRID_DOC, "fields": [[{**TERM, "factors": [{"axis": 0, "kind": "sin", "freqs": 3}]}], [TERM]]},
     "['freqs']"),
    (["verify", "identities", "--grid"],
     {**GRID_DOC, "fields": [[{**TERM, "factors": [{"axis": 0, "kind": "sin", "phase": "0"}]}], [TERM]]},
     "phase must be a number"),
    (["verify", "hodge", "--complex"], {**CIRCLE_DOC, "orientation": "ccw"}, "['orientation']"),
    (["verify", "curvature", "--tensor"], {**TENSOR_DOC, "components": 0}, "components must be a list, got 0"),
    (["verify", "curvature", "--tensor"], {**TENSOR_DOC, "components": {"a": 1}}, "components must be a list"),
    (["verify", "band", "--band"], {k: v for k, v in BAND_DOC.items() if k != "phi"},
     "a band spec needs the key 'phi'"),
    (["verify", "band", "--band"], {**BAND_DOC, "phi": []}, "phi must be an object, got []"),
    (["verify", "band", "--band"], {**BAND_DOC, "phi": {"kind": "table", "x": {}, "values": [1, 1, 1]}},
     "phi.x must be a list, got {}"),
    (["verify", "identities", "--grid"], {**GRID_DOC, "fields": 7}, "fields must be a list, got 7"),
    (["verify", "identities", "--grid"], {**GRID_DOC, "fields": [[{**TERM, "index": 5}], [TERM]]},
     "fields[0][0].index must be a list, got 5"),
    (["verify", "curvature", "--tensor"],
     {**TENSOR_DOC, "components": [TENSOR_DOC["components"][0], {**TENSOR_DOC["components"][1], "k": 5}]},
     "components[1].k must lie in 1..4, got 5"),
    (["verify", "identities", "--grid"],
     {**GRID_DOC, "fields": [[TERM], [TERM, {**TERM, "factors": [TERM["factors"][0], {"axis": 7}]}]]},
     "fields[1][1].factors[1].axis must lie in 0..2, got 7"),
    (["verify", "identities", "--grid"], {**GRID_DOC, "fields": [[TERM], [{**TERM, "index": [5]}]]},
     "fields[1][0].index must lie in 1..3, got [5]"),
], ids=["band-sigma", "band-r0-string", "band-scale-bool", "band-x-string", "tensor-key", "component-key",
        "component-v-string", "grid-Nr", "grid-L-bool", "term-key", "coef-bool", "factor-freqs", "phase-string",
        "complex-orientation", "components-number", "components-object", "band-no-phi", "phi-list",
        "table-x-object", "fields-number", "index-number", "component-index-range", "factor-axis-range",
        "term-index-range"])
def test_unread_key_or_non_number_in_an_input_file_is_input_error(tmp_path, capsys, argv, doc, name):
    """Every input file holds only keys that are read, and its numbers are
    JSON numbers: each of these files ran to a verdict (exit 0, or 1 for the
    tensors), with the key dropped (a band spec's "sigma" ran at the default
    sigma, a factor's "freqs" at freq 1) or the string or boolean converted
    by float().  An index or axis out of its range names its key path too;
    it was an input error whose message gave only the value ("factor axis 7
    out of range 0..2")."""
    path, out = tmp_path / "in.json", tmp_path / "r.json"
    path.write_text(json.dumps(doc))
    assert cli.main([*argv, str(path), "--out", str(out)]) == 2
    assert name in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, flags", [
    (["verify", "curvature", "--tensor", "{tensor}", "--n", "7"], "--n"),
    (["verify", "weitzenboeck", "--n", "4", "--tensor", "{tensor}"], "--n"),
    (["verify", "identities", "--grid", "{grid}", "--N-r", "24,48,96", "--n", "5"], "--N-r, --n"),
    (["verify", "identities", "--N-t", "5", "--grid", "{grid}"], "--N-t"),
], ids=["curvature", "weitzenboeck", "identities-N-r-n", "identities-N-t"])
def test_flag_that_an_input_file_fixes_is_usage_error(tmp_path, capsys, argv, flags):
    """--n next to --tensor, and --n, --N-t or --N-r next to --grid, ran on
    the file's values and exited 0; the flags are refused in either order,
    also at their default values.  Without a file they still run."""
    files = {"tensor": tmp_path / "tensor.json", "grid": tmp_path / "grid.json"}
    files["tensor"].write_text(json.dumps(TENSOR_DOC))
    files["grid"].write_text(json.dumps(GRID_DOC))
    out = tmp_path / "r.json"
    with pytest.raises(SystemExit) as exc:
        cli.main([*(arg.format(**files) for arg in argv), "--out", str(out)])
    assert exc.value.code == 2
    assert f"{flags}: the input file" in capsys.readouterr().err
    assert not out.exists()
    assert cli.main(["verify", "identities", "--n", "3", "--N-t", "4", "--N-r", "8,12", "--out", str(out)]) in (0, 1)


def test_weitzenboeck_past_two_form_limit_is_input_error(monkeypatch, capsys):
    """--n 38 passes the dense-tensor limit but its two-form blocks would
    hold about 5.7 GB each: refused before they, or the search, are reached."""
    def refuse(*args, **kwargs):
        raise AssertionError("reached an allocation past the limit")

    monkeypatch.setattr(cli.exterior, "two_form_blocks", refuse)
    monkeypatch.setattr(cli.curvature, "min_isotropic", refuse)
    assert cli.main(["verify", "weitzenboeck", "--n", "38"]) == 2
    assert "more than MAX_TWO_FORM_ENTRIES" in capsys.readouterr().err
    assert cli.curvature.MAX_TWO_FORM_ENTRIES >= (16 * 15 // 2) ** 2 * 16**2  # n = 16 still runs


def test_band_has_no_restarts_flag():
    """The band profile searches nothing, so it takes no search effort."""
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "band", "--restarts", "8"])
    assert exc.value.code == 2
    assert "restarts" not in vars(cli.build_parser().parse_args(["verify", "band"]))


@pytest.mark.xfail(strict=True, reason="verify band judges 9 sampled radii, not the whole band")
def test_band_dipping_between_profile_radii_fails(tmp_path):
    """phi = 1 but for 0.996 at the knot 0.5625: the margin is about -3
    near r = 0.5625, between the profile's radii, where it reads 0.320684."""
    xs = [3.0 * i / 32 for i in range(33)]
    values = [0.996 if x == 0.5625 else 1.0 for x in xs]
    path = tmp_path / "band.json"
    path.write_text(json.dumps({"n": 4, "r0": 0, "r1": 3, "phi": {"kind": "table", "x": xs, "values": values}}))
    assert cli.main(["verify", "band", "--band", str(path), "--sigma", "1"]) == 1


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the n = 4 closed form's rounding does not enter its verdict")
def test_exact_curvature_verdict_above_the_true_minimum_fails(tmp_path):
    """The n = 4 tensor _kn_components(a, I) has integer components, a
    Bianchi sum of exactly 0 and isotropic curvature 2 tr a = -14 on every
    frame; the closed form returns -13.999999999999996, which passes sigma
    = -13.999999999999996 at --tol 0."""
    a = np.array([[-2, -1, 2, 0], [-1, -1, -2, -2], [2, -2, -2, -1], [0, -2, -1, -2]], dtype=float)
    path = tmp_path / "tensor.json"
    path.write_text(json.dumps(curvature_to_json(curvature.CurvTensor(curvature._kn_components(a, np.eye(4))))))
    argv = ["verify", "curvature", "--tensor", str(path), "--sigma", "-13.999999999999996", "--tol", "0"]
    assert run_entry(argv)["exit_code"] == 1


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the band closed form's rounding does not enter its verdict")
def test_band_verdict_above_the_exact_bound_fails(tmp_path):
    """A const band with phi = 5 2^-20 has sigma-PIC bound exactly 2 / phi^2,
    which lies 1.83e-6 below sigma = 87960930222.08."""
    path = tmp_path / "band.json"
    path.write_text(json.dumps({"n": 4, "r0": 0, "r1": 1, "phi": {"kind": "const", "scale": 5 * 2.0**-20}}))
    assert run_entry(["verify", "band", "--band", str(path), "--sigma", "87960930222.08"])["exit_code"] == 1


@pytest.mark.parametrize("value", [4.5, True, "4"], ids=["fraction", "boolean", "string"])
@pytest.mark.parametrize("field", ["band-n", "tensor-n", "tensor-index"])
def test_non_integral_file_integer_is_input_error(tmp_path, capsys, field, value):
    """A band spec's or tensor file's n and a component index must be
    integers; 4.5 was truncated to 4 and the run passed (exit 0)."""
    if field == "band-n":
        argv, doc = ["verify", "band", "--band"], {**BAND_DOC, "n": value}
    elif field == "tensor-n":
        argv, doc = ["verify", "curvature", "--sigma", "0", "--tensor"], {**TENSOR_DOC, "n": value}
    else:
        entry = {**TENSOR_DOC["components"][0], "i": value}
        argv, doc = ["verify", "curvature", "--sigma", "0", "--tensor"], {**TENSOR_DOC, "components": [entry]}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    assert cli.main([*argv, str(path)]) == 2
    assert "must be an integer" in capsys.readouterr().err


GRID_INTEGERS = [("n",), ("N_r",), ("N_t",), ("fields", 0, 0, "factors", 0, "axis"), ("fields", 0, 0, "index", 0)]


@pytest.mark.parametrize("value", [1.5, True, "1"], ids=["fraction", "boolean", "string"])
@pytest.mark.parametrize("where", [("dim",), *GRID_INTEGERS], ids=lambda w: "-".join(map(str, w[-2:])))
def test_non_integral_grid_or_complex_integer_is_input_error(tmp_path, capsys, where, value):
    """A complex file's dim and a grid config's n, N_r, N_t, factor axis and
    term index must be integers: "dim": 1.5 and "N_r": 12.5 were truncated
    and passed, "axis": 0.7 was read as axis 0 and an index 1.5 or true ran
    (exit 0)."""
    if where == ("dim",):
        argv, doc = HODGE_ARGV, {**CIRCLE_DOC, "dim": value}
    else:
        argv, doc = ["verify", "identities", "--grid"], json.loads(json.dumps(GRID_DOC))
        *parents, last = where
        target = doc
        for key in parents:
            target = target[key]
        target[last] = value
    path, report = tmp_path / "in.json", tmp_path / "r.json"
    path.write_text(json.dumps(doc))
    assert cli.main([*argv, str(path), "--out", str(report)]) == 2
    assert "must be an integer" in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize("flag, ladder", [("--N-t", "{}"), ("--N-r", "16,32,{}")])
def test_identities_size_flags_on_extreme_values(tmp_path, flag, ladder):
    """--N-t, and the finest size of --N-r, at the extreme values and at
    sizes past the grid node limit: a usage or input error, never exit 3."""
    for i, value in enumerate(EXTREME_VALUES + HUGE_SIZES):
        _exit_2_or_finite(["verify", "identities", flag, ladder.format(value)], tmp_path / f"{i}.json")


@st.composite
def comparison_argv(draw):
    base = draw(st.sampled_from(sorted(COMPARISON_PATHS)))
    pairs = draw(st.lists(st.tuples(st.sampled_from(COMPARISON_PATHS[base]), st.sampled_from(EXTREME_VALUES)),
                          min_size=2, max_size=3))
    return [*base, *(x for pair in pairs for x in pair)]


@settings(max_examples=80, deadline=None)
@given(comparison_argv())
def test_comparison_paths_on_extreme_value_combinations(tmp_path_factory, argv):
    _exit_2_or_finite(argv, tmp_path_factory.mktemp("out") / "out")


@pytest.mark.parametrize("flag", ["--rf", "--L"])
def test_bandwidth_half_width_underflow_is_input_error(tmp_path, capsys, flag):
    """r = min(L, r_f) / 2 is 0 at 5e-324; it used to divide by zero (exit 3)."""
    path = tmp_path / "r.json"
    assert cli.main(["verify", "bandwidth", flag, "5e-324", "--out", str(path)]) == 2
    assert "underflows to 0" in capsys.readouterr().err
    assert not path.exists()


@pytest.mark.parametrize(
    "command",
    [
        ["verify", "bandwidth"],
        ["verify", "focal"],
        ["verify", "identities"],
        ["emit", "csv", "--curve", "focal"],
        ["emit", "csv", "--curve", "barrier"],
    ],
    ids=lambda c: f"{c[0]}-{c[-1]}",
)
def test_dimension_past_float_range_is_input_error(tmp_path, capsys, command):
    """--n 10**400 raised OverflowError (int to float), an internal error (exit 3)."""
    path = tmp_path / "out"
    assert cli.main([*command, "--n", str(10**400), "--out", str(path)]) == 2
    assert "not finite" in capsys.readouterr().err
    assert not path.exists()


def test_tol_only_on_the_suites_that_read_it():
    for suite in sorted(cli.SUITES):
        argv = ["verify", suite, "--tol", "1e-3"]
        if suite in ("curvature", "weitzenboeck"):
            assert cli.build_parser().parse_args(argv).tol == 1e-3
        else:
            with pytest.raises(SystemExit) as exc:
                cli.build_parser().parse_args(argv)
            assert exc.value.code == 2, suite


def test_parser_built_once_keeps_no_state_between_runs(tmp_path, monkeypatch):
    """main reuses one parser; flags given to one run never reach the next."""
    monkeypatch.delenv("PIC_TOOLKIT_SEED", raising=False)
    assert cli.build_parser() is cli.build_parser()
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["verify", "comparison", "--draws", "3", "--seed", "5", "--out", str(first)]) == 0
    assert cli.main(["verify", "comparison", "--out", str(second)]) == 0
    reports = [json.loads(path.read_text())["report"]["reports"][0] for path in (first, second)]
    assert [(r["params"]["draws"], r["details"]["seed"]) for r in reports] == [(3, 5), (20, 0)]


def test_emit_writes_only_csv_curves(tmp_path):
    """No command reads a config, so none writes a config template."""
    path = tmp_path / "cfg.json"
    with pytest.raises(SystemExit) as exc:
        cli.main(["emit", "json", "--suite", "bandwidth", "--out", str(path)])
    assert exc.value.code == 2
    assert not path.exists()


def test_run_suite_in_process(tmp_path):
    assert cli.main(["verify", "comparison", "--draws", "5", "--seed", "1"]) == 0
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "missing"])
    assert exc.value.code == 2


def test_parse_range():
    assert cli._parse_range("4..6") == [4, 5, 6]
    assert cli._parse_range("5") == [5]
    with pytest.raises(argparse.ArgumentTypeError):
        cli._parse_range("8..4")


def test_non_finite_float_flag_is_usage_error():
    entry = run_entry(["verify", "bandwidth", "--sigma", "nan"])
    assert entry["exit_code"] == 2 and "body" not in entry


def test_radial_sizes_must_increase():
    assert run_entry(["verify", "identities", "--N-r", "16,16"])["exit_code"] == 2


def test_band_spec_null_field_is_input_error(tmp_path, capsys):
    spec = {"n": 4, "phi": {"kind": "const"}, "r0": None, "r1": 2.0}
    path = tmp_path / "band.json"
    path.write_text(json.dumps(spec))
    assert run_entry(["verify", "band", "--band", str(path)])["exit_code"] == 2
    assert "input error" in capsys.readouterr().err


# Triangles of a 6 x 4 annulus with shuffled vertex labels on which one
# twist puts a twisted 1-form Laplacian eigenvalue of 1.8e-6 just under the
# relative harmonic cut 2.6e-6; edges and vertices are its faces.
NEAR_CUT_ANNULUS = [
    [0, 4, 6], [0, 6, 18], [0, 18, 19], [1, 7, 8], [1, 7, 17], [1, 8, 9], [1, 9, 20], [1, 17, 22],
    [1, 20, 22], [2, 7, 17], [2, 7, 19], [2, 17, 21], [3, 6, 11], [3, 6, 15], [3, 10, 12],
    [3, 10, 15], [3, 11, 14], [3, 12, 14], [4, 6, 11], [4, 11, 13], [5, 8, 9], [5, 8, 15],
    [5, 10, 15], [6, 15, 18], [7, 8, 18], [7, 18, 19], [8, 15, 18], [11, 13, 16], [11, 14, 16],
    [12, 14, 23], [13, 16, 21], [14, 16, 22], [14, 22, 23], [16, 17, 21], [16, 17, 22], [20, 22, 23],
]


def test_hodge_near_cut_eigenvalue_takes_exact_rank(tmp_path):
    import itertools

    edges = sorted({e for t in NEAR_CUT_ANNULUS for e in itertools.combinations(t, 2)})
    doc = {"dim": 2, "simplices": {"0": [[v] for v in range(24)], "1": [list(e) for e in edges],
                                   "2": NEAR_CUT_ANNULUS}}
    path = tmp_path / "annulus.json"
    path.write_text(json.dumps(doc))
    entry = run_entry(["verify", "hodge", "--complex", str(path), "--twists", "60", "--seed", "704801911"])
    assert entry["exit_code"] == 0, entry["stdout"]
    assert "PASS hodge.custom.absolute.k1" in entry["stdout"]


def test_non_finite_json_constant_is_input_error(tmp_path, capsys):
    doc = {
        "n": 4, "L": 2.0, "N_r": 24, "N_t": 6,
        "fields": [
            [{"index": [1, 2], "coef": [float("nan"), 0.0],
              "factors": [{"axis": 0, "kind": "sin", "freq": 1.3, "phase": 0.4}]}],
            [{"index": [2], "coef": [0.7, 0.2],
              "factors": [{"axis": 0, "kind": "cos", "freq": 0.9, "phase": 0.1}]}],
        ],
    }
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(doc))  # Python's json writes the NaN literal
    entry = run_entry(["verify", "identities", "--grid", str(path)])
    assert entry["exit_code"] == 2 and "body" not in entry
    assert "input error" in capsys.readouterr().err


def test_nan_defect_is_input_error_and_writes_no_report(tmp_path, monkeypatch, capsys):
    """A NaN margin is no verdict: exit 2, as an infinite one is, also where
    the report already failed, and no report file."""
    from types import SimpleNamespace

    monkeypatch.setattr(cli.comparison, "riccati_oracle", lambda model, rho: SimpleNamespace(trace=float("nan")))
    path = tmp_path / "r.json"
    assert cli.main(["verify", "comparison", "--draws", "3", "--out", str(path)]) == 2
    assert "umbilic_equality" in capsys.readouterr().err
    assert not path.exists()


def _subparsers(parser) -> dict:
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_unknown_suite_parameter_is_input_error(capsys):
    # not a prefix of a real flag: argparse would read --draw as --draws
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "comparison", "--samples", "5"])
    assert exc.value.code == 2
    assert "--samples" in capsys.readouterr().err


def test_non_finite_float_and_zero_count_flags_are_usage_errors(tmp_path):
    commands = _subparsers(cli.build_parser())
    parsers = {("verify", suite): sp for suite, sp in _subparsers(commands["verify"]).items()}
    csv_args = ("emit", "csv", "--curve", "barrier", "--out", str(tmp_path / "c.csv"))
    parsers[csv_args] = _subparsers(commands["emit"])["csv"]
    bad = {cli._finite_float: ("nan", "inf", "-inf"), cli._count: ("0",)}
    cases = [[*base, action.option_strings[0], value]
             for base, sp in parsers.items() for action in sp._actions if action.type in bad
             for value in bad[action.type]]
    counts = {argv[-2] for argv in cases if argv[-1] == "0"}
    assert counts == {"--samples", "--draws", "--twists", "--points"}
    for argv in cases:
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2, argv
    assert not (tmp_path / "c.csv").exists()


GRID_TERM = {"index": [1, 2], "coef": [1.0, 0.0],
             "factors": [{"axis": 0, "kind": "sin", "freq": 1.3, "phase": 0.4}]}


@pytest.mark.parametrize("fields", [
    [[dict(GRID_TERM, index=[9])], [GRID_TERM]],
    [[dict(GRID_TERM, coef=[])], [GRID_TERM]],
    [[dict(GRID_TERM, factors=[{"axis": 7, "kind": "sin"}])], [GRID_TERM]],
    "ab",
    [[], [GRID_TERM]],
], ids=["index", "coef", "axis", "fields", "zero"])
def test_malformed_grid_config_is_input_error(tmp_path, capsys, fields):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"n": 4, "L": 2.0, "N_r": 24, "N_t": 6, "fields": fields}))
    report = tmp_path / "r.json"
    assert cli.main(["verify", "identities", "--grid", str(path), "--out", str(report)]) == 2
    assert "input error" in capsys.readouterr().err
    assert not report.exists()


def test_internal_error_exit_code(tmp_path, monkeypatch, capsys):
    def broken(cfg):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setitem(cli.SUITES, "comparison", broken)
    path = tmp_path / "r.json"
    assert cli.main(["verify", "comparison", "--out", str(path)]) == 3
    assert "internal error: ZeroDivisionError: division by zero" in capsys.readouterr().err
    assert not path.exists()


# Number literals past the float range: json reads 1e309 as inf and a
# 400-digit integer as an int that float() cannot convert.
@pytest.mark.parametrize("literal", ["1e309", "-1e309", "1" + "0" * 400], ids=["inf", "-inf", "bigint"])
def test_overflowing_tensor_literal_is_input_error(tmp_path, capsys, literal):
    path = tmp_path / "tensor.json"
    path.write_text('{"n": 4, "components": [{"i": 1, "j": 2, "k": 1, "l": 2, "v": %s}]}' % literal)
    report = tmp_path / "r.json"
    assert cli.main(["verify", "curvature", "--tensor", str(path), "--sigma", "0.5", "--out", str(report)]) == 2
    assert "input error" in capsys.readouterr().err
    assert not report.exists()


def test_overflowing_band_table_value_is_input_error(tmp_path, capsys):
    path = tmp_path / "band.json"
    path.write_text('{"n": 4, "phi": {"kind": "table", "x": [0.0, 1.0, 2.0, 3.0],'
                    ' "values": [1.0, 1e309, 1.0, 1.0]}, "r0": 0.5, "r1": 2.5}')
    assert cli.main(["verify", "band", "--band", str(path), "--sigma", "0.5"]) == 2
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("labels", [(0, 2, 5), (-1, 0, 1)], ids=["gaps", "negative"])
def test_hodge_complex_with_any_vertex_labels(tmp_path, capsys, labels):
    a, b, c = labels
    doc = {"dim": 1, "simplices": {"0": [[a], [b], [c]], "1": [[a, b], [b, c], [a, c]]}}
    path = tmp_path / "circle.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["verify", "hodge", "--complex", str(path), "--twists", "5"]) == 0
    out = capsys.readouterr().out
    assert "PASS hodge.custom.absolute.k0" in out and "PASS hodge.custom.absolute.k1" in out


@pytest.mark.parametrize("kind", ["sin", "const", "linear"])
def test_band_warp_underflowing_phi_squared_is_input_error(tmp_path, capsys, kind):
    path = tmp_path / "band.json"
    path.write_text(json.dumps({"n": 4, "phi": {"kind": kind, "scale": 1e-308}, "r0": 0.1, "r1": 1.0}))
    assert cli.main(["verify", "band", "--band", str(path)]) == 2
    assert "underflows phi^2" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["sin", "linear"])
def test_band_warp_overflowing_sectionals_is_input_error(tmp_path, capsys, kind):
    """phi^2 = inf made the sectionals NaN, reported as an asymmetric
    Kulkarni-Nomizu factor."""
    path = tmp_path / "band.json"
    path.write_text(json.dumps({"n": 4, "phi": {"kind": kind, "scale": 1e300}, "r0": 0.1, "r1": 1.0}))
    assert cli.main(["verify", "band", "--band", str(path)]) == 2
    assert "overflows the sectionals" in capsys.readouterr().err


@pytest.mark.parametrize(
    "simplices, message",
    [
        ({"0": [[0.5], [1], [2]], "1": [[0.5, 1], [1, 2], [0.5, 2]]}, "must be integers"),  # was read as 0
        ({"0": [[True], [1], [2]], "1": [[True, 1], [1, 2], [True, 2]]}, "must be integers"),
        ({"0": [["0"], [1], [2]], "1": [["0", 1], [1, 2], ["0", 2]]}, "must be integers"),
        ({"-1": [[]], "0": [[0], [1]], "1": [[0, 1]]}, "negative dimension"),
        ({}, "no vertices"),  # passed k0 without a single cochain
        ([], "simplices must be an object, got []"),  # exit 3: AttributeError on .items()
        (5, "simplices must be an object, got 5"),
        ({"0": [[2**63]]}, "must be integers in [-2^63, 2^63)"),  # the int64 label array overflowed
    ],
    ids=["fraction", "boolean", "string", "negative-dimension", "empty", "list", "number", "past-int64"],
)
def test_hodge_malformed_complex_is_input_error(tmp_path, capsys, simplices, message):
    path = tmp_path / "complex.json"
    path.write_text(json.dumps({"dim": 1 if simplices else 0, "simplices": simplices}))
    assert cli.main(["verify", "hodge", "--complex", str(path), "--twists", "3"]) == 2
    assert message in capsys.readouterr().err


# One leaf or key of a golden input file changed at a time: each node takes
# each of these values, each key is deleted and each object gains an unread key.
FUZZ_VALUES = [0, -1, 1e308, -1e308, 5e-324, 1e-300, 0.5, 3, 10**400, 2**63, True, None, "x", [], {}, [1.5]]
FUZZ_RUNS_PER_ENTRY = 16


def _fuzz_changes(node, path=()):
    """(path, change) of every single change to node: ("set", value),
    ("delete", None) at a key's path, or ("add", None) at an object's."""
    if isinstance(node, dict):
        yield path, ("add", None)
        for key, item in node.items():
            yield (*path, key), ("delete", None)
            yield from _fuzz_changes(item, (*path, key))
    elif isinstance(node, list):
        for i, item in enumerate(node):
            yield from _fuzz_changes(item, (*path, i))
    if path:
        yield from ((path, ("set", value)) for value in FUZZ_VALUES)


def _fuzz_kind(value) -> str:
    return {bool: "bool", type(None): "null", str: "string", list: "list", dict: "object"}.get(type(value), "number")


def _key_path(path) -> str:
    """The path up to its last key, as an input error names it: ('fields', 0, 0, 'coef', 1) -> fields[0][0].coef."""
    while path and isinstance(path[-1], int):
        path = path[:-1]
    return "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path).lstrip(".")


def test_changed_golden_input_exits_0_1_or_2_naming_the_key(tmp_path, capsys):
    """A seeded sample of single changes to the golden input files, the same
    number run under each golden command line that reads one.  A run passes (0),
    fails a check with a FAIL line (1) or is an input error without a
    traceback (2), whose message names the key path when the change was to a
    type or a key.  A complex file whose "simplices" was not an object
    exited 3 with an AttributeError."""
    rng, runs = random.Random(0), []
    for argv in ENTRIES.values():
        for rel in (arg for arg in argv if arg.startswith("inputs/")):
            with open(os.path.join(HERE, rel)) as fh:
                doc = json.load(fh)
            runs += [(argv, rel, doc, *change) for change in rng.sample(list(_fuzz_changes(doc)), FUZZ_RUNS_PER_ENTRY)]
    for argv, rel, doc, path, (op, value) in runs:
        changed = json.loads(json.dumps(doc))
        node = changed
        for p in path[:-1] if op != "add" else path:
            node = node[p]
        if op == "add":
            node["unread"] = 0
        elif op == "delete":
            del node[path[-1]]
        else:
            original, node[path[-1]] = node[path[-1]], value
        file = tmp_path / os.path.basename(rel)
        file.write_text(json.dumps(changed))
        entry = run_entry([str(file) if arg == rel else arg for arg in argv])
        err = capsys.readouterr().err
        where = f"{argv} with {op} {value!r} at {path}: {err}"
        assert entry["exit_code"] in (0, 1, 2), where
        assert entry["exit_code"] != 1 or "FAIL" in entry["stdout"], where
        if entry["exit_code"] == 2:
            assert "Traceback" not in err, where
            if op == "add":
                assert _key_path(path) in err and "['unread']" in err, where
            elif op == "delete":
                assert _key_path(path[:-1]) in err and str(path[-1]) in err, where
            elif _fuzz_kind(value) != _fuzz_kind(original):
                assert _key_path(path) in err, where


def test_identities_order_is_judged_on_the_finest_pair(tmp_path):
    """At this seed green_laplace converges at order 2 (2.08 on the finest
    pair) but its coarse pair is still pre-asymptotic (2.34)."""
    path = tmp_path / "identities.json"
    assert cli.main(["verify", "identities", "--seed", "1388677487", "--out", str(path)]) == 0
    reports = {r["check"]: r for r in json.loads(path.read_text())["report"]["reports"]}
    laplace = reports["identities.green_laplace"]
    coarse, finest = laplace["details"]["orders"]
    assert abs(coarse - 2.0) > 0.3 >= abs(finest - 2.0)
    assert laplace["regions"][0]["min_margin"] == 0.3 - abs(finest - 2.0)
