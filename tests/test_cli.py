import argparse
import csv
import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from picband import cli
from picband.reporting import canonical_body


def run_cli(args, env=None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "picband.cli", *args],
        capture_output=True,
        text=True,
        env=full_env,
    )


def test_verify_clifford_passes():
    out = run_cli(["verify", "clifford", "--n", "4..5", "--samples", "10"])
    assert out.returncode == 0
    assert "PASS clifford.relations.n4" in out.stdout


def test_verify_failure_exit_code():
    # sigma above the product minimum: stochastic search finds a counter-frame
    out = run_cli(["verify", "curvature", "--sigma", "2.5"])
    assert out.returncode == 1
    assert "FAIL" in out.stdout


def test_usage_error_exit_code():
    out = run_cli(["verify", "nonsense"])
    assert out.returncode == 2


def test_input_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = run_cli(["verify", "weitzenboeck", "--tensor", str(bad)])
    assert out.returncode == 2
    assert "input error" in out.stderr


def test_reports_byte_identical(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    for p in (p1, p2):
        out = run_cli(["verify", "counterexample", "--out", str(p)])
        assert out.returncode == 0
    b1 = json.loads(p1.read_text())
    b2 = json.loads(p2.read_text())
    assert canonical_body(b1) == canonical_body(b2)
    assert "timestamp" in b1["metadata"]


def test_env_seed_override(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    run_cli(["verify", "curvature", "--seed", "3", "--out", str(p1)])
    run_cli(["verify", "curvature", "--seed", "5", "--out", str(p2)], env={"PIC_TOOLKIT_SEED": "3"})
    assert canonical_body(json.loads(p1.read_text())) == canonical_body(json.loads(p2.read_text()))


def test_verify_focal_cli(tmp_path):
    out_json = tmp_path / "focal.json"
    out = run_cli([
        "verify", "focal", "--n", "4", "--sigma", "1", "--lambda", "5",
        "--lambda-bar", "100", "--rf", "18.01", "--out", str(out_json),
    ])
    assert out.returncode == 0
    bundle = json.loads(out_json.read_text())
    checks = {r["check"] for r in bundle["report"]["reports"]}
    assert {"focal.regularity", "focal.boundary", "focal.inequality.N", "focal.inequality.D"} <= checks
    assert (tmp_path / "focal_margins.csv").exists()


def test_verify_weitzenboeck_with_tensor_file(tmp_path):
    import numpy as np

    from picband import curvature as C

    R = C.constant_curvature(4, 1.0)
    path = tmp_path / "tensor.json"
    path.write_text(json.dumps(C.curvature_to_json(R)))
    out = run_cli(["verify", "weitzenboeck", "--tensor", str(path), "--sigma", "4"])
    assert out.returncode == 0
    assert "weitzenboeck.lower_bound" in out.stdout


def test_verify_hodge_custom_complex(tmp_path):
    from picband import hodge as H

    doc = H.complex_to_json(H.load_bundled("annulus"))
    path = tmp_path / "annulus.json"
    path.write_text(json.dumps(doc))
    out = run_cli(["verify", "hodge", "--complex", str(path), "--twists", "3"])
    assert out.returncode == 0


def test_verify_band_with_spec(tmp_path):
    spec = {"n": 4, "phi": {"kind": "const"}, "r0": 0.0, "r1": 2.0}
    path = tmp_path / "band.json"
    path.write_text(json.dumps(spec))
    out = run_cli(["verify", "band", "--band", str(path), "--sigma", "1.0"])
    assert out.returncode == 0


def test_verify_identities_grid_config(tmp_path):
    doc = {
        "n": 4, "L": 2.0, "N_r": 32, "N_t": 6,
        "fields": [
            [{"index": [1, 2], "coef": [1.0, 0.0],
              "factors": [{"axis": 0, "kind": "sin", "freq": 1.3, "phase": 0.4},
                          {"axis": 1, "kind": "cos", "freq": 1, "phase": 0.3}]}],
            [{"index": [2], "coef": [0.7, 0.2],
              "factors": [{"axis": 0, "kind": "cos", "freq": 0.9, "phase": 0.1},
                          {"axis": 1, "kind": "cos", "freq": 1, "phase": 0.3}]},
             {"index": [1, 2, 3], "coef": [0.4, -0.1],
              "factors": [{"axis": 0, "kind": "sin", "freq": 1.7, "phase": 0.9},
                          {"axis": 1, "kind": "cos", "freq": 1, "phase": 0.3}]}],
        ],
    }
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(doc))
    out = run_cli(["verify", "identities", "--grid", str(path)])
    assert out.returncode == 0
    assert "identities.green_dirac.config" in out.stdout


def test_emit_barrier_csv(tmp_path):
    path = tmp_path / "barrier.csv"
    out = run_cli(["emit", "csv", "--curve", "barrier", "--n", "3", "--K", "1.0",
                   "--Lambda", "1.0", "--points", "16", "--out", str(path)])
    assert out.returncode == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "rho,barrier,oracle,margin"
    assert len(lines) == 17


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
}


def _exit_2_or_finite(argv, out):
    """Run argv in process: a usage or input error (exit 2) writes nothing,
    a run (exit 0) writes only finite numbers; anything else is a defect.
    verify bandwidth and verify identities may also fail (exit 1): --Lambda
    1e308 or --sigma 1e-308 give a finite negative margin, and a grid
    file's residual may exceed its bound; the margins must be finite."""
    try:
        code = cli.main([*argv, "--out", str(out)])
    except SystemExit as exc:
        code = exc.code
    may_fail = argv[:2] in (["verify", "bandwidth"], ["verify", "identities"])
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
    """comparison, barrier, focal (the emitted curve), verify-focal and verify-bandwidth."""
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
    """Key paths of L, of each coef part and of each factor's freq and
    phase.  N_r and N_t stay small: the integrals allocate all
    N_r * N_t^(n-1) nodes."""
    yield ("L",)
    for i, spec in enumerate(doc["fields"]):
        for j, term in enumerate(spec):
            for part in range(len(term["coef"])):
                yield ("fields", i, j, "coef", part)
            for k in range(len(term["factors"])):
                yield ("fields", i, j, "factors", k, "freq")
                yield ("fields", i, j, "factors", k, "phase")


def test_grid_config_numbers_on_extreme_values(tmp_path):
    """Every number inside a verify identities --grid file at the extreme
    values; a non-finite one is written as Python's NaN or Infinity literal."""
    for where in _grid_number_paths(GRID_DOC):
        for value in EXTREME_VALUES:
            doc = json.loads(json.dumps(GRID_DOC))
            *parents, last = where
            target = doc
            for key in parents:
                target = target[key]
            target[last] = float(value)
            name = "-".join(map(str, where)) + value
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(doc))
            _exit_2_or_finite(["verify", "identities", "--grid", str(path)], tmp_path / f"{name}.out")


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


def test_tol_only_on_the_suites_that_read_it(tmp_path):
    for suite in sorted(cli.SUITES):
        argv = ["verify", suite, "--tol", "1e-3"]
        if suite in ("curvature", "weitzenboeck"):
            assert cli.build_parser().parse_args(argv).tol == 1e-3
        else:
            with pytest.raises(SystemExit) as exc:
                cli.build_parser().parse_args(argv)
            assert exc.value.code == 2, suite
        path = tmp_path / f"{suite}.json"
        assert cli.main(["emit", "json", "--suite", suite, "--out", str(path)]) == 0
        assert ("tol" in json.loads(path.read_text())) == (suite in ("curvature", "weitzenboeck"))


def test_emit_config_template(tmp_path):
    path = tmp_path / "cfg.json"
    out = run_cli(["emit", "json", "--suite", "bandwidth", "--out", str(path)])
    assert out.returncode == 0
    assert json.loads(path.read_text())["suite"] == "bandwidth"


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


def test_non_finite_float_flag_is_usage_error(tmp_path):
    path = tmp_path / "r.json"
    out = run_cli(["verify", "bandwidth", "--sigma", "nan", "--out", str(path)])
    assert out.returncode == 2
    assert not path.exists()


def test_radial_sizes_must_increase():
    out = run_cli(["verify", "identities", "--N-r", "16,16"])
    assert out.returncode == 2


def test_band_spec_null_field_is_input_error(tmp_path):
    spec = {"n": 4, "phi": {"kind": "const"}, "r0": None, "r1": 2.0}
    path = tmp_path / "band.json"
    path.write_text(json.dumps(spec))
    out = run_cli(["verify", "band", "--band", str(path)])
    assert out.returncode == 2
    assert "input error" in out.stderr


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
    out = run_cli(["verify", "hodge", "--complex", str(path), "--twists", "60", "--seed", "704801911"])
    assert out.returncode == 0, out.stdout
    assert "PASS hodge.custom.absolute.k1" in out.stdout


def test_non_finite_json_constant_is_input_error(tmp_path):
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
    report = tmp_path / "r.json"
    out = run_cli(["verify", "identities", "--grid", str(path), "--out", str(report)])
    assert out.returncode == 2
    assert "input error" in out.stderr
    assert not report.exists()


def test_nan_defect_fails_and_report_stays_strict_json(tmp_path, monkeypatch):
    from types import SimpleNamespace

    monkeypatch.setattr(cli.comparison, "riccati_oracle", lambda model, rho: SimpleNamespace(trace=float("nan")))
    path = tmp_path / "r.json"
    assert cli.main(["verify", "comparison", "--draws", "3", "--out", str(path)]) == 1

    def reject(name):
        raise ValueError(name)

    bundle = json.loads(path.read_text(), parse_constant=reject)
    umbilic = next(r for r in bundle["report"]["reports"] if r["check"] == "comparison.umbilic_equality")
    assert umbilic["pass"] is False
    assert umbilic["regions"][0]["min_margin"] == "nan"


def _subparsers(parser) -> dict:
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _parser_defaults(suite: str) -> dict:
    args = vars(cli.build_parser().parse_args(["verify", suite]))
    return {k: v for k, v in args.items() if k not in ("command", "suite", "seed", "tol", "out")}


@pytest.mark.parametrize("suite", sorted(cli.SUITES))
def test_emit_json_lists_every_parameter_default(tmp_path, suite):
    path = tmp_path / "cfg.json"
    assert cli.main(["emit", "json", "--suite", suite, "--out", str(path)]) == 0
    params = json.loads(path.read_text())["params"]
    assert params and params == _parser_defaults(suite)


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
    assert counts == {"--samples", "--draws", "--twists", "--restarts", "--points"}
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
    ],
    ids=["fraction", "boolean", "string", "negative-dimension", "empty"],
)
def test_hodge_malformed_complex_is_input_error(tmp_path, capsys, simplices, message):
    path = tmp_path / "complex.json"
    path.write_text(json.dumps({"dim": 1 if simplices else 0, "simplices": simplices}))
    assert cli.main(["verify", "hodge", "--complex", str(path), "--twists", "3"]) == 2
    assert message in capsys.readouterr().err


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
