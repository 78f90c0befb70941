"""Rewrite the golden report corpus from the source tree on the path.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py               # every entry
    PYTHONPATH=src python tests/golden/regenerate.py NAME [NAME ...]
    PYTHONPATH=src python tests/golden/regenerate.py --check [NAME ...]

It rewrites only the named entries, or all when none is named, and prints
for each one it rewrites whether its exit code, its standard output or any
report's ``pass`` moved, and the largest relative change of a float in its
report body or CSV cells.  With ``--check`` it prints the same line for
each entry and writes nothing.

Each entry is one ``pic-verify`` command line run in process through
``cli.main``.  Input files live under ``tests/golden/inputs/``, and an
entry names them by paths relative to ``tests/golden/``, so what it
records does not depend on where the repository is checked out.  Its file
``<name>.json`` holds the argv (without ``--out``),
the exit code, the standard output and what the command wrote: the
canonical report body of a ``verify`` run, or the text of an ``emit csv``
file.  Each entry runs in an empty working directory, and writing any
file there besides its ``--out`` file fails it.  ``tests/test_golden.py``
reruns every entry and compares.  A regenerated entry whose verdict or
exit code moved is a behaviour change, not a refresh: explain every
changed entry where the change is recorded.  ``EXIT_CODES`` lists the
command lines whose exit code alone is pinned; this script does not run
them.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))

ENTRIES = {
    **{f"comparison-seed{seed}": ["verify", "comparison", "--seed", str(seed)] for seed in range(6)},
    **{f"comparison-draws40-seed{seed}": ["verify", "comparison", "--draws", "40", "--seed", str(seed)]
       for seed in range(4)},
    "csv-barrier": ["emit", "csv", "--curve", "barrier"],
    "csv-barrier-K0.5-Lambda1.5": ["emit", "csv", "--curve", "barrier", "--K", "0.5", "--Lambda", "1.5",
                                   "--points", "24"],
    "csv-focal": ["emit", "csv", "--curve", "focal"],
    "csv-barrier-K0-Lambda2": ["emit", "csv", "--curve", "barrier", "--K", "0", "--Lambda", "2",
                               "--n", "6", "--rho-max", "3"],
    "identities": ["verify", "identities"],
    "identities-n3": ["verify", "identities", "--n", "3"],
    "identities-n5": ["verify", "identities", "--n", "5", "--N-t", "5", "--N-r", "12,16,20"],
    "identities-Nr24-48-96": ["verify", "identities", "--N-r", "24,48,96"],
    **{f"{suite}{name}": ["verify", suite, *flags] for suite in ("curvature", "weitzenboeck")
       for name, flags in (("", []), ("-n6", ["--n", "6"]), ("-n6-sigma0", ["--n", "6", "--sigma", "0"]))},
    **{suite: ["verify", suite] for suite in ("bandwidth", "focal", "hodge", "band", "counterexample")},
    # the kinds of input file the benchmark's cli-sweep generates
    **{f"band-{kind}": ["verify", "band", "--band", f"inputs/band-{kind}.json"] for kind in ("sin", "table")},
    **{f"{suite}-tensor": ["verify", suite, "--tensor", "inputs/tensor4.json"]
       for suite in ("curvature", "weitzenboeck")},
    **{f"hodge-{name}": ["verify", "hodge", "--complex", f"inputs/{name}.json"] for name in ("annulus", "torus")},
    "identities-grid": ["verify", "identities", "--grid", "inputs/grid.json"],
    "curvature-n8": ["verify", "curvature", "--n", "8"],
    "weitzenboeck-n16-sigma0": ["verify", "weitzenboeck", "--n", "16", "--sigma", "0"],
    "counterexample-n5": ["verify", "counterexample", "--n", "5"],
    "comparison-draws200-seed1": ["verify", "comparison", "--draws", "200", "--seed", "1"],
    "focal-rf1e306": ["verify", "focal", "--rf", "1e306"],
    **{f"hodge{name}-twists1000-seed1": ["verify", "hodge", *flags, "--twists", "1000", "--seed", "1"]
       for name, flags in (("", []), ("-torus", ["--complex", "inputs/torus.json"]))},
    # the n = 5 tensor with R_1212 = v and R_3434 = 2, whose coordinate frame
    # (e1, e2, e3, e4) has isotropic curvature 0: sigma = 1 fails at any v
    **{f"curvature-tensor5-{v}": ["verify", "curvature", "--tensor", f"inputs/tensor5-{v}.json", "--sigma", "1"]
       for v in ("1e20", "1e200")},
    # the round S^6 (every sectional 1), on which the Ky Fan bound 4 is sharp
    **{f"curvature-sphere6-sigma{sigma}": ["verify", "curvature", "--tensor", "inputs/sphere6.json",
                                           "--sigma", sigma] for sigma in ("4", "4.1")},
    # S^5 x R pulled back by the rotation Q of default_rng(6)'s 6 x 6 normal draw (the QR
    # factor with a positive diagonal): minimum 2, Ky Fan bound 0, best coordinate frame
    # 2.147, best of 512 random starts 2.0047, so only the descent finds the minimum
    "curvature-sphere6-rotated": ["verify", "curvature", "--tensor", "inputs/sphere6-rotated.json",
                                  "--sigma", "2.0005"],
}

# Command lines whose exit code is all a test can pin (tests/test_cli.py);
# ENTRIES holds those whose output it can pin.  verify clifford's
# max_defect is sampling rounding, about 3e-15.
EXIT_CODES = [
    (["verify", "clifford"], 0),
    (["verify", "nonsense"], 2),
]


def run_entry(argv: list[str]) -> dict:
    """Run one command line in process, with an empty working directory
    that it must leave holding at most its --out file; returns its exit
    code (argparse's for a usage error), standard output and output: the
    canonical report body (verify) or CSV text (emit)."""
    from picband import cli

    name = "out.csv" if argv[0] == "emit" else "out.json"
    paths = [os.path.join(HERE, arg) if arg.startswith("inputs/") else arg for arg in argv]
    sink = io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        out_path = os.path.join(workdir, name)
        os.chdir(workdir)
        try:
            with contextlib.redirect_stdout(sink):
                code = cli.main([*paths, "--out", out_path])
        except SystemExit as exc:
            code = exc.code
        finally:
            os.chdir(cwd)
        stray = sorted(set(os.listdir(workdir)) - {name})
        assert not stray, f"{argv} wrote {stray} besides its --out file"
        entry = {"argv": argv, "exit_code": code, "stdout": sink.getvalue()}
        if os.path.exists(out_path):
            with open(out_path) as fh:
                if argv[0] == "verify":
                    entry["body"] = json.load(fh)["report"]  # the body without its timestamp
                else:
                    entry["csv"] = fh.read()
    return entry


def _floats(entry: dict) -> list[float]:
    """The floats of an entry's report body, or its CSV cells, in order."""
    if "csv" in entry:
        return [float(cell) for line in entry["csv"].splitlines()[1:] for cell in line.split(",")]
    found = []

    def walk(obj):
        if isinstance(obj, float):
            found.append(obj)
        elif isinstance(obj, dict):
            for key in sorted(obj):
                walk(obj[key])
        elif isinstance(obj, list):
            for item in obj:
                walk(item)

    walk(entry.get("body"))
    return found


def _passes(entry: dict) -> list:
    return [report["pass"] for report in entry.get("body", {}).get("reports", [])]


def movement(old: dict, new: dict) -> str:
    """What moved from the recorded entry old to new: the exit code,
    standard output and passes, and the largest relative float change."""
    moved = [what for what, same in (("exit code", old["exit_code"] == new["exit_code"]),
                                     ("stdout", old["stdout"] == new["stdout"]),
                                     ("pass", _passes(old) == _passes(new))) if not same]
    a, b = _floats(old), _floats(new)
    if len(a) != len(b):
        return f"moved: {', '.join(moved + ['float count'])}"
    rel = max((abs(x - y) / max(abs(x), abs(y)) for x, y in zip(a, b) if x != y), default=0.0)
    return f"moved: {', '.join(moved) or 'none'}; largest relative float change {rel:.3g}"


def main(names: list[str], check: bool = False) -> None:
    unknown = sorted(set(names) - set(ENTRIES))
    if unknown:
        sys.exit(f"no such entry: {', '.join(unknown)}")
    for name in names or ENTRIES:
        path = os.path.join(HERE, f"{name}.json")
        old = None
        if os.path.exists(path):
            with open(path) as fh:
                old = json.load(fh)
        new = run_entry(ENTRIES[name])
        if not check:
            with open(path, "w") as fh:
                json.dump(new, fh, indent=1, sort_keys=True)
                fh.write("\n")
        print(f"{name}: {'new entry' if old is None else movement(old, new)}", file=sys.stderr)


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description="Rewrite the golden report corpus, or check what would move.")
    ap.add_argument("--check", action="store_true", help="print what would move and write nothing")
    ap.add_argument("names", nargs="*", metavar="NAME", help="entries to run (default: every entry)")
    args = ap.parse_args()
    main(args.names, check=args.check)
