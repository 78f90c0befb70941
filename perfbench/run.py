"""picband benchmark: seeded workloads, oracle-checked, end to end or traced.

Run from the repository root:

    python3 perfbench/run.py                          # all workloads, untraced
    python3 perfbench/run.py --workload frame-search --seed 3 --seconds 20
    python3 perfbench/run.py --workload algebra --trace 1

Untraced runs report the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics.  Which metrics, and their units, is read from
BENCHMARK.json at the repository root.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import os
import sys

BLAS_THREADS = 1  # tiny matrices; one thread keeps timings steady on shared cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
os.environ.pop("PIC_TOOLKIT_SEED", None)  # the CLI would let it override every seed

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path[:0] = [str(ROOT), str(SRC)]

SETUP_PROBES = 9
SETUP_SPEED_SAMPLES = 4  # per probe, after its timed part
TELESCOPE_TOL_S = 1e-6  # rounding allowance when self times are summed back up


def listed_metrics(kind: str) -> dict:
    """{name: unit} of the ``end_to_end`` or ``per_layer`` list of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def workdir():
    """Scratch directory inside the checkout, removed on exit."""
    return tempfile.TemporaryDirectory(prefix=".work-", dir=ROOT / "perfbench")


# -- machine facts ----------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas():
    """(version string, threads in use) from the OpenBLAS numpy loaded."""
    import numpy as np
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
            get_threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
            if get_threads and get_config:
                get_threads.restype, get_config.restype = ctypes.c_int, ctypes.c_char_p
                return get_config().decode(), get_threads()
    try:
        version = np.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
    except (AttributeError, KeyError):
        version = "unknown"
    return version, None


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_facts(seed: int) -> dict:
    import numpy as np
    blas, threads = _openblas()
    return {
        "nproc": os.cpu_count(), "cpu": _cpu_model(), "python": platform.python_version(),
        "numpy": np.__version__, "openblas": blas,
        "blas_threads": threads if threads is not None else f"{BLAS_THREADS} (requested)",
        "git_commit": _git_commit(), "seed": seed,
    }


# -- running jobs -----------------------------------------------------------------


class Record:
    __slots__ = ("name", "seconds", "error")

    def __init__(self, name, seconds, error):
        self.name, self.seconds, self.error = name, seconds, error


def run_job(job) -> Record:
    t0 = time.perf_counter()
    try:
        out = job.run()
    except Exception as exc:  # a raising job is a failed job, counted and listed
        return Record(job.name, time.perf_counter() - t0, f"raised {type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - t0
    try:
        error = job.check(out)
    except Exception as exc:
        error = f"check raised {type(exc).__name__}: {exc}"
    return Record(job.name, seconds, error)


def measure(workload, passes: int, tracer=None):
    """Run ``passes`` whole passes of the workload's job list, traced when a
    tracer is given (inputs are generated outside the traced spans).
    Returns the job records and the speed samples taken between jobs."""
    from perfbench import speed
    from perfbench.trace import install
    records, samples = [], []
    for _ in range(passes):
        jobs = workload.next_pass()
        restore = install(tracer) if tracer is not None else None
        try:
            for job in jobs:
                samples.append(speed.sample())
                records.append(run_job(job))
        finally:
            if restore is not None:
                restore()
    samples.append(speed.sample())
    return records, samples


def setup_probe(name: str, seed: int) -> int:
    """Body of one set-up measurement, in a fresh interpreter: import picband,
    generate the seeded inputs and run one warm-up job.  Then it takes speed
    samples on its own core and prints them, with the time they took, as
    JSON."""
    from perfbench import speed
    from perfbench.workloads import WORKLOADS
    with workdir() as d:
        record = run_job(WORKLOADS[name](seed, d).next_pass()[0])
    if record.error:
        print(f"warm-up job {record.name} failed: {record.error}", file=sys.stderr)
        return 1
    t0 = time.perf_counter()
    samples = [speed.sample() for _ in range(SETUP_SPEED_SAMPLES)]
    print(json.dumps({"samples": samples, "sampling_s": time.perf_counter() - t0}))
    return 0


def setup_seconds(name: str, seed: int):
    """Wall times of SETUP_PROBES set-up probes, less their own speed
    sampling, and each probe's speed samples."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", name, "--seed", str(seed)]
    times, samples = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append(wall - probe["sampling_s"])
        samples.append(probe["samples"])
    return times, samples


# -- workload runs ----------------------------------------------------------------


def _failures(records) -> list[str]:
    return [f"{r.name}: {r.error}" for r in records if r.error]


def untraced_run(name: str, seed: int, seconds: float):
    from perfbench import speed, stats
    from perfbench.workloads import WORKLOADS, passes
    cls = WORKLOADS[name]
    setups, setup_samples = setup_seconds(name, seed)
    with workdir() as d:
        run_job(cls(seed, d).next_pass()[0])  # warm-up: first-use costs stay out of the timings
        records, samples = measure(cls(seed, d), passes(cls, seconds))
    wall = [r.seconds for r in records]
    n = len(wall)
    durations = speed.reference_seconds(wall, samples)
    setup_ref = [t / speed.slowness(probe) for t, probe in zip(setups, setup_samples)]
    tail, wall_tail = stats.tail(durations), stats.tail(wall)
    if tail is None:
        raise RuntimeError(f"{name}: {n} jobs, fewer than {stats.TAIL_MIN_SAMPLES} for the tail rule")
    metrics = {
        "jobs_per_s": n / sum(durations),
        "job_p50_s": statistics.median(durations),
        "job_tail_s": tail[0],
        "setup_s": statistics.median(setup_ref),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "jobs_per_s": f"{n} jobs in {sum(durations):.3f} reference s; as timed {n / sum(wall):.6g} "
                      f"({sum(wall):.3f} s of job wall time)",
        "job_p50_s": f"median of {n} jobs; as timed {statistics.median(wall):.6g}",
        "job_tail_s": f"p{tail[1]:.1f} of {n} jobs, {stats.TAIL_BEYOND} beyond it; as timed {wall_tail[0]:.6g}",
        "setup_s": f"median of {len(setups)} fresh interpreters; as timed "
                   + ", ".join(f"{t:.3f}" for t in setups),
        "peak_rss_mb": "peak resident set of this workload's process",
    }
    units = listed_metrics("end_to_end")
    failed = _failures(records)
    all_setup = [x for probe in setup_samples for x in probe]
    lines = [f"{name}  slowness (speed sample mean over {speed.REF_SECONDS} s): {speed.slowness(samples):.4f} "
             f"over {len(samples)} samples between jobs, {speed.slowness(all_setup):.4f} over "
             f"{len(all_setup)} in the set-up probes; times below are in reference seconds"]
    lines += [f"{name}  {key:<12} {metrics[key]:.6g} {unit}  ({notes[key]})" for key, unit in units.items()]
    lines.append(f"{name}  fail_ratio   {len(failed)}/{n} = {len(failed) / n:.6g}")
    return {key: metrics[key] for key in units}, units, n, failed, lines


def traced_run(name: str, seed: int, seconds: float):
    from perfbench import oracles, speed
    from perfbench.trace import LAYERS, Tracer
    from perfbench.workloads import WORKLOADS, passes
    cls = WORKLOADS[name]
    tracer = Tracer()
    searches, written = [], []
    tracer.hooks["curvature.min_isotropic"] = lambda a, k, res: searches.append(((a[0] if a else k["R"]).R, res[0]))
    size_of = lambda a, k, res: written.append(os.path.getsize(a[0] if a else k["path"]))
    tracer.hooks["reporting.dump_reports"] = tracer.hooks["reporting.write_csv"] = size_of
    with workdir() as d:
        run_job(cls(seed, d).next_pass()[0])
        # the traced replay runs exactly the jobs of the untraced run
        plain, plain_samples = measure(cls(seed, d), passes(cls, seconds))
        traced, traced_samples = measure(cls(seed, d), passes(cls, seconds), tracer=tracer)
    plain_wall = sum(r.seconds for r in plain)
    wall = sum(r.seconds for r in traced)
    # the overhead compares reference seconds, so a drift in machine speed
    # between the two halves does not show as tracing cost
    overhead = (sum(speed.reference_seconds([r.seconds for r in traced], traced_samples))
                / sum(speed.reference_seconds([r.seconds for r in plain], plain_samples)))
    layer = tracer.layer_self_s()
    failed = _failures(plain) + _failures(traced)
    if tracer.telescoping_error() > TELESCOPE_TOL_S or tracer.top_s > wall:
        failed.append(f"trace: self times {sum(layer.values()):.6f} s + hook time {tracer.excluded_s:.6f} s "
                      f"vs outermost spans {tracer.top_s:.6f} s within traced wall {wall:.6f} s")

    fallbacks = tracer.edges["hodge.harmonic_dimension", "hodge.exact_rank"]
    special = {"trace_overhead_ratio": overhead, "traced_wall_s": wall, "reporting.bytes_written": sum(written)}

    def value(metric):
        if metric in special:
            return special[metric]
        key, _, kind = metric.rpartition(".")
        if kind == "share" and key in LAYERS:
            return layer[key] / wall
        if key not in tracer.wrapped:
            raise KeyError(f"per-layer metric {metric}: {key} is not a traced function")
        return {"calls": tracer.calls[key], "share": tracer.self_s[key] / wall}[kind]

    units = listed_metrics("per_layer")
    metrics = {metric: value(metric) for metric in units}

    n4 = [(R, v) for R, v in searches if R.shape[0] == 4]
    exact = sum(abs(v - oracles.closed_form_min4(R)) <= 1e-6 for R, v in n4)
    harmonic = tracer.calls["hodge.harmonic_dimension"]
    lines = [
        f"{name}  traced {len(traced)} jobs: wall {wall:.4f} s traced vs {plain_wall:.4f} s "
        f"untraced, trace_overhead_ratio {overhead:.4f} (in reference seconds)",
        f"{name}  curvature.search_exact_ratio "
        + (f"{exact / len(n4):.6g} ({exact} of {len(n4)} n=4 searches at the closed form within 1e-6)"
           if n4 else "n/a (no n=4 searches)"),
        f"{name}  hodge.exact_fallback_ratio "
        + (f"{fallbacks / harmonic:.6g} ({fallbacks} of {harmonic} harmonic_dimension calls)"
           if harmonic else "n/a (no harmonic_dimension calls)"),
        f"{name}  reporting.bytes_written {sum(written)} bytes in {len(written)} files",
        f"{name}  {'layer':<45} {'calls':>9} {'self_s':>12} {'share':>8}",
    ]
    for mod in LAYERS:
        lines.append(f"{name}  {mod:<45} {'':>9} {layer[mod]:12.6f} {layer[mod] / wall:8.4f}")
        for fn in sorted(f for f in tracer.calls if f.startswith(mod + ".")):
            lines.append(f"{name}    {fn:<43} {tracer.calls[fn]:9d} {tracer.self_s[fn]:12.6f} "
                         f"{tracer.self_s[fn] / wall:8.4f}")
    unattributed = wall - sum(layer.values())
    lines.append(f"{name}  {'(benchmark, outside any layer)':<45} {'':>9} {unattributed:12.6f} "
                 f"{unattributed / wall:8.4f}")
    return metrics, units, len(plain) + len(traced), failed, lines


def run_all(args) -> dict:
    """Each workload in a child process of its own, one after another, so
    each reports its own peak memory; names in the result get the workload
    as a prefix."""
    from perfbench.workloads import WORKLOADS
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.rstrip("\n").splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} exited with code {proc.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        child = json.loads(lines[-1])
        result["metrics"].update({f"{name}.{k}": v for k, v in child["metrics"].items()})
        result["attempted"] += child["attempted"]
        result["failed"] += child["failed"]
        result["correct"] = result["correct"] and child["correct"]
    return result


# -- entry point ------------------------------------------------------------------


def parse_args(argv=None):
    from perfbench.workloads import WORKLOADS
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=["all", *WORKLOADS], default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="nominal measured wall time per workload; sets the number of passes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    if not (SRC / "picband" / "__init__.py").is_file():
        print(f"perfbench: no picband sources under {SRC}", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: no BENCHMARK.json under {ROOT} to name the metrics", file=sys.stderr)
        return 2
    args = parse_args(argv)
    import picband
    if Path(picband.__file__).resolve().parent != SRC / "picband":
        print(f"perfbench: picband imported from {picband.__file__}, not {SRC}", file=sys.stderr)
        return 2
    # a terminated run still removes its work directory and its set-up probe
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)

    if args.workload == "all":
        print(json.dumps(run_all(args)))
        return 0

    from perfbench.workloads import WORKLOADS, passes
    name = args.workload
    print(f"# perfbench workload={name} seed={args.seed} seconds={args.seconds} "
          f"passes={passes(WORKLOADS[name], args.seconds)} trace={args.trace}")
    print("# machine " + json.dumps(machine_facts(args.seed), sort_keys=True), flush=True)
    run = traced_run if args.trace else untraced_run
    metrics, units, attempted, failed, lines = run(name, args.seed, args.seconds)
    print("\n".join(lines))
    for item in failed:
        print(f"{name}  FAILED {item}")
    print(json.dumps({"correct": not failed, "attempted": attempted, "failed": len(failed),
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(2)
