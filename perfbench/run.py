"""Benchmark the qbmsim command line: time its workflows and check every output.

Run from the root of a checkout, which must hold the qbmsim sources in src/:

    python3 perfbench/run.py --workload certify-n256 --seed 0 --seconds 20 --trace 0

One process calls ``qbmsim.cli.main`` again and again, with a config made
from the seed, until ``--seconds`` have passed; a warm-up call comes first.
Every call's outputs are checked against the stored reference outputs
(see gate.py).  With ``--trace 0`` the run reports the end-to-end metrics:
``setup_s`` (median over fresh interpreters of importing qbmsim.cli and
loading the config), ``run_s`` (the fastest ``main`` call, CSV write
included) and ``peak_rss_mb``.  ``run_s`` is the fastest call rather than
the median because other tenants of a shared host slow every call for
seconds at a time; the median and the tail are printed alongside.  With
``--trace 1`` the run spends half the time on untraced calls and half on
calls traced at the layer boundaries (tracer.py) and reports the per-layer
metrics.  The last line of standard output is one JSON object; the lines
before it give the sample count, median, tail percentile and an
environment stamp.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from importlib import metadata
from pathlib import Path

import gate
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"

#: fresh interpreters timed for setup_s, after one that warms the file cache
SETUP_PROBES = 7

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

_PROBE = """\
import sys
sys.path.insert(0, sys.argv[1])
import qbmsim.cli
qbmsim.cli.load_config(sys.argv[2])
print(qbmsim.cli.__file__, flush=True)
"""


def measure_setup(src: Path, config_path: Path) -> list[float]:
    """Seconds from starting an interpreter until qbmsim is imported and configured."""
    times = []
    for _ in range(SETUP_PROBES + 1):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", _PROBE, str(src), str(config_path)],
                              stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.stdout.read()
        if child.returncode != 0 or not Path(line.strip()).is_relative_to(src):
            raise RuntimeError(f"set-up probe failed (exit {child.returncode}, {line!r})")
        times.append(elapsed)
    return times[1:]


def call_once(cli, argv: list[str], ref: gate.Reference, out_path: Path,
              trace: tracer.Tracer | None = None) -> tuple[float, float, list[str]]:
    """One ``main`` call: wall seconds, CPU seconds and the gate's complaints."""
    for stale in (out_path, Path(f"{out_path}.certificate.json")):
        stale.unlink(missing_ok=True)
    sink = io.StringIO()
    span = trace.call() if trace is not None else contextlib.nullcontext()
    crash = None
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), span:
        start, cpu = time.perf_counter(), time.process_time()
        try:
            code = cli.main(argv)
        except Exception:  # a crash is a failed call, and the run goes on
            crash = traceback.format_exc()
        wall, cpu = time.perf_counter() - start, time.process_time() - cpu
    problems = [crash] if crash else gate.check_output(ref, code, out_path)
    return wall, cpu, problems


def call_for(seconds: float, *call_args, **call_kwargs):
    """Repeat ``call_once`` until ``seconds`` have passed; at least once."""
    walls, cpus, problems = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        wall, cpu, found = call_once(*call_args, **call_kwargs)
        walls.append(wall)
        cpus.append(cpu)
        problems.append(found)
        if time.perf_counter() >= deadline:
            return walls, cpus, problems


def tail_line(walls: list[float]) -> str:
    """Fastest call, median, and the highest percentile with ten samples above it."""
    n = len(walls)
    line = (f"run_s {n} calls: fastest {min(walls):.6f} s, "
            f"median {statistics.median(walls):.6f} s")
    if n > 20:
        line += f"; p{100 * (n - 10) // n} {sorted(walls)[n - 11]:.6f} s"
    return line


def _blas_threads() -> int | None:
    """Thread count of the loaded OpenBLAS, asked through its own API."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _commit() -> str | None:
    """HEAD of the checkout, or None where the checkout is not a git work tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None  # no git, or a repository that merely encloses the checkout
    return lines[1]


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "python": platform.python_version(),
        **versions,
        "commit": _commit(),
    }


def _unit(name: str) -> str:
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("_s"):
        return "s"
    return "count"


def measure(workload: str, seconds: float, trace: int, src: Path, config: dict,
            ref: gate.Reference, work: Path) -> tuple[dict, list[list[str]]]:
    """Time one workload for ``seconds``; return the metrics and every call's complaints."""
    config_path, out_path = work / "config.json", work / "out.csv"
    config_path.write_text(json.dumps(config))
    cli_argv = workloads.cli_argv(workload, config_path, out_path)

    setup = [] if trace else measure_setup(src, config_path)
    start = time.perf_counter()
    cli = workloads.import_cli(ROOT)
    import_s = time.perf_counter() - start
    print("env " + json.dumps(environment(), sort_keys=True))

    _, _, warm_problems = call_once(cli, cli_argv, ref, out_path)
    problems = [warm_problems]
    if trace:
        walls, cpus, found = call_for(seconds / 2, cli, cli_argv, ref, out_path)
        problems += found
        spans = tracer.Tracer()
        with spans.installed():
            traced, _, found = call_for(seconds / 2, cli, cli_argv, ref, out_path,
                                        trace=spans)
        problems += found
        values = spans.metrics()
        values["cpu_s"] = statistics.median(cpus)
        values["trace.overhead_s"] = min(traced) - min(walls)
        values["import_s"] = import_s
        print("untraced " + tail_line(walls))
        print("traced " + tail_line(traced))
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in values.items()}
    else:
        walls, _, found = call_for(seconds, cli, cli_argv, ref, out_path)
        problems += found
        print(tail_line(walls))
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "run_s": {"value": min(walls), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    return metrics, problems


def result(metrics: dict, problems: list[list[str]]) -> dict:
    """The result line: the gate's verdict over every call, and the metrics."""
    failed = sum(1 for p in problems if p)
    return {"correct": failed == 0, "attempted": len(problems), "failed": failed,
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")

    try:
        src = workloads.source_dir(ROOT)
        config = workloads.make_config(args.workload, args.seed)
        ref = gate.load_reference(args.workload, args.seed, config)
    except (OSError, KeyError, ValueError) as exc:
        print(f"perfbench: cannot start: {exc}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{args.workload}-", dir=WORK) as work:
        metrics, problems = measure(args.workload, args.seconds, args.trace, src, config,
                                    ref, Path(work))
    for i, found in enumerate(problems):
        for problem in found[:5]:
            print(f"call {i}: {problem}", file=sys.stderr)
    print(json.dumps(result(metrics, problems)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
