"""surepl benchmark: end-to-end metrics per workload, or a layer-traced run.

    python3 bench/run.py --workload train_large --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 2

One run builds the workload's inputs from the seed, runs one untimed warm-up
job, computes a reference answer, and then runs jobs in a closed loop for
`--seconds`, checking every job against the reference.  Set-up is timed
three times before the loop and again between jobs.  With `--trace 0` it
reports the end-to-end metrics; with `--trace 1` it spends half the time
untraced and half with every surepl layer wrapped (see tracer.py), and
reports the per-layer metrics and the tracing overhead.  No thread variables
are set, so BLAS runs with the library defaults users get; the environment is
printed with every result.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
# The machine's speed drifts on a scale of seconds, so set-up is also timed
# between jobs, for up to this share of the job time, to spread its samples
# over the whole run.
SETUP_SHARE = 0.05
# settings that change timings without changing the code: BLAS threads, and
# whether numpy asks for transparent huge pages for its large arrays
SETTING_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMPY_MADVISE_HUGEPAGE")
THP_MODE = Path("/sys/kernel/mm/transparent_hugepage/enabled")

sys.path.insert(0, str(SRC))
try:
    import numpy as np
    import scipy
    import surepl
    from tracer import Tracer
    from workloads import WORKLOADS
except ImportError as exc:
    sys.exit(f"error: cannot import the surepl sources under {SRC}: {exc}")
if not Path(surepl.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"error: surepl was imported from {surepl.__file__}, not from {SRC}")


def _blas_libraries() -> list[dict]:
    """OpenBLAS builds loaded by numpy and scipy, with their thread counts."""
    found = []
    for pkg in (np, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(glob.glob(str(libdir / "*openblas*"))):
            entry = {"package": pkg.__name__, "library": Path(path).name}
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                lib = None  # recorded without its configuration
            for suffix in ("64_", ""):
                config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
                threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
                if config is not None and threads is not None:
                    config.restype = ctypes.c_char_p
                    threads.restype = ctypes.c_int
                    entry["config"] = config().decode()
                    entry["threads"] = threads()
                    break
            found.append(entry)
    return found


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_libraries(),
        "setting_vars": {name: os.environ.get(name) for name in SETTING_VARS},
        "transparent_hugepage": THP_MODE.read_text().strip() if THP_MODE.exists() else None,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
    }


class Loop:
    """Closed-loop job runner: one job at a time, each checked after timing."""

    def __init__(self, workload, seed: int, workdir: Path):
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.inputs = self.ref = None
        self.setup_times: list[float] = []
        self.sample_setups = False
        self.attempted = 0
        self.failed = 0
        self.accuracies: list[float] = []

    def setup(self):
        t0 = time.perf_counter()
        inputs = self.workload.setup(self.seed, self.workdir)
        self.setup_times.append(time.perf_counter() - t0)
        return inputs

    def run(self, seconds: float) -> list[float]:
        """Job wall times of one phase lasting at least `seconds` and one job."""
        times: list[float] = []
        setup_budget = 0.0
        start = time.perf_counter()
        while not times or time.perf_counter() - start < seconds:
            self.attempted += 1
            gc.collect()  # start every job from the same heap state
            t0 = time.perf_counter()
            try:
                out = self.workload.job(self.inputs)
                times.append(time.perf_counter() - t0)
                problems = self.workload.check(self.inputs, self.ref, out)
            except Exception:  # a failing job is counted, not fatal
                times.append(time.perf_counter() - t0)
                problems = [traceback.format_exc()]
            else:
                self.accuracies.append(out["accuracy"])
            if problems:
                self.failed += 1
                print(f"job {self.attempted} failed: {'; '.join(problems)}", file=sys.stderr)
            if self.sample_setups:
                setup_budget += SETUP_SHARE * times[-1]
                while setup_budget >= statistics.median(self.setup_times):
                    self.setup()  # same seed, so the inputs in use stay valid
                    setup_budget -= self.setup_times[-1]
        return times


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    workload = WORKLOADS[name]
    workdir = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    loop = Loop(workload, seed, workdir)
    try:
        for _ in range(1 if trace else SETUP_REPEATS):
            loop.inputs = loop.setup()
        warm = workload.job(loop.inputs)  # untimed warm-up
        loop.ref = workload.reference(loop.inputs, warm)
        if trace:
            untraced = loop.run(seconds / 2)
            with Tracer() as tracer:
                traced = loop.run(seconds / 2)
            metrics = tracer.metrics(len(traced))
            plain, wrapped = statistics.median(untraced), statistics.median(traced)
            metrics["trace.untraced_job_s"] = (plain, "s")
            metrics["trace.traced_job_s"] = (wrapped, "s")
            metrics["trace.overhead_s"] = (wrapped - plain, "s")
            samples = len(traced)
        else:
            loop.sample_setups = True
            times = loop.run(seconds)
            metrics = {
                "job_s": (statistics.median(times), "s"),
                "setup_s": (statistics.median(loop.setup_times), "s"),
                # ru_maxrss is in kB on Linux
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
                "accuracy": (statistics.median(loop.accuracies) if loop.accuracies else 0.0,
                             "fraction"),
                "fail_ratio": (loop.failed / loop.attempted, "fraction"),
            }
            samples = len(times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only once no other run is using it
    print(f"workload {name} seed {seed} trace {int(trace)}: {samples} timed jobs, "
          f"{len(loop.setup_times)} set-ups")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:36s} {value:.6g} {unit}")
    return {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        # fail_ratio is printed above; the result carries it as failed / attempted
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items() if k != "fail_ratio"},
    }


def run_all(args) -> dict:
    """Each workload in its own process, so each reports its own peak memory."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        child = subprocess.run(argv, capture_output=True, text=True, check=False)
        sys.stderr.write(child.stderr)
        lines = child.stdout.splitlines()
        if child.returncode != 0 or not lines:
            sys.exit(f"error: workload {name} exited {child.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        result = run_all(args)
    else:
        print("env " + json.dumps(environment(), sort_keys=True))
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
