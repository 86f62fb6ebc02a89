"""passivebeam benchmark: one workload per process, through ``passivebeam.cli.run``.

    python3 perfbench/run.py --workload sim-dense-n16 --seed 1 --seconds 30 --trace 0

Run it from anywhere inside a source checkout; it imports the package from the
checkout's ``src`` and writes only under ``.perfbench_out/`` there. After one
checked warm-up repetition it repeats the workload for ``--seconds``. With
``--trace 0`` it reports the end-to-end metrics (medians over repetitions),
with ``--trace 1`` the per-module metrics of a traced run (README.md). Every
repetition's outputs are checked. The last line of standard output is the
JSON result; the line before it records the environment.
"""

import argparse
import ctypes
import hashlib
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

from workloads import WORKLOADS, set_up, write_configs

#: pinned to one thread before numpy is first imported
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MIN_REPS = 3
#: set-up phases per repetition; setup_s is the median over all of them
SETUP_REPEATS = 3


def import_program():
    """Pin the thread pools, then import the package from this checkout's src."""
    for var in PINNED:
        os.environ[var] = "1"
    init = SRC / "passivebeam" / "__init__.py"
    if not init.is_file():
        sys.exit(f"error: no passivebeam sources at {init}")
    sys.path.insert(0, str(SRC))
    import passivebeam
    from passivebeam import cli, integrator

    if Path(passivebeam.__file__).resolve() != init.resolve():
        sys.exit(f"error: imported passivebeam from {passivebeam.__file__}, not {init}")
    return cli, integrator


class Runner:
    """Repeats one workload and counts every operation and failed check."""

    def __init__(self, cli, integrator, workload: str, seed: int, work_dir: Path):
        self.cli = cli
        self.integrator = integrator
        self.seed = seed
        self.ops = WORKLOADS[workload]
        self.configs = write_configs(self.ops, work_dir / "configs")
        self.outs = [work_dir / op.name for op in self.ops]
        self.attempted = 0
        self.failed = 0
        self.setup_times: list[float] = []

    def _count(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED {what}", file=sys.stderr)

    def rep(self, tracer=None) -> float:
        """Set up SETUP_REPEATS times, run every operation, check the outputs.

        Returns the summed wall time of the ``cli.run`` calls; with a tracer,
        its wrappers are installed around those calls only."""
        jobs = list(zip(self.ops, self.configs, self.outs))
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            for op, path, out in jobs:
                set_up(self.cli, self.integrator, op, path, self.seed, out)
            self.setup_times.append(time.perf_counter() - t0)

        statuses = []
        wall = 0.0
        for op, path, out in jobs:
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    status = self.cli.run(op.mode, path, out=out, seed=self.seed)
                else:
                    with tracer.installed():
                        status = self.cli.run(op.mode, path, out=out, seed=self.seed)
            except Exception:  # a crash is a failed operation, not a stopped benchmark
                traceback.print_exc()
                status = None
            wall += time.perf_counter() - t0
            statuses.append(status)

        for (op, _, out), status in zip(jobs, statuses):
            self._count(status == op.expected_status,
                        f"{op.name}: exit status {status}, expected {op.expected_status}")
            for check in op.checks:
                try:
                    check.run(out)
                    why = ""
                except Exception as exc:
                    why = f"{type(exc).__name__}: {exc}"
                self._count(not why, f"{op.name}/{check.name}: {why}")
        return wall


def _repeat(seconds: float, once) -> int:
    """Call ``once`` until another call would overrun ``seconds``; at least MIN_REPS."""
    start = time.perf_counter()
    durations = []
    while (len(durations) < MIN_REPS
           or time.perf_counter() - start + statistics.median(durations) <= seconds):
        t0 = time.perf_counter()
        once()
        durations.append(time.perf_counter() - t0)
    return len(durations)


def end_to_end(runner: Runner, seconds: float):
    walls = []
    runner.setup_times.clear()
    reps = _repeat(seconds, lambda: walls.append(runner.rep()))
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "setup_s": {"value": statistics.median(runner.setup_times), "unit": "s"},
        "peak_rss_mb": {"value": peak_kib / 1024.0, "unit": "MB"},
    }
    return metrics, {"reps": reps}


def per_module(runner: Runner, seconds: float, trace_path: Path):
    import tracing

    tracer = tracing.Tracer()
    plain, traced, per_rep, shares = [], [], [], []

    def pair():
        plain.append(runner.rep())
        first = len(tracer)
        traced.append(runner.rep(tracer))
        per_rep.append(tracing.rep_metrics(tracer, first, len(tracer)))
        shares.append(tracing.shares(tracer, first, len(tracer), traced[-1] * 1e9))

    pairs = _repeat(seconds, pair)
    metrics = tracing.summarize(tracer, per_rep)
    name, unit, _ = tracing.OVERHEAD
    metrics[name] = {"value": statistics.median(t / p for t, p in zip(traced, plain)) - 1.0,
                     "unit": unit}
    tracer.write_csv(trace_path)
    info = {
        "pairs": pairs,
        "shares_of_traced_wall": {k: statistics.median(s[k] for s in shares) for k in shares[0]},
        "spans": len(tracer),
        "span_file": str(trace_path.relative_to(ROOT)),
    }
    return metrics, info


def _blas_runtime() -> dict:
    """Thread count and build string of each OpenBLAS the process loaded."""
    found = {}
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return found
    libs = sorted({line.split()[-1] for line in maps.splitlines()
                   if "openblas" in line and line.split()[-1].startswith("/")})
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for stem in ("scipy_openblas_{}64_", "scipy_openblas_{}", "openblas_{}64_", "openblas_{}"):
            threads = getattr(lib, stem.format("get_num_threads"), None)
            config = getattr(lib, stem.format("get_config"), None)
            if threads is not None and config is not None:
                threads.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                found[Path(lib_path).name] = {"threads": threads(),
                                              "config": config().decode(errors="replace")}
                break
    return found


def _commit():
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30, check=False)
    return done.stdout.strip() or None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "passivebeam").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "pinned": {var: os.environ[var] for var in PINNED},
        "openblas": _blas_runtime(),
        "process_threads": len(os.listdir("/proc/self/task")) if Path("/proc/self/task").is_dir() else None,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(),
        "source_sha256": _source_sha256(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="passed to the program only as the CLI --seed")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli, integrator = import_program()
    work_dir = OUT / f"{args.workload}-{os.getpid()}"
    try:
        runner = Runner(cli, integrator, args.workload, args.seed, work_dir)
        runner.rep()  # warm-up: checked, not timed
        if args.trace:
            metrics, info = per_module(runner, args.seconds, OUT / f"trace-{args.workload}.csv")
        else:
            metrics, info = end_to_end(runner, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print(json.dumps({"env": environment(args), **info}, sort_keys=True))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
