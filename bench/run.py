"""Benchmark of the stokit library and CLI, run from the repository root.

    python3 bench/run.py --workload short_paths --seed 1 --seconds 40 --trace 0

Runs the workload's job list in rounds until ``--seconds`` have passed, checks
every job's output, and prints a readable report followed, on the last line,
by one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones, measured untraced;
with ``--trace 1`` they are the per-layer ones, from traced rounds that
alternate with untraced rounds.  ``--workload all`` runs every workload in its
own process, one after another.  A JSON record with the machine block goes to
``bench/results/``.  See bench/README.md for what each workload is for.
"""

from __future__ import annotations

import argparse
import contextlib
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

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("short_paths", "long_paths_csv", "reference_runs")
SETUP_FIRST, SETUP_PER_ROUND = 3, 1
SETUP_CODE = """\
import time
start = time.perf_counter()
import stokit, stokit.cli
stokit.cli.build_parser()
print(time.perf_counter() - start)
print(stokit.__file__)
"""


def declared_units(trace: int) -> dict[str, str]:
    """Units of the end-to-end (trace 0) or per-layer (trace 1) metrics that
    BENCHMARK.json declares, by name."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _exit_2(message: str):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _from_src(module_file: str) -> bool:
    return Path(module_file).resolve().is_relative_to(SRC.resolve())


def import_stokit():
    """Import stokit from this checkout's src/, or exit with code 2."""
    sys.path.insert(0, str(SRC))
    try:
        import stokit
        import stokit.cli  # noqa: F401
    except ImportError as exc:
        _exit_2(f"cannot import stokit from {SRC}: {exc}")
    if not _from_src(stokit.__file__):
        _exit_2(f"stokit imported from {stokit.__file__}, not {SRC}")
    return stokit


class SetupTimer:
    """Times fresh interpreters that import stokit and build the CLI parser.

    Samples are taken before the warm-up and between rounds, so their median
    spans the whole run rather than one moment of a shared machine's load.
    The first interpreter is not measured: it writes the byte-code caches.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._env = dict(os.environ, PYTHONPATH=str(SRC))
        self._spawn()

    def _spawn(self) -> float:
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=self._env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=60, check=True)
        seconds, origin = proc.stdout.split("\n")[:2]
        if not _from_src(origin):
            _exit_2(f"set-up imported stokit from {origin}")
        return float(seconds)

    def sample(self, count: int) -> None:
        self.samples += [self._spawn() for _ in range(count)]


def machine_block(stokit) -> dict:
    import numpy as np
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    dispatch = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]
    source = hashlib.sha256()
    for path in sorted((SRC / "stokit").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "simd_baseline": list(umath.__cpu_baseline__),
        "simd_dispatch": dispatch[-1] if dispatch else None,
        "stokit_version": stokit.__version__,
        "stokit_commit": _git_commit(),
        "stokit_source_sha256": source.hexdigest(),
    }


def _git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree."""
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                               "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


class Round:
    """Job timings, failures and (when traced) spans of one pass over the jobs."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.job_s: dict[str, float] = {}
        self.attempted = self.failed = 0


def run_round(jobs, deep: bool, digests: dict, tracer=None) -> Round:
    result = Round(tracer)
    for job in jobs:
        result.attempted += 1
        context = tracer.installed() if tracer else contextlib.nullcontext()
        output, ok = None, True
        with context:
            start = time.perf_counter()
            try:
                output = job.run()
            except Exception:  # a failing job is counted, the run goes on
                traceback.print_exc()
                ok = False
            elapsed = time.perf_counter() - start
        result.job_s[job.name] = elapsed
        if ok:
            try:
                digest = job.check(output, deep)
            except Exception as exc:  # any error in a check fails the job
                print(f"check failed: {job.name}: {exc!r}", file=sys.stderr)
                ok = False
            else:
                if digests.setdefault(job.name, digest) != digest:
                    print(f"check failed: {job.name}: output differs from an "
                          "earlier round", file=sys.stderr)
                    ok = False
        job.remove_outputs()
        result.failed += not ok
    return result


def run_rounds(jobs, seconds: float, trace: bool, make_tracer, setup: SetupTimer):
    """A warm-up round that also runs the costly checks, then measured rounds
    until ``seconds`` have passed since the start, with set-up samples before
    each round.  With tracing, traced and untraced rounds alternate and there
    is at least one of each."""
    digests: dict[str, str] = {}
    start = time.perf_counter()
    setup.sample(SETUP_FIRST)
    warmup = run_round(jobs, True, digests)
    rounds: list[Round] = []
    # Start another round only if at least half of it fits before the end.
    last = time.perf_counter() - start
    while (len(rounds) < 1 + trace
           or time.perf_counter() - start + last / 2 < seconds):
        begin = time.perf_counter()
        setup.sample(SETUP_PER_ROUND)
        traced = trace and len(rounds) % 2 == 0
        rounds.append(run_round(jobs, False, digests,
                                make_tracer() if traced else None))
        last = time.perf_counter() - begin
    return warmup, rounds


def _median(values) -> float:
    return statistics.median(list(values))


def typical_pass(jobs, rounds) -> dict[str, float]:
    """Median seconds of each job over the rounds.  Their sum is the wall
    time of a typical pass: each job's median drops the rounds a noisy
    neighbour or a cold cache slowed, independently of the other jobs."""
    return {job.name: _median(r.job_s[job.name] for r in rounds) for job in jobs}


def stage_times(jobs, rounds) -> dict[str, float]:
    job_s = typical_pass(jobs, rounds)
    stages: dict[str, float] = {}
    for job in jobs:
        stages[f"{job.stage}_s"] = stages.get(f"{job.stage}_s", 0.0) + job_s[job.name]
    return stages


def end_to_end_metrics(jobs, rounds, setup_s: float) -> dict[str, float]:
    wall = sum(typical_pass(jobs, rounds).values())
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "paths_per_s": sum(job.paths for job in jobs) / wall,
    }


def per_layer_metrics(jobs, plain, traced, tracing) -> tuple[dict, list[str]]:
    """Medians over the traced rounds; counts must repeat in every round."""
    problems = []
    counts = traced[0].tracer.counts
    for r in traced[1:]:
        if r.tracer.counts != counts:
            problems.append(f"counts differ between traced rounds: "
                            f"{counts} vs {r.tracer.counts}")
    timings = {tracing.self_time_metric(kind): _median(r.tracer.self_s[kind] for r in traced)
               for kind in tracing.KINDS}
    metrics: dict[str, float] = dict(timings)
    instances = counts["processes.instances"]
    metrics["processes.us_per_instance"] = (
        timings["processes.self_s"] / instances * 1e6 if instances else 0.0)
    metrics.update(counts)
    traced_wall = sum(typical_pass(jobs, traced).values())
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - sum(typical_pass(jobs, plain).values())
    timings["trace.overhead_s"] = metrics["trace.overhead_s"]
    for name, seconds in timings.items():
        metrics[name[:-2] + "_share"] = seconds / traced_wall
    return metrics, problems


def run_workload(args) -> int:
    stokit = import_stokit()
    import tracing
    import workloads
    units = declared_units(args.trace)
    setup = SetupTimer()
    workdir = BENCH_DIR / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        jobs = workloads.WORKLOADS[args.workload](args.seed, workdir)
        warmup, rounds = run_rounds(jobs, args.seconds, bool(args.trace),
                                    tracing.Tracer, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left for a concurrent run
            workdir.parent.rmdir()

    plain = [r for r in rounds if r.tracer is None]
    traced = [r for r in rounds if r.tracer is not None]
    attempted = sum(r.attempted for r in [warmup] + rounds)
    failed = sum(r.failed for r in [warmup] + rounds)
    problems = []
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_block(stokit),
        "setup_samples_s": setup.samples,
        "warmup_job_s": warmup.job_s,
        "rounds": [{"traced": r.tracer is not None, "job_s": r.job_s}
                   for r in rounds],
        "stages_s": stage_times(jobs, plain),
        "failed_share": failed / attempted,
    }
    if args.trace:
        metrics, problems = per_layer_metrics(jobs, plain, traced, tracing)
        record["spans"] = [
            {"parent": parent, "kind": kind, "calls": calls, "seconds": seconds}
            for (parent, kind), (calls, seconds) in traced[0].tracer.edges.items()]
        problems += _compare_with_earlier_counts(record, traced[0].tracer.counts)
        record["counts"] = traced[0].tracer.counts
    else:
        metrics = end_to_end_metrics(jobs, plain, _median(setup.samples))
    record["metrics"] = metrics
    record["problems"] = problems
    correct = failed == 0 and not problems
    _write_record(record)
    if set(metrics) != set(units):
        raise RuntimeError("measured metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")

    print(f"stokit benchmark: workload {args.workload}, seed {args.seed}, "
          f"warm-up + {len(plain)} untraced + {len(traced)} traced rounds")
    print("machine: " + json.dumps(record["machine"], sort_keys=True))
    for problem in problems:
        print(f"problem: {problem}")
    shown = [(name, value, units[name]) for name, value in metrics.items()]
    if not args.trace:
        shown += [(name, value, "s") for name, value in record["stages_s"].items()]
        shown.append(("failed_share", record["failed_share"], "share"))
    for name, value, unit in shown:
        text = f"{value:18d}" if isinstance(value, int) else f"{value:18.6f}"
        print(f"  {name:28s} {text} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def _record_path(workload: str, seed: int, trace: int) -> Path:
    return BENCH_DIR / "results" / f"{workload}-seed{seed}-trace{trace}.json"


def _compare_with_earlier_counts(record, counts) -> list[str]:
    """Counts of a traced run must repeat those of an earlier traced run of
    the same workload, seed and source."""
    path = _record_path(record["workload"], record["seed"], 1)
    try:
        earlier = json.loads(path.read_text())
    except (OSError, ValueError):
        return []
    same_source = (earlier.get("machine", {}).get("stokit_source_sha256")
                   == record["machine"]["stokit_source_sha256"])
    if same_source and earlier.get("counts") != counts:
        return [f"counts differ from the earlier run in {path.name}: "
                f"{earlier.get('counts')} vs {counts}"]
    return []


def _write_record(record) -> None:
    path = _record_path(record["workload"], record["seed"], record["trace"])
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


def run_all(args) -> int:
    """Each workload in its own process, so each has its own peak RSS."""
    results = {}
    for workload in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            return proc.returncode
        results[workload] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
