"""The benchmark's workloads: job lists and the checks on their outputs.

Every workload is a closed loop: one caller in one process runs its jobs in
order, waiting for each, and ``workers`` stays at its default of 1.  Each
job's stokit seed is derived from the workload seed; the sizes never depend
on it.

Checks are semantic oracles plus in-run determinism (a repeated job must give
the same sha256).  They never compare against pinned digests: output bits
depend on numpy's SIMD target and may change on purpose in later work.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import functools
import hashlib
import io
import math
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

import stokit
import stokit.cli


class CheckError(Exception):
    """A job's output is wrong."""


@dataclass(frozen=True)
class Job:
    """One timed call.  ``run`` is timed; ``check(output, deep)`` is not and
    returns the output's digest.  ``deep`` asks for the costly oracles, which
    the warm-up round runs; later rounds rely on the digest repeating."""

    name: str
    stage: str
    paths: int  # simulated instances, for paths_per_s
    run: Callable[[], object]
    check: Callable[[object, bool], str]
    removes: tuple[Path, ...] = ()  # outputs this job is the last to read

    def remove_outputs(self) -> None:
        """Delete the files the job read last, so that every round has to
        write them afresh and a stale file cannot pass a check."""
        for path in self.removes:
            if path.is_dir():
                shutil.rmtree(path)
            else:
                path.unlink(missing_ok=True)


def job_seeds(workload: str, seed: int, count: int) -> list[int]:
    """Per-job stokit seeds, a pure function of (workload, seed)."""
    rng = random.Random(f"{workload}:{seed}")
    return [rng.getrandbits(63) for _ in range(count)]


# --- shared checks ----------------------------------------------------------

def _require(condition, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _check_fan(curves: np.ndarray, what: str) -> None:
    """Quantile curves (levels x times) never decrease with the level."""
    _require(np.all(np.isfinite(curves)), f"{what}: non-finite quantile")
    _require(np.all(np.diff(curves, axis=0) >= 0.0),
             f"{what}: quantile fan not monotone in level")


def _check_am_gm(amean, gmean, what: str) -> None:
    amean, gmean = np.asarray(amean), np.asarray(gmean)
    _require(np.all(amean >= gmean * (1.0 - 1e-12)),
             f"{what}: arithmetic mean below geometric mean")


def _check_growth(time_average: float, ensemble_average: float, what: str) -> None:
    # Jensen: log of the mean ratio >= mean of the log ratios.
    _require(math.isfinite(time_average) and math.isfinite(ensemble_average),
             f"{what}: non-finite growth rate")
    _require(ensemble_average >= time_average - 1e-12,
             f"{what}: ensemble-average growth below time-average growth")


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = np.ascontiguousarray(a, np.float64), np.ascontiguousarray(b, np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(hashlib.sha256(part).digest())
    return h.hexdigest()


def _read_columns(path: Path) -> dict[str, list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {name: [row[i] for row in body] for i, name in enumerate(header)}


def _floats(cells: list[str]) -> np.ndarray:
    return np.array([float(c) for c in cells])


def _fan_from_columns(columns: dict[str, list[str]], prefix: str) -> np.ndarray:
    """Quantile curves from the columns named ``<prefix>q..``, skipping the
    rows where they are empty (fig1 pads the shorter panel)."""
    names = [name for name in columns if name.startswith(prefix + "q")]
    _require(len(names) >= 2, f"no {prefix}q.. columns")
    rows = [k for k, cell in enumerate(columns[names[0]]) if cell != ""]
    return np.array([[float(columns[n][k]) for k in rows] for n in names])


# --- CLI calls --------------------------------------------------------------

class CliResult(NamedTuple):
    code: int
    stdout: str
    stderr: str


def _cli(argv: list[str]) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = stokit.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the flags
            code = exc.code if isinstance(exc.code, int) else 2
    return CliResult(code, out.getvalue(), err.getvalue())


def _require_exit_0(result: CliResult) -> None:
    _require(result.code == 0,
             f"exit code {result.code}: {result.stderr.strip()[-300:]}")


def _spec_flags(spec) -> list[str]:
    """The CLI flags that rebuild ``spec``, with exact float text."""
    flags = []
    for field in dataclasses.fields(spec):
        flags += [f"--{field.name.replace('_', '-')}",
                  repr(float(getattr(spec, field.name)))]
    return flags


# --- short_paths ------------------------------------------------------------

# Many short instances: the per-instance Python loop in `processes` and one
# `substream` per instance in `rng` dominate; csvio and svgplot do no work.
SHORT_T, SHORT_DT, SHORT_N = 0.1, 0.01, 20_000
SHORT_STEPS = 10
SHORT_SPECS = {
    "brownian": stokit.Brownian(drift=0.1, scale=1.0),
    "gbm": stokit.GeometricBrownian(mu=0.05, sigma=0.2),
    "levy": stokit.LevyStable(alpha=1.7, beta=0.0, scale=0.5),
    "glevy": stokit.GeometricLevy(alpha=1.55, beta=0.2, scale=0.35, loc=0.02),
    "ou": stokit.OrnsteinUhlenbeck(theta=2.0, mean=0.0, scale=0.5, x0=1.0),
    "aou": stokit.AdaptiveOU(theta0=1.0, mean=0.0, scale=0.5, x0=2.0, eta=2.0,
                             band=0.5, theta_min=0.1, theta_max=10.0),
    "poisson": stokit.Poisson(rate=5.0),
}


def _short_run(spec, seed: int):
    ensemble = stokit.simulate(spec, SHORT_T, SHORT_DT, SHORT_N, seed)
    fan = stokit.quantile_fan(ensemble)
    if not spec.multiplicative:
        return ensemble, fan, None, None
    return (ensemble, fan, stokit.summary_curves(ensemble),
            stokit.growth_rates(ensemble))


def _short_check(spec, output, deep: bool) -> str:
    ensemble, fan, summary, rates = output
    what = type(spec).__name__
    values = ensemble.values
    _require(values.shape == (SHORT_N, SHORT_STEPS + 1),
             f"{what}: values shape {values.shape}")
    _require(np.all(np.isfinite(values)), f"{what}: non-finite value")
    _check_fan(fan.curves, what)
    parts = [values.tobytes(), fan.curves.tobytes()]
    if summary is not None:
        _check_am_gm(summary.arithmetic_mean, summary.geometric_mean, what)
        _check_growth(rates.time_average, rates.ensemble_average, what)
        parts.append(summary.geometric_mean.tobytes())
    if isinstance(spec, stokit.Poisson):
        counts = (values[:, -1] - spec.x0) / spec.jump
        expected = spec.rate * SHORT_T
        _require(abs(counts.mean() - expected) <= 6.0 * math.sqrt(expected / SHORT_N),
                 f"{what}: mean count {counts.mean()} far from rate*t = {expected}")
    if isinstance(spec, stokit.AdaptiveOU):
        thetas = ensemble.theta_paths
        _require(thetas.min() >= spec.theta_min and thetas.max() <= spec.theta_max,
                 f"{what}: theta left [{spec.theta_min}, {spec.theta_max}]")
        parts.append(thetas.tobytes())
    return _digest(*parts)


def short_paths(seed: int, workdir: Path) -> list[Job]:
    seeds = job_seeds("short_paths", seed, len(SHORT_SPECS))
    return [Job(f"simulate_{family}", "simulate", SHORT_N,
                functools.partial(_short_run, spec, job_seed),
                functools.partial(_short_check, spec))
            for (family, spec), job_seed in zip(SHORT_SPECS.items(), seeds)]


# --- long_paths_csv ---------------------------------------------------------

# Long paths through CSV: rendering and parsing in `csvio` dominate, and the
# per-instance overhead is negligible.
LONG_T, LONG_DT, LONG_N = 10.0, 0.01, 1000
LONG_STEPS = 1000
LONG_SPECS = {
    "gbm": stokit.GeometricBrownian(mu=0.05, sigma=0.2),
    "glevy": stokit.GeometricLevy(alpha=1.55, beta=0.2, scale=0.35, loc=0.02),
}
DIAGNOSE_OUTPUTS = ("fan.csv", "fan.svg", "summary.csv", "summary.svg",
                    "growth.csv", "preasym.csv", "preasym.svg")


def _simulate_check(spec, seed: int, path: Path, result: CliResult,
                    deep: bool) -> str:
    _require_exit_0(result)
    data = path.read_bytes()
    if deep:
        _check_csv_is_library_run(path, spec, seed)
    return _digest(data)


def _check_csv_is_library_run(path: Path, spec, seed: int) -> None:
    """Parse the CSV with the stdlib and require the library's exact bits."""
    reference = stokit.simulate(spec, LONG_T, LONG_DT, LONG_N, seed)
    times = reference.grid.times
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        _require(header == ["time"] + [f"inst_{i}" for i in range(LONG_N)],
                 f"{path.name}: bad header")
        rows = 0
        for k, line in enumerate(fh):
            cells = line.rstrip("\n").split(",")
            _require(k <= LONG_STEPS and len(cells) == LONG_N + 1,
                     f"{path.name}: bad shape at row {k + 1}")
            _require(_same_bits(_floats(cells[:1]), times[k:k + 1])
                     and _same_bits(_floats(cells[1:]), reference.values[:, k]),
                     f"{path.name}: row {k + 1} differs from library simulate")
            rows += 1
    _require(rows == LONG_STEPS + 1, f"{path.name}: {rows} rows")


def _diagnose_outputs(prefix: Path) -> list[Path]:
    return [prefix.with_name(f"{prefix.name}_{suffix}") for suffix in DIAGNOSE_OUTPUTS]


def _diagnose_check(prefix: Path, result: CliResult, deep: bool) -> str:
    _require_exit_0(result)
    paths = _diagnose_outputs(prefix)
    data = [path.read_bytes() for path in paths]
    if deep:
        what = prefix.name
        fan = _read_columns(paths[0])
        _require(len(fan["time"]) == LONG_STEPS + 1, f"{what}: fan rows")
        _check_fan(_fan_from_columns(fan, ""), what)
        summary = _read_columns(paths[2])
        _check_am_gm(_floats(summary["amean"]), _floats(summary["gmean"]), what)
        growth = dict(zip(*_read_columns(paths[4]).values()))
        _check_growth(float(growth["time_average"]),
                      float(growth["ensemble_average"]), what)
        preasym = _read_columns(paths[5])
        _require(np.all(np.isfinite(_floats(preasym["distance"]))),
                 f"{what}: non-finite preasymptotic distance")
        for path, blob in zip(paths, data):
            if path.suffix == ".svg":
                _require(blob.startswith(b"<?xml") and blob.endswith(b"</svg>\n"),
                         f"{path.name}: not a complete SVG document")
    return _digest(*data)


def long_paths_csv(seed: int, workdir: Path) -> list[Job]:
    seeds = job_seeds("long_paths_csv", seed, len(LONG_SPECS))
    simulate_jobs, diagnose_jobs = [], []
    for (family, spec), job_seed in zip(LONG_SPECS.items(), seeds):
        csv_path = workdir / f"{family}.csv"
        prefix = workdir / family
        simulate_argv = (["simulate", family] + _spec_flags(spec)
                         + ["--t", repr(LONG_T), "--dt", repr(LONG_DT),
                            "--n", str(LONG_N), "--seed", str(job_seed),
                            "--out", str(csv_path)])
        diagnose_argv = ["diagnose", "--in", str(csv_path), "--fan", "--summary",
                         "--growth", "--preasym", "--svg", "--out-prefix", str(prefix)]
        simulate_jobs.append(Job(
            f"simulate_{family}", "simulate_csv", LONG_N,
            functools.partial(_cli, simulate_argv),
            functools.partial(_simulate_check, spec, job_seed, csv_path)))
        diagnose_jobs.append(Job(
            f"diagnose_{family}", "diagnose_csv", 0,
            functools.partial(_cli, diagnose_argv),
            functools.partial(_diagnose_check, prefix),
            (csv_path, *_diagnose_outputs(prefix))))
    return simulate_jobs + diagnose_jobs


# --- reference_runs ---------------------------------------------------------

# The reference commands: replicate (figures/svgplot), evolve at the
# acceptance-5 per-generation configuration (the agents fitness loop), and a
# noisy heat-equation run (one substream per SPDE step).
REPLICATE_SEEDS = 3
# fig1 + fig2 + fig3 (two single-path runs) + fig4
REPLICATE_PATHS = 240 + 360 + 360 + 1 + 1 + 1
EVOLVE_SPEC = stokit.GeometricBrownian(mu=0.05, sigma=0.2)
EVOLVE_FLAGS = dict(agents=40, paths=50, t=200.0, dt=0.01, generations=10)
KELLY_BAND = (1.10, 1.40)  # acceptance criterion 5; Kelly fraction is 1.25
# Each generation's best fraction is picked on 50 fresh paths, so it scatters
# around the Kelly fraction with a standard deviation of about 0.05 however
# many generations run, and lands outside the band for about one seed in 200.
# The evolved fraction is therefore the median best of the last generations.
EVOLVE_SETTLED = 5
SPDE_DX, SPDE_DT, SPDE_T = 1.0 / 64, 1e-5, 0.25
SPDE_NODES, SPDE_STEPS = 65, 25_000


def _sine(x):
    return np.sin(np.pi * x)


SPDE_SPEC = stokit.SpdeSpec(kappa=0.1, sigma=0.15, length=1.0,
                            boundary=stokit.Dirichlet(0.0, 0.0),
                            initial_profile=_sine)


def _replicate_check(outdir: Path, result: CliResult, deep: bool) -> str:
    _require_exit_0(result)
    manifest = (outdir / "manifest.txt").read_bytes()
    entries = [line.split("\t") for line in manifest.decode("utf-8").splitlines()
               if line and not line.startswith("#")]
    listed = {name for name, _ in entries}
    on_disk = {path.name for path in outdir.iterdir()} - {"manifest.txt"}
    _require(listed == on_disk and len(entries) == len(listed) == 10,
             f"{outdir.name}: manifest lists {sorted(listed)}, found {sorted(on_disk)}")
    for name, digest in entries:
        _require(hashlib.sha256((outdir / name).read_bytes()).hexdigest() == digest,
                 f"{outdir.name}/{name}: digest does not match manifest")
    if deep:
        fig1 = _read_columns(outdir / "fig1.csv")
        _check_fan(_fan_from_columns(fig1, "bm_"), "fig1 brownian")
        _check_fan(_fan_from_columns(fig1, "gl_"), "fig1 glevy")
        fig2 = _read_columns(outdir / "fig2.csv")
        _check_am_gm(_floats(fig2["amean"]), _floats(fig2["gmean"]), "fig2")
        fig5 = _read_columns(outdir / "fig5.csv")
        nodes = [name for name in fig5 if name != "time"]
        edges = _floats(fig5[nodes[0]] + fig5[nodes[-1]])
        _require(np.all(edges == 0.0), "fig5: boundary values are not exactly 0")
        _require(all(math.isfinite(float(c)) for col in fig5.values() for c in col),
                 "fig5: non-finite field value")
    return _digest(manifest)


def _evolve_check(csv_path: Path, result: CliResult, deep: bool) -> str:
    _require_exit_0(result)
    best = float(result.stdout.strip())
    table = csv_path.read_bytes()
    history = _read_columns(csv_path)
    _require(len(history["generation"]) == EVOLVE_FLAGS["generations"],
             f"evolve history has {len(history['generation'])} generations")
    fractions = _floats(history["best_fraction"])
    _require(fractions[-1] == best, "evolve history does not end at the printed fraction")
    _require(np.all((fractions >= 0.0) & (fractions <= 3.0)),
             "evolve history leaves the fraction range [0, 3]")
    _require(np.all(np.isfinite(_floats(history["best_fitness"]))),
             "evolve history has a non-finite fitness")
    evolved = float(np.median(fractions[-EVOLVE_SETTLED:]))
    low, high = KELLY_BAND
    _require(low <= evolved <= high,
             f"evolved fraction {evolved} (median best of the last {EVOLVE_SETTLED} "
             f"generations) outside [{low}, {high}]")
    return _digest(result.stdout.encode(), table)


def _spde_run(seed: int):
    return stokit.simulate_heat_spde(SPDE_SPEC, SPDE_DX, SPDE_DT, SPDE_T, seed)


def _spde_check(field, deep: bool) -> str:
    u = field.u
    _require(u.shape == (SPDE_STEPS + 1, SPDE_NODES), f"spde: field shape {u.shape}")
    _require(np.all(u[:, 0] == 0.0) and np.all(u[:, -1] == 0.0),
             "spde: Dirichlet boundary values are not exactly 0")
    _require(np.all(np.isfinite(u)), "spde: non-finite field value")
    return _digest(u.tobytes())


def reference_runs(seed: int, workdir: Path) -> list[Job]:
    seeds = job_seeds("reference_runs", seed, REPLICATE_SEEDS + 2)
    jobs = []
    for i, job_seed in enumerate(seeds[:REPLICATE_SEEDS]):
        outdir = workdir / f"replicate_{i}"
        argv = ["replicate", "--outdir", str(outdir), "--seed", str(job_seed)]
        jobs.append(Job(f"replicate_{i}", "replicate", REPLICATE_PATHS,
                        functools.partial(_cli, argv),
                        functools.partial(_replicate_check, outdir), (outdir,)))
    evolve_csv = workdir / "evolve.csv"
    evolve_argv = ["evolve", "--family", "gbm"] + _spec_flags(EVOLVE_SPEC)
    for name, value in EVOLVE_FLAGS.items():
        evolve_argv += [f"--{name}", str(value)]
    evolve_argv += ["--seed", str(seeds[-2]), "--out", str(evolve_csv)]
    jobs.append(Job("evolve", "evolve",
                    EVOLVE_FLAGS["paths"] * EVOLVE_FLAGS["generations"],
                    functools.partial(_cli, evolve_argv),
                    functools.partial(_evolve_check, evolve_csv), (evolve_csv,)))
    jobs.append(Job("spde", "spde", 0, functools.partial(_spde_run, seeds[-1]),
                    _spde_check))
    return jobs


WORKLOADS = {
    "short_paths": short_paths,
    "long_paths_csv": long_paths_csv,
    "reference_runs": reference_runs,
}
