"""Command-line interface.

Subcommands:

* ``simulate``  -- write one ensemble as CSV (``time,inst_0,...``)
* ``diagnose``  -- quantile fan / summary / growth / preasymptotic CSVs
* ``spde``      -- stochastic heat field CSVs
* ``evolve``    -- evolutionary leverage search CSV
* ``replicate`` -- regenerate the five reference figures (CSV + SVG) plus a
  digest manifest

Exit codes: 0 success, 2 usage or validation failure, 1 runtime/data failure.
All outputs are deterministic functions of the flags; ``--seed`` defaults to
12345 everywhere.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import __version__
from .errors import DomainError, StokitError
from .specs import (AdaptiveOU, Brownian, GeometricBrownian, GeometricLevy,
                    LevyStable, OrnsteinUhlenbeck, Poisson, spec_fields)

# Parsing needs only the spec types above and their fields, which load
# neither numpy nor dataclasses; each handler imports the modules it runs, so
# a command loads no module that it does not use.

_FAMILY_TYPES = {
    "brownian": Brownian,
    "gbm": GeometricBrownian,
    "levy": LevyStable,
    "glevy": GeometricLevy,
    "ou": OrnsteinUhlenbeck,
    "aou": AdaptiveOU,
    "poisson": Poisson,
}


def _spec_from_flags(family: str, args: argparse.Namespace):
    if family is None:
        raise DomainError("no input: pass --in FILE or a process family")
    spec_type = _FAMILY_TYPES[family]
    kwargs = {}
    for name, default in spec_fields(spec_type).items():  # unset flags keep defaults
        if getattr(args, name) is not None:
            kwargs[name] = getattr(args, name)
        elif default is None:
            raise DomainError(f"--{name.replace('_', '-')} is "
                              f"required for family '{family}'")
    return spec_type(**kwargs)


def _add_spec_flags(parser: argparse.ArgumentParser, families) -> None:
    """One float flag per spec field, with help only for a single family."""
    flags = {name: default for family in families
             for name, default in spec_fields(_FAMILY_TYPES[family]).items()}
    for name, default in flags.items():
        helptext = "required" if default is None else f"default {default}"
        parser.add_argument(f"--{name.replace('_', '-')}", type=float, default=None,
                            help=helptext if len(families) == 1 else argparse.SUPPRESS)


def _add_run_flags(parser: argparse.ArgumentParser, required: bool = True) -> None:
    parser.add_argument("--t", type=float, required=required, help="horizon")
    parser.add_argument("--dt", type=float, required=required, help="time step")
    parser.add_argument("--n", type=int, required=required, help="instances")
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--workers", type=int, default=1)


def _parse_levels(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise DomainError(f"bad --fan-levels value: {exc}") from None


def _parse_boundary(text: str):
    from .spde import Dirichlet, Neumann
    if text == "neumann":
        return Neumann()
    if text == "dirichlet":
        return Dirichlet(0.0, 0.0)
    if text.startswith("dirichlet:"):
        parts = text[len("dirichlet:"):].split(",")
        if len(parts) != 2:
            raise DomainError(f"bad --boundary value {text!r}; "
                              "use dirichlet:LEFT,RIGHT or neumann")
        try:
            return Dirichlet(float(parts[0]), float(parts[1]))
        except ValueError as exc:
            raise DomainError(f"bad --boundary value: {exc}") from None
    raise DomainError(f"bad --boundary value {text!r}; "
                      "use dirichlet, dirichlet:LEFT,RIGHT, or neumann")


def _dispatch_targets() -> list[str]:
    """The SIMD targets numpy was built for that this CPU enables; the last
    bits of the transcendental kernels, and so the figure bytes, depend on
    them."""
    from numpy._core import _multiarray_umath as umath
    return [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]


def _sha256(path: Path) -> str:
    import hashlib
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_outputs(prefix: str, outputs) -> None:
    """Write ``<prefix>_<name>.csv`` for each ``(name, table, svg)``, and
    ``<prefix>_<name>.svg`` when ``svg`` is not None.  Handlers compute every
    output before they call this, so a run that fails writes no file."""
    from .csvio import write_csv
    for name, table, svg in outputs:
        write_csv(f"{prefix}_{name}.csv", *table)
        if svg is not None:
            Path(f"{prefix}_{name}.svg").write_text(svg, encoding="utf-8")


# --- command handlers -----------------------------------------------------

def cmd_simulate(args: argparse.Namespace) -> int:
    from .csvio import ensemble_table, write_csv
    from .processes import simulate
    spec = _spec_from_flags(args.family, args)
    ensemble = simulate(spec, args.t, args.dt, args.n, args.seed,
                        workers=args.workers)
    write_csv(args.out, *ensemble_table(ensemble))
    return 0


def cmd_diagnose(args: argparse.Namespace) -> int:
    from .csvio import read_ensemble_rows
    from .diagnostics import (DEFAULT_FAN_LEVELS, _check_options, _TimeRowStats,
                              preasymptotic_report)
    from .figures import (fan_series, fan_table, growth_table, preasym_series,
                          preasym_table, summary_series, summary_table)
    from .processes import simulate
    from .svgplot import LineBundle, render_svg
    want_fan = args.fan or args.fan_levels is not None
    if not (want_fan or args.summary or args.growth or args.preasym):
        raise DomainError("request at least one diagnostic "
                          "(--fan/--fan-levels, --summary, --growth, --preasym)")
    levels = (_parse_levels(args.fan_levels) if args.fan_levels is not None
              else DEFAULT_FAN_LEVELS)
    preasym = (args.tail_fraction, args.preasym_window) if args.preasym else ()
    levels = _check_options(levels, *preasym)  # before any data is read or simulated
    # --in streams the file's time rows into them, holding no ensemble array
    stats = _TimeRowStats(levels if want_fan else None, args.summary, args.growth)
    if args.infile is not None:
        grid = read_ensemble_rows(args.infile, stats.add)
    else:
        spec = _spec_from_flags(args.family, args)
        for flag in ("t", "dt", "n"):
            if getattr(args, flag) is None:
                raise DomainError(f"--{flag} is required when simulating inline")
        ensemble = simulate(spec, args.t, args.dt, args.n, args.seed,
                            workers=args.workers)
        stats.add(ensemble.values.T)
        grid = ensemble.grid
    times = grid.times

    def chart(title, series):  # the SVG text, when --svg asks for charts
        return (render_svg(LineBundle(title, "time", "value", series))
                if args.svg else None)

    outputs = []  # computed in this order, so that the first failure is reported
    if want_fan:
        fan = stats.fan()
        outputs.append(("fan", fan_table(fan, times),
                        chart("Quantile fan", fan_series(fan, times))))
    if args.summary:
        summary = stats.summary_curves()
        outputs.append(("summary", summary_table(summary, times),
                        chart("Ensemble summaries", summary_series(summary, times))))
    if args.growth:
        outputs.append(("growth", growth_table(stats.growth_rates(grid.horizon)), None))
    if args.preasym:
        report = preasymptotic_report(stats.joined("inst_0"), grid,
                                      tail_fraction=args.tail_fraction,
                                      window=args.preasym_window)
        outputs.append(("preasym", preasym_table(report, times),
                        chart("Preasymptotic diagnostics",
                              preasym_series(report, times))))
    _write_outputs(args.out_prefix, outputs)
    return 0


def cmd_spde(args: argparse.Namespace) -> int:
    import numpy as np

    from .figures import field_table, heatmap_bundle, profile_bundle, profile_table
    from .spde import SpdeSpec, simulate_heat_spde
    from .svgplot import render_svg
    boundary = _parse_boundary(args.boundary)
    length = args.L
    profile = {  # the --init choices
        "bump": lambda x: np.exp(-((x - 0.5 * length) / (0.1 * length)) ** 2),
        "sine": lambda x: np.sin(np.pi * x / length),
        "zero": np.zeros_like,
    }[args.init]
    spec = SpdeSpec(kappa=args.kappa, sigma=args.sigma, length=length,
                    boundary=boundary, initial_profile=profile)
    field = simulate_heat_spde(spec, args.dx, args.dt, args.t, args.seed)
    svgs = ((render_svg(heatmap_bundle(field)), render_svg(profile_bundle(field)))
            if args.svg else (None, None))
    _write_outputs(args.out_prefix, [("field", field_table(field), svgs[0]),
                                     ("profiles", profile_table(field), svgs[1])])
    return 0


def cmd_evolve(args: argparse.Namespace) -> int:
    from .agents import PoolConfig, evolutionary_optimize
    from .csvio import write_csv
    spec = _spec_from_flags(args.family, args)
    config = PoolConfig(
        n_agents=args.agents, generations=args.generations,
        mutation_sd=args.mutation_sd, survivor_share=args.survivor_share,
        horizon=args.t, dt=args.dt, paths_per_eval=args.paths,
        f_min=args.f_min, f_max=args.f_max, seed=args.seed,
        initial_fraction=args.initial_fraction)
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    # by default the usable cores up to 2, the most measured to gain, in groups
    # of at least 500 (fraction, path) columns, as narrower ones gained nothing
    workers = args.workers or min(cores, 2, max(1, args.agents * args.paths // 500))
    best, history = evolutionary_optimize(config, spec, workers=workers)
    write_csv(args.out, ["generation", "best_fraction", "best_fitness"],
              [[str(g) for g in range(len(history))],
               [stat.best_fraction for stat in history],
               [stat.best_fitness for stat in history]])
    print(f"{best:.17g}")
    return 0


def cmd_replicate(args: argparse.Namespace) -> int:
    import numpy as np

    from .csvio import write_csv
    from .figures import build_all
    bundles = build_all(args.seed, workers=args.workers)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    manifest_lines = [
        f"# stokit {__version__}",
        f"# numpy {np.__version__}",
        f"# dispatch {' '.join(_dispatch_targets()) or 'none'}",
        f"# command: stokit replicate --outdir {args.outdir} "
        f"--seed {args.seed} --workers {args.workers}",
    ]
    files: list[Path] = []
    for bundle in bundles:
        manifest_lines.append(f"# {bundle.note}")
        csv_path = outdir / f"{bundle.name}.csv"
        svg_path = outdir / f"{bundle.name}.svg"
        write_csv(csv_path, *bundle.table)
        svg_path.write_text(bundle.svg_text, encoding="utf-8")
        files.extend([csv_path, svg_path])
    for path in files:
        manifest_lines.append(f"{path.name}\t{_sha256(path)}")
    (outdir / "manifest.txt").write_text("\n".join(manifest_lines) + "\n",
                                         encoding="utf-8")
    print(f"wrote {len(files)} figure files and manifest.txt to {outdir}")
    return 0


# --- parser ----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stokit",
        description="Deterministic stochastic-process simulation, ergodicity "
                    "diagnostics, and figure replication.")
    parser.add_argument("--version", action="version",
                        version=f"stokit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="simulate an ensemble to CSV")
    fam_sub = p_sim.add_subparsers(dest="family", required=True)
    for family in _FAMILY_TYPES:
        p_fam = fam_sub.add_parser(family)
        _add_spec_flags(p_fam, [family])
        _add_run_flags(p_fam)
        p_fam.add_argument("--out", required=True, help="output CSV path")
        p_fam.set_defaults(func=cmd_simulate, family=family)

    p_diag = sub.add_parser("diagnose", help="ensemble diagnostics to CSV")
    p_diag.add_argument("--in", dest="infile", default=None,
                        help="ensemble CSV produced by 'simulate'")
    p_diag.add_argument("--family", choices=sorted(_FAMILY_TYPES), default=None,
                        help="simulate inline instead of reading --in")
    _add_spec_flags(p_diag, _FAMILY_TYPES)
    _add_run_flags(p_diag, required=False)
    p_diag.add_argument("--fan", action="store_true",
                        help="quantile fan at the default levels")
    p_diag.add_argument("--fan-levels", default=None,
                        help="comma-separated quantile levels in (0,1)")
    p_diag.add_argument("--summary", action="store_true")
    p_diag.add_argument("--growth", action="store_true")
    p_diag.add_argument("--preasym", action="store_true",
                        help="preasymptotics of inst_0")
    p_diag.add_argument("--preasym-window", type=int, default=50)
    p_diag.add_argument("--tail-fraction", type=float, default=0.5)
    p_diag.add_argument("--out-prefix", required=True)
    p_diag.add_argument("--svg", action="store_true",
                        help="also render SVG charts")
    p_diag.set_defaults(func=cmd_diagnose)

    p_spde = sub.add_parser("spde", help="stochastic heat equation to CSV")
    p_spde.add_argument("--kappa", type=float, required=True)
    p_spde.add_argument("--sigma", type=float, default=0.0)
    p_spde.add_argument("--L", type=float, required=True)
    p_spde.add_argument("--dx", type=float, required=True)
    p_spde.add_argument("--dt", type=float, required=True)
    p_spde.add_argument("--t", type=float, required=True)
    p_spde.add_argument("--boundary", default="dirichlet:0,0",
                        help="dirichlet[:LEFT,RIGHT] or neumann")
    p_spde.add_argument("--init", choices=("bump", "sine", "zero"), default="sine")
    p_spde.add_argument("--seed", type=int, default=12345)
    p_spde.add_argument("--out-prefix", required=True)
    p_spde.add_argument("--svg", action="store_true")
    p_spde.set_defaults(func=cmd_spde)

    p_evo = sub.add_parser("evolve", help="evolutionary leverage search")
    evolve_families = ("gbm", "glevy")
    p_evo.add_argument("--family", choices=evolve_families, default="gbm")
    _add_spec_flags(p_evo, evolve_families)
    p_evo.add_argument("--agents", type=int, default=40)
    p_evo.add_argument("--generations", type=int, default=30)
    p_evo.add_argument("--mutation-sd", type=float, default=0.1)
    p_evo.add_argument("--survivor-share", type=float, default=0.25)
    p_evo.add_argument("--t", type=float, default=200.0)
    p_evo.add_argument("--dt", type=float, default=0.01)
    p_evo.add_argument("--paths", type=int, default=50)
    p_evo.add_argument("--f-min", type=float, default=0.0)
    p_evo.add_argument("--f-max", type=float, default=3.0)
    p_evo.add_argument("--initial-fraction", type=float, default=None)
    p_evo.add_argument("--seed", type=int, default=12345)
    p_evo.add_argument("--workers", type=int, help="scoring threads (default: see README)")
    p_evo.add_argument("--out", required=True)
    p_evo.set_defaults(func=cmd_evolve)

    p_rep = sub.add_parser("replicate",
                           help="regenerate the five reference figures")
    p_rep.add_argument("--outdir", required=True)
    p_rep.add_argument("--seed", type=int, default=12345)
    p_rep.add_argument("--workers", type=int, default=1)
    p_rep.set_defaults(func=cmd_replicate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "workers", None) is not None and args.workers < 1:
            raise DomainError(f"--workers must be >= 1, got {args.workers}")
        return args.func(args)
    except (StokitError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return getattr(exc, "exit_code", 1)  # an OSError's or MemoryError's is 1


if __name__ == "__main__":
    sys.exit(main())
