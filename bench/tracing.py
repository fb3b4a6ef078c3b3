"""Span tracing from outside the program, for the benchmark's traced runs.

`Tracer.installed()` wraps stokit's public functions and rebinds every name
that refers to them in the ``stokit`` package and module namespaces, so calls
between modules open nested spans (agents -> processes -> rng,
figures -> diagnostics / csvio / svgplot).  A span's self time is its
duration minus the time its child spans cover.  Spans are aggregated per
kind as they close; the counts are taken at the same boundaries.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict

from stokit import agents, cli, csvio, diagnostics, figures, processes, rng, spde, svgplot


def _stream_counter(args):
    return args[0].counter


def _count_slots(counts, args, result, before, outermost):
    # Poisson sampling hands unused slots back, so count the net advance of
    # the outermost sampling call on its stream.
    if outermost:
        counts["rng.slots"] += args[0].counter - before


def _count_substream(counts, args, result, before, outermost):
    counts["rng.substreams"] += 1


def _count_instances(counts, args, result, before, outermost):
    counts["processes.instances"] += result.num_instances
    counts["processes.instance_steps"] += result.num_instances * result.grid.n_steps


def _count_bytes_out(counts, args, result, before, outermost):
    counts["csvio.bytes_out"] += len(result.encode("utf-8"))


def _count_bytes_in(counts, args, result, before, outermost):
    counts["csvio.bytes_in"] += len(args[0].encode("utf-8"))


def _count_svg_bytes(counts, args, result, before, outermost):
    if outermost:
        counts["svgplot.bytes"] += len(result.encode("utf-8"))


def _count_node_steps(counts, args, result, before, outermost):
    rows, nodes = result.u.shape
    counts["spde.node_steps"] += (rows - 1) * nodes


def _count_fitness(counts, args, result, before, outermost):
    counts["agents.fitness_evals"] += 1
    counts["agents.ruin_evals"] += result.ruin_events > 0


# (owner, attribute, span kind, before hook, after hook)
SPANS = [
    (rng, "sample_gaussian", "rng.sample", _stream_counter, _count_slots),
    (rng, "sample_stable", "rng.sample", _stream_counter, _count_slots),
    (rng, "sample_poisson_events", "rng.sample", _stream_counter, _count_slots),
    (rng.RngStream, "uniforms", "rng.sample", _stream_counter, _count_slots),
    (rng, "substream", "rng.substream", None, _count_substream),
    (processes, "simulate", "processes", None, _count_instances),
    (csvio, "render_csv", "csvio.render", None, _count_bytes_out),
    (csvio, "ensemble_to_csv", "csvio.render", None, None),
    (csvio, "write_csv", "csvio.render", None, None),
    (csvio, "parse_ensemble_csv", "csvio.parse", None, _count_bytes_in),
    (csvio, "read_ensemble_csv", "csvio.parse", None, None),
    *[(diagnostics, name, "diagnostics", None, None)
      for name in ("quantile_fan", "summary_curves", "growth_rates",
                   "preasymptotic_report")],
    (svgplot, "render_svg", "svgplot.render", None, _count_svg_bytes),
    (svgplot, "render_panels", "svgplot.render", None, _count_svg_bytes),
    *[(figures, name, "figures", None, None)
      for name in ("build_fig1", "build_fig2", "build_fig3", "build_fig4",
                   "build_fig5", "build_all")],
    (spde, "simulate_heat_spde", "spde", None, _count_node_steps),
    (spde, "extract_profiles", "spde", None, None),
    (agents, "growth_from_factors", "agents.fitness", None, _count_fitness),
    (agents, "evolutionary_optimize", "agents", None, None),
    (cli, "main", "cli", None, None),
]

KINDS = tuple(dict.fromkeys(kind for _, _, kind, _, _ in SPANS))
COUNTS = ("rng.substreams", "rng.slots", "processes.instances",
          "processes.instance_steps", "csvio.bytes_out", "csvio.bytes_in",
          "svgplot.bytes", "spde.node_steps", "agents.fitness_evals",
          "agents.ruin_evals")


def self_time_metric(kind: str) -> str:
    """``rng.sample`` -> ``rng.sample_s``; ``processes`` -> ``processes.self_s``."""
    return f"{kind}_s" if "." in kind else f"{kind}.self_s"


class Tracer:
    """Aggregated spans of one traced round."""

    def __init__(self):
        self._open: list[list] = []  # [kind, seconds covered by children]
        self.self_s = dict.fromkeys(KINDS, 0.0)
        self.counts = dict.fromkeys(COUNTS, 0)
        self.edges = defaultdict(lambda: [0, 0.0])  # (parent, kind) -> [calls, s]

    def _wrap(self, fn, kind, before, after):
        open_spans, self_s, counts, edges = self._open, self.self_s, self.counts, self.edges

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = open_spans[-1][0] if open_spans else "bench"
            token = before(args) if before else None
            frame = [kind, 0.0]
            open_spans.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                open_spans.pop()
                self_s[kind] += elapsed - frame[1]
                if open_spans:
                    open_spans[-1][1] += elapsed
                edge = edges[parent, kind]
                edge[0] += 1
                edge[1] += elapsed
            if after:
                after(counts, args, result, token, parent != kind)
            return result

        return span

    @contextlib.contextmanager
    def installed(self):
        """Rebind every stokit name bound to a traced function, then restore."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "stokit" or name.startswith("stokit.")]
        saved = []
        try:
            for owner, attribute, kind, before, after in SPANS:
                original = owner.__dict__[attribute]
                wrapped = self._wrap(original, kind, before, after)
                holders = [owner] if isinstance(owner, type) else modules
                for holder in holders:
                    for name, value in list(vars(holder).items()):
                        if value is original:
                            saved.append((holder, name, original))
                            setattr(holder, name, wrapped)
            yield self
        finally:
            for holder, name, original in reversed(saved):
                setattr(holder, name, original)

