"""Span tracer that wraps the package's public functions from outside.

Nothing under ``src/`` knows about it: ``Tracer.installed`` replaces each
function on the name its caller looks it up by, records one span per call,
and puts the originals back on exit.  A span's self time is its duration
minus the durations of the spans opened inside it, so the self times of all
spans add up to the duration of the outermost one.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict

# The value gp.train_gp's objective returns when the kernel matrix cannot be
# factorized (its local ``big``).
NLML_SENTINEL = 1e25

# Training sets of at most this many rows are "small" (the local GPs of the
# ANOVA terms), larger ones are "large" (the S-GP baseline).
SMALL_GP_MAX_N = 64

# Spans whose summed durations make up each layer's busy time.
_LAYER_SPANS = {
    "simulators": ["simulators.DiffusionSimulator.evaluate"],
    "quadrature": ["quadrature.cc_rule", "quadrature.map_rule",
                   "quadrature.tensor_grid", "quadrature.weighted_mean"],
    "pca": ["pca.fit_pca"],
    "gp.fit.small": ["gp.train_gp.small"],
    "gp.fit.large": ["gp.train_gp.large"],
    "gp.predict": ["gp.predict", "gp.predict_batch"],
    "emulator.predict": ["emulator.AnovaGpEmulator.predict_mean",
                         "emulator.predict_sgp_mean"],
}

_ANOVA_SPANS = ["anova.adaptive_decompose", "anova.term_mean",
                "anova.term_value", "anova.SimCache.evaluate"]


class Tracer:
    """Call counts, durations and self times per span name, plus counters."""

    def __init__(self):
        self._open: list[list[float]] = []   # per open span: [child seconds]
        self._gp_size: list[str] = []        # size class of open train_gp spans
        self._patches: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.nlml_s: dict[str, float] = defaultdict(float)  # per size class

    def call(self, name: str, func, *args, **kwargs):
        """Run ``func`` inside a span called ``name``."""
        frame = [0.0]
        self._open.append(frame)
        start = time.perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            self._open.pop()
            if self._open:
                self._open[-1][0] += duration
            self.calls[name] += 1
            self.total_s[name] += duration
            self.self_s[name] += duration - frame[0]

    # -- wrapper installation ------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, functools.wraps(original)(wrapper(original)))
        self._patches.append((owner, attr, original))

    def _span(self, owner, attr: str, name: str, counter: str = "") -> None:
        def wrapper(original):
            def traced(*args, **kwargs):
                if counter:
                    self.counts[counter] += 1
                return self.call(name, original, *args, **kwargs)
            return traced
        self._patch(owner, attr, wrapper)

    @contextlib.contextmanager
    def installed(self):
        """Wrap the package's layer boundaries for the duration of the block."""
        from anovagp import anova, bench, cli, emulator, gp, simulators
        try:
            self._span(simulators.DiffusionSimulator, "evaluate",
                       "simulators.DiffusionSimulator.evaluate")
            self._patch(anova.SimCache, "evaluate", self._cache_lookup)
            self._span(anova, "term_value", "anova.term_value")
            # train_local calls term_value once per active-training step
            self._span(emulator, "term_value", "anova.term_value",
                       counter="active_steps")
            self._span(anova, "term_mean", "anova.term_mean")
            for owner in (bench, cli):
                self._span(owner, "adaptive_decompose",
                           "anova.adaptive_decompose")
            for attr in ("cc_rule", "map_rule", "tensor_grid", "weighted_mean"):
                self._span(anova, attr, f"quadrature.{attr}")
            self._span(emulator, "fit_pca", "pca.fit_pca")
            self._patch(emulator, "train_gp", self._train_gp)
            self._patch(gp, "minimize", self._minimize)
            self._span(gp, "predict", "gp.predict")
            self._span(emulator, "predict_batch", "gp.predict_batch")
            self._span(bench, "train_local", "emulator.train_local")
            self._span(bench, "train_sgp", "emulator.train_sgp")
            self._span(emulator.AnovaGpEmulator, "predict_mean",
                       "emulator.AnovaGpEmulator.predict_mean")
            for owner in (bench, cli):
                self._span(owner, "predict_sgp_mean",
                           "emulator.predict_sgp_mean")
            self._span(bench, "save_emulator", "emulator.save_emulator")
            self._span(cli, "load_emulator", "emulator.load_emulator")
            self._span(cli, "cmd_predict", "cli.cmd_predict")
            self._span(cli, "cmd_decompose", "cli.cmd_decompose")
            self._span(bench, "run_experiment", "bench.run_experiment")
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)

    def _cache_lookup(self, original):
        def evaluate(cache, xi):
            misses = cache.misses
            out = self.call("anova.SimCache.evaluate", original, cache, xi)
            self.counts["cache_lookups"] += 1
            self.counts["cache_hits"] += cache.misses == misses
            return out
        return evaluate

    def _train_gp(self, original):
        def train_gp(inputs, *args, **kwargs):
            n = len(inputs)
            size = "small" if n <= SMALL_GP_MAX_N else "large"
            self._gp_size.append(size)
            try:
                return self.call(f"gp.train_gp.{size}", original, inputs,
                                 *args, **kwargs)
            finally:
                self._gp_size.pop()
        return train_gp

    def _minimize(self, original):
        counts = self.counts

        def minimize(fun, x0, *args, **kwargs):
            size = self._gp_size[-1] if self._gp_size else "small"

            def objective(theta):
                start = time.perf_counter()
                value, grad = fun(theta)
                self.nlml_s[size] += time.perf_counter() - start
                counts[f"nlml_evals.{size}"] += 1
                counts["nlml_sentinel_evals"] += value >= NLML_SENTINEL
                return value, grad

            result = original(objective, x0, *args, **kwargs)
            counts["lbfgs_runs"] += 1
            max_iter = kwargs.get("options", {}).get("maxiter")
            counts["lbfgs_maxiter_hits"] += (max_iter is not None
                                             and result.nit >= max_iter)
            return result
        return minimize

    # -- per-layer metrics ---------------------------------------------------

    def busy(self, layer: str) -> float:
        return sum(self.total_s[n] for n in _LAYER_SPANS[layer])

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """The per-layer metrics as name -> (value, unit)."""
        c, calls = self.counts, self.calls
        solves = calls["simulators.DiffusionSimulator.evaluate"]
        fits = calls["pca.fit_pca"]
        lookups = c["cache_lookups"]

        def per(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        out = {
            "simulators.solves": (solves, "count"),
            "simulators.busy_s": (self.busy("simulators"), "s"),
            "simulators.ms_per_solve": (
                per(self.busy("simulators"), solves, 1e3), "ms"),
            "anova.cache_lookups": (lookups, "count"),
            "anova.cache_hit_ratio": (per(c["cache_hits"], lookups), "ratio"),
            "anova.term_value_calls": (calls["anova.term_value"], "count"),
            "anova.self_s": (sum(self.self_s[n] for n in _ANOVA_SPANS), "s"),
            "quadrature.busy_s": (self.busy("quadrature"), "s"),
            "pca.fits": (fits, "count"),
            "pca.busy_s": (self.busy("pca"), "s"),
            "pca.ms_per_fit": (per(self.busy("pca"), fits, 1e3), "ms"),
        }
        for size in ("small", "large"):
            out[f"gp.fits.{size}"] = (calls[f"gp.train_gp.{size}"], "count")
            out[f"gp.fit_busy_s.{size}"] = (self.busy(f"gp.fit.{size}"), "s")
            out[f"gp.ms_per_nlml_eval.{size}"] = (
                per(self.nlml_s[size], c[f"nlml_evals.{size}"], 1e3), "ms")
        out.update({
            "gp.lbfgs_runs": (c["lbfgs_runs"], "count"),
            "gp.nlml_evals": (c["nlml_evals.small"] + c["nlml_evals.large"],
                              "count"),
            "gp.nlml_sentinel_evals": (c["nlml_sentinel_evals"], "count"),
            "gp.lbfgs_maxiter_hits": (c["lbfgs_maxiter_hits"], "count"),
            "gp.predict_calls": (calls["gp.predict"] + calls["gp.predict_batch"],
                                 "count"),
            "gp.predict_busy_s": (self.busy("gp.predict"), "s"),
            "emulator.active_steps": (c["active_steps"], "count"),
            "emulator.train_local_self_s": (
                self.self_s["emulator.train_local"], "s"),
            "emulator.train_sgp_self_s": (self.self_s["emulator.train_sgp"], "s"),
            "emulator.predict_busy_s": (self.busy("emulator.predict"), "s"),
            "emulator.save_s": (self.total_s["emulator.save_emulator"], "s"),
            "emulator.load_s": (self.total_s["emulator.load_emulator"], "s"),
            "cli.predict_self_s": (self.self_s["cli.cmd_predict"], "s"),
            "bench.self_s": (self.self_s["bench.run_experiment"], "s"),
        })
        return out
