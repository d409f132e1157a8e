"""Outside-in span tracing of sphshepard's layers.

The tracer replaces public functions of the program's modules with wrappers
for as long as `installed` is active.  Each call records a span: name,
start, end, parent span, the stage (fit or eval, from the enclosing `fit`
or `evaluate` span), the phase of the benchmark (set-up or round) and a
per-name count.  Spans stay in memory, in compact arrays, until the run
writes them out.

A span's self time is its duration minus the time its child spans cover.
Calls are nested and single-threaded, so children never overlap and the
self times of all spans under a `fit` span add up to that span.
"""

from __future__ import annotations

import functools
import time
from array import array
from contextlib import contextmanager

import numpy as np

from sphshepard import datasets, harmonics, shepard, zones
from sphshepard.kernels import InverseMultiquadric
from sphshepard.zones import ZoneIndex

STAGE_NONE, STAGE_FIT, STAGE_EVAL = 0, 1, 2
PHASE_SETUP, PHASE_ROUND = 0, 1

# Layer of each span name: the module the wrapped function belongs to.
LAYERS = ("zones", "sphere", "localfit", "kernels", "harmonics", "shepard", "datasets")


def _solve_systems(args) -> int:
    a = np.asarray(args[0])
    return int(np.prod(a.shape[:-2], dtype=np.int64)) if a.ndim > 2 else 1


def _solve_flop(args) -> float:
    """LU with partial pivoting (2/3 N^3) plus two triangular solves per rhs (2 N^2)."""
    a, b = np.asarray(args[0]), np.asarray(args[1])
    n = a.shape[-1]
    nrhs = b.shape[-1] if b.ndim == a.ndim else 1
    return _solve_systems(args) * (2.0 / 3.0 * n**3 + 2.0 * n * n * nrhs)


class Tracer:
    """Span recorder; `installed()` patches the program while active."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("h")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.stage = array("b")
        self.phase = array("b")
        self.count = array("q")
        self.flop = array("d")
        self._stack = [-1]
        self._stage = STAGE_NONE
        self.current_phase = PHASE_SETUP

    def wrap(self, name, fn, stage=None, count=None, flop=None):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            outer = self._stage
            if stage is not None:
                self._stage = stage
            self.name.append(nid)
            self.parent.append(stack[-1])
            self.stage.append(self._stage)
            self.phase.append(self.current_phase)
            self.end.append(0.0)
            self.count.append(0)
            self.flop.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
                self._stage = outer
            if count is not None:
                self.count[idx] = count(args, result)
            if flop is not None:
                self.flop[idx] = flop(args)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap the program's layer functions; restore the originals on exit."""
        targets = [
            ("shepard.fit", shepard, "fit",
             dict(stage=STAGE_FIT, count=lambda a, r: int(np.count_nonzero(r.used_fallback)))),
            ("shepard.evaluate", shepard, "evaluate", dict(stage=STAGE_EVAL)),
            ("shepard.weights", shepard, "weights", {}),
            ("zones.build_zones", shepard, "build_zones", {}),
            ("localfit.solve_saddle_batch", shepard, "solve_saddle_batch",
             dict(count=lambda a, r: int(np.shape(a[2])[0]))),
            ("zones.nearest_m", ZoneIndex, "nearest_m", dict(count=lambda a, r: len(r))),
            ("zones.query_cap", ZoneIndex, "query_cap", {}),
            ("sphere.geodesic_distance", zones, "geodesic_distance",
             dict(count=lambda a, r: int(np.size(r)))),
            ("kernels.at_cos", InverseMultiquadric, "at_cos",
             dict(count=lambda a, r: int(np.size(r)))),
            ("harmonics.sh_basis", harmonics, "sh_basis", {}),
            ("localfit.lu", np.linalg, "solve",
             dict(count=lambda a, r: _solve_systems(a), flop=_solve_flop)),
            ("localfit.lstsq", np.linalg, "lstsq", {}),
            ("datasets.random_uniform_sphere", datasets, "random_uniform_sphere", {}),
            ("datasets.spiral_points", datasets, "spiral_points", {}),
            ("datasets.test_function", datasets, "test_function", {}),
        ]
        saved = []
        try:
            for name, owner, attr, opts in targets:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, **opts))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        out = {
            "name": np.frombuffer(self.name, dtype=np.int16),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "stage": np.frombuffer(self.stage, dtype=np.int8),
            "phase": np.frombuffer(self.phase, dtype=np.int8),
            "count": np.frombuffer(self.count, dtype=np.int64),
            "flop": np.frombuffer(self.flop, dtype=np.float64),
        }
        dur = out["end"] - out["start"]
        has_parent = out["parent"] >= 0
        covered = np.bincount(
            out["parent"][has_parent], weights=dur[has_parent], minlength=dur.size
        )
        out["dur"] = dur
        out["self"] = dur - covered
        return out

    def save(self, path) -> None:
        arr = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), **arr)


def layer_metrics(tr: Tracer, n_setups: int, n_rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures for one set-up plus one round of the workload."""
    s = tr.arrays()
    ids = {name: i for i, name in enumerate(tr.names)}
    setup = s["phase"] == PHASE_SETUP
    rnd = s["phase"] == PHASE_ROUND

    def of(name, stage=None):
        mask = s["name"] == ids[name]
        if stage is not None:
            mask &= s["stage"] == stage
        return mask

    def per_unit(mask, column=None):
        x = np.ones(mask.size) if column is None else s[column]
        return float(x[mask & setup].sum() / n_setups + x[mask & rnd].sum() / n_rounds)

    def ratio(num, den):
        return num / den if den else 0.0

    fit_nm, eval_nm = of("zones.nearest_m", STAGE_FIT), of("zones.nearest_m", STAGE_EVAL)
    fit_searches, eval_searches = per_unit(fit_nm), per_unit(eval_nm)
    solve = of("localfit.solve_saddle_batch")
    lu = of("localfit.lu")
    dist = of("sphere.geodesic_distance")
    return {
        "zones.fit_search_s": (per_unit(fit_nm, "dur"), "s"),
        "zones.fit_searches": (fit_searches, "count"),
        "zones.fit_caps_per_search": (
            ratio(per_unit(of("zones.query_cap", STAGE_FIT)), fit_searches), "ratio"),
        "zones.eval_search_s": (per_unit(eval_nm, "dur"), "s"),
        "zones.eval_searches": (eval_searches, "count"),
        "zones.eval_caps_per_search": (
            ratio(per_unit(of("zones.query_cap", STAGE_EVAL)), eval_searches), "ratio"),
        "zones.build_s": (per_unit(of("zones.build_zones"), "dur"), "s"),
        "zones.build_calls": (per_unit(of("zones.build_zones")), "count"),
        "zones.candidates_per_neighbor": (
            ratio(per_unit(dist, "count"), per_unit(of("zones.nearest_m"), "count")), "ratio"),
        "sphere.distance_s": (per_unit(dist, "dur"), "s"),
        "sphere.distances": (per_unit(dist, "count"), "count"),
        "localfit.solve_s": (per_unit(solve, "dur"), "s"),
        "localfit.lu_s": (per_unit(lu, "dur"), "s"),
        "localfit.lu_systems_per_neighborhood": (
            ratio(per_unit(lu, "count"), per_unit(solve, "count")), "ratio"),
        "localfit.lu_gflop_computed": (per_unit(lu, "flop") / 1e9, "GFLOP"),
        # The least-squares rung is counted in the ladder: on its own it reads
        # exactly 0 s wherever no neighbourhood reaches it.
        "localfit.ladder_s": (
            per_unit(solve, "self") + per_unit(of("localfit.lstsq"), "dur"), "s"),
        "localfit.lstsq_rows": (per_unit(of("shepard.fit"), "count"), "count"),
        "kernels.at_cos_s": (per_unit(of("kernels.at_cos"), "dur"), "s"),
        "kernels.evaluations": (per_unit(of("kernels.at_cos"), "count"), "count"),
        "harmonics.sh_basis_s": (per_unit(of("harmonics.sh_basis"), "dur"), "s"),
        "harmonics.calls": (per_unit(of("harmonics.sh_basis")), "count"),
        "shepard.weights_s": (per_unit(of("shepard.weights"), "dur"), "s"),
        "shepard.weights_calls": (per_unit(of("shepard.weights")), "count"),
        "shepard.blend_self_s": (per_unit(of("shepard.evaluate"), "self"), "s"),
        "shepard.fit_self_s": (per_unit(of("shepard.fit"), "self"), "s"),
        "datasets.generate_s": (
            sum(per_unit(of(n), "dur") for n in tr.names if n.startswith("datasets.")), "s"),
    }


def fit_self_time_by_layer(tr: Tracer) -> tuple[dict[str, float], float]:
    """Self time per layer of the spans inside traced `fit` calls, and the
    time of those calls, both per call."""
    s = tr.arrays()
    in_fit = s["stage"] == STAGE_FIT
    fits = s["name"] == tr.names.index("shepard.fit")
    calls = max(int(fits.sum()), 1)
    layer_of = np.array([LAYERS.index(n.split(".")[0]) for n in tr.names])
    by_layer = np.bincount(
        layer_of[s["name"][in_fit]], weights=s["self"][in_fit], minlength=len(LAYERS)
    )
    return {k: float(v) / calls for k, v in zip(LAYERS, by_layer)}, float(s["dur"][fits].sum()) / calls
