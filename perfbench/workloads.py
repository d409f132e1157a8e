"""The benchmark's workloads: inputs, timed rounds, output checks and metrics.

A run works on a pool of input sets, each drawn from the workload seed and
its member number.  Round r works on member r mod pool, which is set up
just before its first round.  A round is one operation: a `fit` (unless the
workload fits during set-up), batched `evaluate` calls over the evaluation
points and a series of single-point `evaluate` calls.  Rounds continue until
the timed program calls add up to the requested seconds and every member
has had a round.  Each round's outputs are checked before the next starts;
a failed check or an exception fails that round's operation.
"""

from __future__ import annotations

import resource
import statistics
import time
from dataclasses import dataclass, field, fields

import numpy as np

import checks
import tracing
from sphshepard import datasets, shepard
from sphshepard.kernels import InverseMultiquadric

# Published f1 RRMSE (gamma = 0.5, 600 spiral points), the accuracy the
# checks compare against.
PUBLISHED_F1_N16000_L2 = 4.3374e-8
PUBLISHED_F1_N4000_LM1 = 2.8568e-5

# Member k of seed s draws its nodes with seed SEED_STRIDE * s + k; the
# random evaluation points use seed SEED_STRIDE * s + EVAL_SEED_OFFSET.
SEED_STRIDE = 1000
EVAL_SEED_OFFSET = 999

# A set-up without a fit takes about a millisecond, so it is repeated this
# many times before every round (the inputs come out the same) and setup_s
# is a median over the whole run, like the rounds' figures.
SETUP_REPEATS = 5


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    gamma: float
    degree: int
    strict: bool
    pool: int            # input sets per run
    n_eval: int          # evaluation points; spiral unless random_eval
    random_eval: bool
    batch: int           # points per batched evaluate call
    n_single: int        # single-point evaluate calls per round
    fit_in_setup: bool
    rrmse_band: tuple    # accepted rrmse range per member
    n_z: int = 15
    n_w: int = 10

    def config(self) -> shepard.ShepardConfig:
        return shepard.ShepardConfig(
            n_z=self.n_z,
            n_w=self.n_w,
            kernel=InverseMultiquadric(self.gamma),
            degree=self.degree,
            strict=self.strict,
        )


_PUBLISHED_BAND = (PUBLISHED_F1_N16000_L2 / 10.0, PUBLISHED_F1_N16000_L2 * 10.0)

WORKLOADS = {
    w.name: w
    for w in (
        Workload("fit-16k", n=16000, gamma=0.5, degree=2, strict=True, pool=8,
                 n_eval=600, random_eval=False, batch=600, n_single=100,
                 fit_in_setup=False, rrmse_band=_PUBLISHED_BAND),
        Workload("eval-20k", n=16000, gamma=0.5, degree=2, strict=True, pool=4,
                 n_eval=20000, random_eval=True, batch=1000, n_single=100,
                 fit_in_setup=True, rrmse_band=_PUBLISHED_BAND),
        Workload("flat-limit", n=4000, gamma=0.05, degree=-1, strict=False, pool=12,
                 n_eval=600, random_eval=False, batch=600, n_single=100,
                 fit_in_setup=False, rrmse_band=(0.0, PUBLISHED_F1_N4000_LM1)),
    )
}


@dataclass
class Member:
    """One input set of the pool, plus its set-up model on eval-20k."""

    nodes: np.ndarray
    values: np.ndarray
    eval_points: np.ndarray
    single_ids: np.ndarray
    model: object = None
    setup_s: float = 0.0
    fit_s: float = 0.0
    rrmse: float | None = None


def set_up(w: Workload, seed: int, k: int) -> Member:
    """Generate member k's inputs (and fit its model on eval-20k), timed."""
    t0 = time.perf_counter()
    nodes = datasets.random_uniform_sphere(w.n, SEED_STRIDE * seed + k).points
    values = datasets.test_function("f1", nodes)
    if w.random_eval:
        pts = datasets.random_uniform_sphere(w.n_eval, SEED_STRIDE * seed + EVAL_SEED_OFFSET).points
    else:
        pts = datasets.spiral_points(w.n_eval).points
    member = Member(nodes, values, pts, np.arange(w.n_single) * (w.n_eval // w.n_single))
    if w.fit_in_setup:
        t1 = time.perf_counter()
        member.model = shepard.fit(nodes, values, w.config())
        member.fit_s = time.perf_counter() - t1
    member.setup_s = time.perf_counter() - t0
    return member


@dataclass
class Round:
    model: object
    fit_s: float | None
    eval_s: float
    batched: np.ndarray
    singles: np.ndarray
    latencies: list
    model_mb: float = 0.0
    fallback_rows: int = 0

    @property
    def timed_s(self) -> float:
        return (self.fit_s or 0.0) + self.eval_s + sum(self.latencies)


def run_round(w: Workload, m: Member) -> Round:
    """One operation on member m; only program calls are timed."""
    clock = time.perf_counter
    fit_s = None
    model = m.model
    if model is None:
        t0 = clock()
        model = shepard.fit(m.nodes, m.values, w.config())
        fit_s = clock() - t0
    t0 = clock()
    parts = [shepard.evaluate(model, m.eval_points[i : i + w.batch])
             for i in range(0, w.n_eval, w.batch)]
    eval_s = clock() - t0
    singles = np.empty(w.n_single)
    latencies = []
    for j, i in enumerate(m.single_ids):
        t0 = clock()
        singles[j] = shepard.evaluate(model, m.eval_points[i : i + 1])[0]
        latencies.append(clock() - t0)
    return Round(model, fit_s, eval_s, np.concatenate(parts), singles, latencies)


def check_round(w: Workload, m: Member, r: Round) -> list[str]:
    """Compare a round's outputs with independent computations and published values."""
    model = r.model
    problems = checks.check_finite(
        "model coefficients", model.coeff_a, model.coeff_b
    ) + checks.check_finite("evaluated values", r.batched, r.singles)
    if problems:
        return problems
    if r.fit_s is not None:
        problems += checks.check_neighbors(m.nodes, model.neighbor_ids)
        if w.strict:
            problems += checks.check_local_residuals(
                m.nodes, m.values, model.neighbor_ids, model.coeff_a, model.coeff_b,
                w.gamma, w.degree,
            )
    ref, scale = checks.reference_blend(
        m.nodes, model.neighbor_ids, model.coeff_a, model.coeff_b,
        w.gamma, w.degree, w.n_w, m.eval_points[m.single_ids],
    )
    problems += checks.check_close(r.batched[m.single_ids], ref, scale, "batched evaluate")
    problems += checks.check_close(r.singles, r.batched[m.single_ids], scale, "single-point evaluate")
    truth = checks.f1(m.eval_points)
    value = checks.rrmse(r.batched, truth)
    problems += checks.check_rrmse(value, *w.rrmse_band, w.name)
    if m.rrmse is None:
        m.rrmse = value
    return problems


def model_mb(model) -> float:
    return sum(
        getattr(model, f.name).nbytes
        for f in fields(model)
        if isinstance(getattr(model, f.name), np.ndarray)
    ) / 1e6


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Outcome:
    """Operations attempted and failed; `correct` is false once an output check fails."""

    attempted: int = 0
    failed: int = 0
    correct: bool = True
    problems: list = field(default_factory=list)

    def record(self, problems: list[str], raised: bool = False) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
            self.correct = self.correct and raised


def _do_round(w, m, outcome):
    """Run and check one round; returns (round or None, wall seconds)."""
    t0 = time.perf_counter()
    try:
        r = run_round(w, m)
    except Exception as exc:  # a program failure fails this operation only
        outcome.record([f"{type(exc).__name__}: {exc}"], raised=True)
        return None, time.perf_counter() - t0
    elapsed = time.perf_counter() - t0
    try:
        problems = check_round(w, m, r)
    except Exception as exc:  # output the checks cannot read is wrong output
        problems = [f"check raised {type(exc).__name__}: {exc}"]
    outcome.record(problems)
    # Keep only the figures: a run must not hold one model per round.
    r.model_mb = model_mb(r.model)
    r.fallback_rows = int(np.count_nonzero(r.model.used_fallback))
    r.model = r.batched = r.singles = None
    return r, elapsed


def run(name: str, seed: int, seconds: float, trace: bool):
    """Run one workload; returns (outcome, metrics, info, tracer or None).

    Member k is set up just before its first round, so that set-up fits
    (on eval-20k) are spread over the run like the rounds.
    """
    w = WORKLOADS[name]
    outcome = Outcome()
    tracer = tracing.Tracer() if trace else None
    members, setup_times = [], []

    def member(k: int) -> Member:
        if k == len(members):
            if tracer is None:
                members.append(set_up(w, seed, k))
            else:
                tracer.current_phase = tracing.PHASE_SETUP
                with tracer.installed():
                    members.append(set_up(w, seed, k))
                tracer.current_phase = tracing.PHASE_ROUND
            setup_times.append(members[k].setup_s)
        if tracer is None and not w.fit_in_setup:
            setup_times.extend(set_up(w, seed, k).setup_s for _ in range(SETUP_REPEATS))
        return members[k]

    if not trace:
        rounds = []
        timed = 0.0
        while timed < seconds or len(rounds) < w.pool:
            r, elapsed = _do_round(w, member(len(rounds) % w.pool), outcome)
            rounds.append(r)
            timed += r.timed_s if r else elapsed
        done = [r for r in rounds if r is not None]
        metrics = end_to_end(w, members, setup_times, done) if done else {}
        latencies = [x for r in done for x in r.latencies]
        info = {
            "rounds": len(rounds),
            "latency_samples": len(latencies),
            "latency_p95_s": float(np.percentile(latencies, 95)) if latencies else None,
            "fit_s_per_round": [r.fit_s for r in done],
            "eval_s_per_round": [r.eval_s for r in done],
            "fit_fallback_rows": [r.fallback_rows for r in done],
            "rrmse_per_member": [m.rrmse for m in members],
        }
        return outcome, metrics, info, None

    # Traced run: alternate an untraced and a traced round on the same member.
    overheads = []
    timed = 0.0
    pairs = 0
    while timed < seconds or pairs < 1:
        m = member(pairs % w.pool)
        plain, plain_s = _do_round(w, m, outcome)
        with tracer.installed():
            traced, traced_s = _do_round(w, m, outcome)
        pairs += 1
        timed += plain_s + traced_s
        if plain and traced:
            overheads.append(traced.timed_s - plain.timed_s)
    metrics = tracing.layer_metrics(tracer, n_setups=len(setup_times), n_rounds=pairs)
    metrics["trace.overhead_s"] = (statistics.median(overheads) if overheads else 0.0, "s")
    by_layer, fit_total = tracing.fit_self_time_by_layer(tracer)
    layer_sum = sum(by_layer.values())
    if abs(layer_sum - fit_total) > 1e-6 * fit_total:
        outcome.correct = False
        outcome.problems.append(
            f"traced fit self times sum to {layer_sum:.6f} s, fit spans to {fit_total:.6f} s"
        )
    info = {
        "traced_rounds": pairs,
        "spans": len(tracer.start),
        "fit_self_s_by_layer": by_layer,
        "fit_traced_s": fit_total,
    }
    return outcome, metrics, info, tracer


def end_to_end(w: Workload, members, setup_times, rounds) -> dict[str, tuple[float, str]]:
    fit_times = [m.fit_s for m in members] if w.fit_in_setup else [r.fit_s for r in rounds]
    member_rrmse = [m.rrmse for m in members if m.rrmse is not None]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "fit_s": (statistics.median(fit_times), "s"),
        "eval_points_per_s": (w.n_eval / statistics.median(r.eval_s for r in rounds), "points/s"),
        "eval_point_latency_s": (
            statistics.median(x for r in rounds for x in r.latencies), "s"),
        "rrmse": (statistics.median(member_rrmse), "1"),
        "model_mb": (rounds[-1].model_mb, "MB"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
