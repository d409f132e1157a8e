"""The benchmark's tracer and metrics still find every program name they patch or read.

perfbench/tracing.py wraps functions of the program by name while a traced
run is active, and perfbench/workloads.py reads model attributes; a renamed
or deleted name would otherwise fail only a benchmark run.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from sphshepard import ShepardConfig, random_uniform_sphere, shepard, spiral_points  # noqa: E402

SPANS = (
    "shepard.fit", "shepard.evaluate", "shepard.weights", "zones.build_zones",
    "localfit.solve_saddle_batch", "zones.nearest_m", "sphere.geodesic_distance",
    "kernels.at_cos", "harmonics.sh_basis", "localfit.lu",
)


def test_traced_fit_and_evaluate_feed_every_layer_metric():
    nodes = random_uniform_sphere(300, 0).points
    tr = tracing.Tracer()
    tr.current_phase = tracing.PHASE_ROUND
    with tr.installed():
        model = shepard.fit(nodes, np.exp(nodes[:, 0]), ShepardConfig(degree=1))
        shepard.evaluate(model, spiral_points(40).points)
        shepard.evaluate(model, nodes[0])
    recorded = {tr.names[i] for i in np.unique(tr.arrays()["name"])}
    assert set(SPANS) <= recorded

    metrics = tracing.layer_metrics(tr, n_setups=1, n_rounds=1)
    assert all(np.isfinite(value) for value, _ in metrics.values())
    assert metrics["zones.fit_searches"][0] == 1 and metrics["zones.eval_searches"][0] == 2
    assert metrics["localfit.lu_systems_per_neighborhood"][0] >= 1.0
    by_layer, fit_total = tracing.fit_self_time_by_layer(tr)
    assert abs(sum(by_layer.values()) - fit_total) <= 1e-6 * fit_total

    assert model.used_fallback.shape == (300,) and not model.used_fallback.any()
    assert workloads.model_mb(model) > 0.0
