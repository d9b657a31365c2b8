"""Self-test of the benchmark harness; not part of the repository's test suite.

Run from the repository root (about two minutes, peak memory about 2.5 GB):

    python3 -m pytest -q bench/selftest.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# Spans that must record calls on each workload's traced ops, from the
# layer table in bench/README.md.
MUST_CALL = {
    "train_small": ["diffusion.train", "diffusion.assemble_batch", "diffusion.mirror",
                    "denoiser.predict", "denoiser.backward", "nn.TransformerBlock.forward",
                    "nn.TransformerBlock.backward", "nn.Adam.step",
                    "data.generate_synthetic", "sampler.penetration_loss",
                    "sampler.penetration_set", "hand_model.posed_mesh",
                    "hand_model.left_hand_mesh", "mesh.vertex_normals"],
    "train_paper": ["diffusion.train", "diffusion.assemble_batch", "diffusion.mirror",
                    "denoiser.predict", "denoiser.backward", "nn.TransformerBlock.forward",
                    "nn.TransformerBlock.backward", "nn.Adam.step"],
    "sample": ["sampler.sample_pairs", "denoiser.predict", "nn.TransformerBlock.forward",
               "diffusion.ddim_step", "sampler.apg_step", "sampler.apg_gradient",
               "sampler.penetration_set", "hand_model.posed_mesh",
               "hand_model.left_hand_mesh", "hand_model.kinematics_vjp",
               "mesh.vertex_normals", "checkpoint.load_denoiser"],
    "evaluate": ["metrics.evaluate", "metrics.dataset_features", "metrics.pair_stats",
                 "metrics.penetration_volume", "metrics.fhid", "metrics.khid",
                 "metrics.precision_recall", "hand_model.occupancy",
                 "hand_model.posed_mesh", "hand_model.left_hand_mesh",
                 "mesh.sample_surface_points", "mesh.vertex_normals",
                 "pointset.forward_one", "pointset.farthest_point_indices",
                 "backbone.features", "sampler.penetration_set"],
}
# Layers whose spans must record no call on a workload.
MUST_NOT_CALL = {
    "train_paper": ["sampler", "pointset", "backbone", "metrics", "data"],
    "sample": ["metrics", "pointset", "data"],
    "evaluate": ["denoiser", "nn"],
}


def _attributes():
    """Current value of every attribute the tracer wraps."""
    out = {}
    for name, sites, _ in spans.TARGETS:
        attr = name.rsplit(".", 1)[1]
        for site in sites:
            owner = spans._resolve(site)
            out[(site, attr)] = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
    return out


def test_benchmark_json_matches_harness():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == spans.per_layer_metrics()


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run(name):
    before = _attributes()
    report, result = run.execute(name, seed=1, seconds=1, trace=True)
    assert _attributes() == before, "wrapped attributes were not restored"
    assert report["checks"] == {"untraced_ops_ok": True,
                                "traced_checksum_matches": True,
                                "originals_restored": True,
                                "self_times_nonnegative": True}
    assert result["correct"] and result["failed"] == 0, report["problems"]
    assert report["missing_targets"] == []
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == {n for n, _ in spans.per_layer_metrics()}
    assert all(metrics[n + ".s"] >= 0 for n in spans.SPAN_NAMES)
    assert metrics["trace.overhead_share"] > 0
    silent = [n for n in MUST_CALL[name] if metrics[n + ".calls"] == 0]
    assert not silent, f"no calls recorded on {name}: {silent}"
    for layer in MUST_NOT_CALL.get(name, []):
        noisy = [n for n in spans.SPAN_NAMES
                 if n.startswith(layer + ".") and metrics[n + ".calls"]]
        assert not noisy, f"unexpected calls on {name}: {noisy}"
    if name == "sample":
        assert metrics["sampler.penetration_set.active_share"] > 0
    if name == "train_small":
        assert 0 < metrics["data.accept_share"] < 1


def test_spans_nest_inside_their_parents():
    tracer = spans.Tracer()
    tracer.install()
    try:
        work = workloads.Sample(3)
        with tracer.recording("ops", 0):
            work.op(work.inputs(0))
    finally:
        tracer.restore()
    assert tracer.originals_in_place() and tracer.self_times_ok()
    for name, start, end, parent, op, phase in tracer.spans:
        assert start <= end and op == 0 and phase == "ops"
        if parent >= 0:
            p_start, p_end = tracer.spans[parent][1:3]
            assert p_start <= start and end <= p_end


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_seed_changes_inputs(name):
    cls = workloads.WORKLOADS[name]

    def inputs(seed):
        work = cls(seed)
        return workloads.digest(work.fixed, work.inputs(0), work.inputs(1))

    first = inputs(1)
    assert inputs(1) == first
    assert inputs(2) != first
