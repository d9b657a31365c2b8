"""Span recorder for the traced benchmark run.

`Tracer.install` replaces each public handpair function in `TARGETS` where
its caller looks it up (a module attribute or a class attribute) with a
wrapper. While `Tracer.recording` is active, the wrapper records one span
(name, start, end, parent, op id) per call, plus per-name counts; outside it
the wrapper only calls through. `Tracer.restore` puts every original back.

A span's self time is its duration minus the durations of its direct
children. Times are integer nanoseconds, so self time cannot go negative
through rounding.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager


def _rows(result):
    return {"rows": len(result)}


def _pairs(result):
    return {"pairs": len(result), "active": int(len(result) > 0)}


def _points(result):
    return {"points": len(result)}


def _records(result):
    return {"records": len(result)}


# (span name, lookup sites, counter over the result). A lookup site is
# "module" or "module:Class"; the attribute is the span name's last part.
TARGETS = [
    ("diffusion.train", ["handpair.diffusion"], None),
    ("diffusion.assemble_batch", ["handpair.diffusion"], None),
    ("diffusion.mirror", ["handpair.diffusion"], None),
    ("diffusion.ddim_step", ["handpair.sampler"], None),
    ("denoiser.predict", ["handpair.denoiser:Denoiser"], _rows),
    ("denoiser.backward", ["handpair.denoiser:Denoiser"], None),
    ("nn.TransformerBlock.forward", ["handpair.nn:TransformerBlock"], None),
    ("nn.TransformerBlock.backward", ["handpair.nn:TransformerBlock"], None),
    ("nn.Adam.step", ["handpair.nn:Adam"], None),
    ("sampler.sample_pairs", ["handpair.sampler"], None),
    ("sampler.penetration_set", ["handpair.sampler"], _pairs),
    ("sampler.apg_step", ["handpair.sampler"], None),
    ("sampler.apg_gradient", ["handpair.sampler"], None),
    ("sampler.penetration_loss", ["handpair.sampler"], None),
    ("hand_model.posed_mesh", ["handpair.hand_model:CapsuleHand"], None),
    ("hand_model.left_hand_mesh", ["handpair.sampler", "handpair.hand_model"], None),
    ("hand_model.kinematics_vjp", ["handpair.sampler"], None),
    ("hand_model.occupancy", ["handpair.hand_model:CapsuleHand"], _points),
    ("mesh.vertex_normals", ["handpair.mesh"], None),
    ("mesh.sample_surface_points", ["handpair.metrics", "handpair.backbone"], None),
    ("pointset.forward_one", ["handpair.pointset:PointSetEncoder"], None),
    ("pointset.farthest_point_indices", ["handpair.pointset"], None),
    ("backbone.features", ["handpair.backbone:FeatureBackbone"], None),
    ("metrics.evaluate", ["handpair.metrics"], None),
    ("metrics.dataset_features", ["handpair.metrics"], None),
    ("metrics.pair_stats", ["handpair.metrics"], None),
    ("metrics.penetration_volume", ["handpair.metrics"], None),
    ("metrics.fhid", ["handpair.metrics"], None),
    ("metrics.khid", ["handpair.metrics"], None),
    ("metrics.precision_recall", ["handpair.metrics"], None),
    ("data.generate_synthetic", ["handpair.data"], _records),
    ("checkpoint.load_denoiser", ["handpair.checkpoint"], None),
]

SPAN_NAMES = [name for name, _, _ in TARGETS]
LAYERS = list(dict.fromkeys(name.split(".")[0] for name in SPAN_NAMES))
# The checkpoint layer only acts while a workload is set up, so its
# metrics come from the traced set-up; every other layer's from the ops.
SETUP_LAYERS = ("checkpoint",)


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every metric a traced run reports, in order."""
    out = []
    for name in SPAN_NAMES:
        out += [(name + ".calls", "count"), (name + ".s", "s")]
    out += [
        ("denoiser.predict.rows", "count"),
        ("sampler.penetration_set.pairs", "count"),
        ("sampler.penetration_set.active_share", "ratio"),
        ("sampler.apg_gradient.degenerate", "count"),
        ("hand_model.occupancy.points", "count"),
        ("metrics.degenerate_cov.count", "count"),
        ("data.accept_share", "ratio"),
    ]
    out += [(layer + ".share", "ratio") for layer in LAYERS]
    out += [("harness.unwrapped.share", "ratio"), ("trace.overhead_share", "ratio")]
    return out


def _resolve(site: str):
    module, _, cls = site.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Phase:
    """Counts and self times of the spans recorded under one phase name."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.extra = defaultdict(int)       # (span name, key) -> count
        self.wall_ns = 0


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []        # (name, start, end, parent, op, phase)
        self.phases: dict[str, Phase] = defaultdict(Phase)
        self.originals: list[tuple] = []    # (owner, attr, original)
        self.missing: list[str] = []
        self._stack: list[list] = []        # [span index, start, child ns]
        self._phase: str | None = None
        self._op: int | None = None

    # -- wrapping ------------------------------------------------------------

    def install(self) -> None:
        for name, sites, counter in TARGETS:
            attr = name.rsplit(".", 1)[1]
            for site in sites:
                owner = _resolve(site)
                original = owner.__dict__.get(attr) if isinstance(owner, type) \
                    else getattr(owner, attr, None)
                if original is None:
                    self.missing.append(f"{site}.{attr}")
                    continue
                self.originals.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, counter))

    def restore(self) -> None:
        for owner, attr, original in reversed(self.originals):
            setattr(owner, attr, original)

    def originals_in_place(self) -> bool:
        """True when every wrapped attribute holds its original again."""
        return all((owner.__dict__.get(attr) if isinstance(owner, type)
                    else getattr(owner, attr)) is original
                   for owner, attr, original in self.originals)

    def _wrap(self, original, name, counter):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if tracer._phase is None:
                return original(*args, **kwargs)
            tracer._enter(name)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                tracer._exit(name, {"raised." + type(exc).__name__: 1})
                raise
            tracer._exit(name, counter(result) if counter else None)
            return result

        return wrapper

    # -- recording -----------------------------------------------------------

    @contextmanager
    def recording(self, phase: str, op: int | None = None):
        """Record spans of calls made inside the block under ``phase``."""
        self._phase, self._op = phase, op
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self.phases[phase].wall_ns += time.perf_counter_ns() - start
            self._phase = self._op = None

    def count(self, phase: str, key: str, n: int) -> None:
        self.phases[phase].extra[("harness", key)] += n

    def _enter(self, name):
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append((name, 0, 0, parent, self._op, self._phase))
        self._stack.append([len(self.spans) - 1, time.perf_counter_ns(), 0])

    def _exit(self, name, counts):
        end = time.perf_counter_ns()
        index, start, child_ns = self._stack.pop()
        _, _, _, parent, op, phase = self.spans[index]
        self.spans[index] = (name, start, end, parent, op, phase)
        duration = end - start
        acc = self.phases[phase]
        acc.calls[name] += 1
        acc.self_ns[name] += duration - child_ns
        if self._stack:
            self._stack[-1][2] += duration
            if counts is None:
                counts = {}
            counts["under." + self.spans[parent][0]] = 1
        for key, n in (counts or {}).items():
            acc.extra[(name, key)] += n

    # -- results -------------------------------------------------------------

    def self_times_ok(self) -> bool:
        return all(ns >= 0 for acc in self.phases.values() for ns in acc.self_ns.values())

    def metrics(self, op_phase: str, setup_phase: str, call_cost_ns: float) -> dict:
        """Per-layer metrics; ``call_cost_ns`` is what one traced call adds."""
        ops, setup = self.phases[op_phase], self.phases[setup_phase]
        out = {}
        for name in SPAN_NAMES:
            acc = setup if name.split(".")[0] in SETUP_LAYERS else ops
            out[name + ".calls"] = acc.calls[name]
            out[name + ".s"] = acc.self_ns[name] / 1e9
        ex = ops.extra
        pen_calls = ops.calls["sampler.penetration_set"]
        candidates = ex[("sampler.penetration_loss", "under.data.generate_synthetic")]
        out.update({
            "denoiser.predict.rows": ex[("denoiser.predict", "rows")],
            "sampler.penetration_set.pairs": ex[("sampler.penetration_set", "pairs")],
            "sampler.penetration_set.active_share":
                ex[("sampler.penetration_set", "active")] / pen_calls if pen_calls else 0.0,
            "sampler.apg_gradient.degenerate":
                ex[("sampler.apg_gradient", "raised.DegenerateRotation")],
            "hand_model.occupancy.points": ex[("hand_model.occupancy", "points")],
            "metrics.degenerate_cov.count": ex[("harness", "degenerate_cov")],
            "data.accept_share":
                ex[("data.generate_synthetic", "records")] / candidates if candidates else 0.0,
        })
        covered = 0
        for layer in LAYERS:
            acc = setup if layer in SETUP_LAYERS else ops
            ns = sum(acc.self_ns[n] for n in SPAN_NAMES if n.split(".")[0] == layer)
            out[layer + ".share"] = ns / acc.wall_ns if acc.wall_ns else 0.0
            if acc is ops:
                covered += ns
        out["harness.unwrapped.share"] = 1.0 - covered / ops.wall_ns if ops.wall_ns else 0.0
        spans = sum(ops.calls.values())
        out["trace.overhead_share"] = (call_cost_ns * spans / (ops.wall_ns - call_cost_ns * spans)
                                       if ops.wall_ns else 0.0)
        return out

    @staticmethod
    def call_cost_ns() -> float:
        """Time one recorded call through a wrapper adds to a bare call, in ns.

        Each side is the best of five loops of 10,000 calls, so other tenants
        of the host bias it little.
        """
        calls = 10_000

        def bare():
            return None

        def best(fn):
            times = []
            for _ in range(5):
                start = time.perf_counter_ns()
                for _ in range(calls):
                    fn()
                times.append(time.perf_counter_ns() - start)
            return min(times)

        probe = Tracer()
        wrapped = probe._wrap(bare, "probe", None)
        with probe.recording("probe"):
            traced = best(wrapped)
        return max(traced - best(bare), 0) / calls

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op, phase in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "op": op, "phase": phase}) + "\n")
