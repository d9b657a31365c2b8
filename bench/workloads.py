"""The four benchmark workloads.

Constructing a workload is its set-up; `fixed` holds the inputs that the
set-up made from the seed. `inputs(r)` builds the arguments of
op `r` from the seed, outside the timed region; `op(inputs)` is the timed
call into handpair; `check` returns the problems found in its outputs and
`output_bytes` the bytes whose sha256 is the op's checksum. Each workload
calls handpair through module attributes, so the tracer's wrappers see the
calls.
"""

from __future__ import annotations

import hashlib
import time
import warnings
import zlib
from pathlib import Path

import numpy as np

from handpair import checkpoint, data, diffusion, hand_model, metrics, sampler
from handpair.backbone import FeatureBackbone
from handpair.denoiser import Denoiser, DenoiserConfig
from handpair.errors import HandpairError

FIXTURE = Path(__file__).resolve().parent / "fixture" / "denoiser_small"

BATCH = 256
TRAIN_SMALL_PAIRS = 64      # pairs generated per train_small op
TRAIN_SMALL_STEPS = 2       # train steps per train_small op
SAMPLE_COUNT = 16           # pairs per sample op
EVAL_REFERENCE = 16         # reference pairs, generated with rejection
# The reference comes from this seed, not the run's: the rejection loop takes
# a seed-dependent number of draws, which would make set-up time vary by
# half across seeds. The scored pairs still come from the run's seed.
EVAL_REFERENCE_SEED = 0
EVAL_PER_MODE = 8           # generated pairs per mode in each evaluate op
# penetration_volume's voxel size. At the default 1 mm one interpenetrating
# pair costs 0.6-1.8 s (CV 44% over pairs), so a run scores too few of them
# for a figure that holds across seeds; 2 mm costs an eighth as much.
EVAL_GRID = 2e-3


def sub_seed(seed: int, key) -> int:
    """Seed of one input stream, derived from the run seed and a key."""
    state = np.random.SeedSequence([seed, zlib.crc32(str(key).encode())])
    return int(state.generate_state(1, np.uint32)[0])


def digest(*parts) -> str:
    """sha256 over arrays, datasets, dataclasses and plain values."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, np.ndarray):
            h.update(str((x.dtype.str, x.shape)).encode())
            h.update(np.ascontiguousarray(x).tobytes())
        elif isinstance(x, data.Dataset):
            feed(x.params)
            feed(x.mode_ids)
        elif isinstance(x, dict):
            for key in sorted(x):
                h.update(str(key).encode())
                feed(x[key])
        elif isinstance(x, (list, tuple)):
            for item in x:
                feed(item)
        elif hasattr(x, "__dataclass_fields__"):
            feed({name: getattr(x, name) for name in x.__dataclass_fields__})
        else:
            h.update(repr(x).encode())

    for part in parts:
        feed(part)
    return h.hexdigest()


def fresh_hand():
    """Build the capsule hand anew, so that each set-up pays for it."""
    hand_model.default_hand.cache_clear()
    return hand_model.default_hand()


def keep_optimizer(denoiser: Denoiser) -> None:
    """Make every train() call on ``denoiser`` continue with one Adam.

    train() asks the denoiser for an optimizer on each call; returning the
    same one keeps its moment estimates across ops, as in one long run.
    """
    opt = denoiser.new_optimizer()
    denoiser.new_optimizer = lambda: opt


def _params_finite(params: dict) -> bool:
    return all(np.isfinite(v).all() for v in params.values())


def _train_problems(result, steps: int, denoiser) -> list[str]:
    problems = []
    if result.steps != steps:
        problems.append(f"train ran {result.steps} steps, expected {steps}")
    if not np.isfinite(result.epoch_losses).all():
        problems.append("non-finite training loss")
    if not _params_finite(denoiser.params):
        problems.append("non-finite denoiser parameters")
    return problems


class TrainSmall:
    name = "train_small"

    def __init__(self, seed: int):
        self.seed = seed
        self.model = fresh_hand()
        self.denoiser = Denoiser(DenoiserConfig("small"), seed=sub_seed(seed, "init"))
        keep_optimizer(self.denoiser)
        self.fixed = {"init_seed": sub_seed(seed, "init")}

    def inputs(self, r: int) -> dict:
        s = sub_seed(self.seed, r)
        return {"spec": data.two_mode_spec(count=TRAIN_SMALL_PAIRS, seed=s),
                "config": diffusion.TrainConfig(epochs=TRAIN_SMALL_STEPS,
                                                batch_size=BATCH, seed=s)}

    def op(self, inp: dict) -> dict:
        t0 = time.perf_counter()
        dataset = data.generate_synthetic(inp["spec"], self.model)
        t1 = time.perf_counter()
        # train() draws batch indices with replacement, so repeating the
        # fresh pairs up to one batch changes no distribution; it lets a
        # batch of 256 come from 64 pairs.
        repeated = dataset.subset(np.tile(np.arange(len(dataset)), BATCH // len(dataset)))
        result = diffusion.train(repeated, self.denoiser, inp["config"])
        return {"dataset": dataset, "result": result,
                "gen_s": t1 - t0, "train_s": time.perf_counter() - t1}

    def check(self, inp: dict, out: dict) -> list[str]:
        ds = out["dataset"]
        problems = _train_problems(out["result"], TRAIN_SMALL_STEPS, self.denoiser)
        if len(ds) != TRAIN_SMALL_PAIRS or not np.isfinite(ds.params).all():
            problems.append("generated dataset has wrong size or non-finite rows")
        if not set(np.unique(ds.mode_ids)) <= {0, 1}:
            problems.append("generated mode ids outside {0, 1}")
        for i in range(4):  # accepted pairs obey the rejection rule
            x_l, x_r = ds.pair(i)
            if sampler.penetration_loss(x_r, x_l, self.model) > inp["spec"].max_penetration:
                problems.append(f"generated pair {i} penetrates")
        return problems

    def output_bytes(self, out: dict) -> str:
        return digest(out["dataset"], self.denoiser.params, out["result"].epoch_losses)

    @staticmethod
    def summary(outs: list[dict], op_s: float) -> dict:
        gen_s = sum(o["gen_s"] for o in outs)
        train_s = sum(o["train_s"] for o in outs)
        losses = [v for o in outs for v in o["result"].epoch_losses]
        return {
            "gen_pairs_per_s": (TRAIN_SMALL_PAIRS * len(outs) / gen_s, "pairs/s"),
            "train_samples_per_s": (BATCH * TRAIN_SMALL_STEPS * len(outs) / train_s,
                                    "samples/s"),
            "train_loss": (float(np.mean(losses)), "loss"),
        }


class TrainPaper:
    name = "train_paper"

    def __init__(self, seed: int):
        self.seed = seed
        self.model = fresh_hand()
        spec = data.two_mode_spec(count=BATCH, seed=sub_seed(seed, "data"),
                                  max_penetration=np.inf)
        self.dataset = data.generate_synthetic(spec, self.model)
        self.denoiser = Denoiser(DenoiserConfig("paper"), seed=sub_seed(seed, "init"))
        keep_optimizer(self.denoiser)
        # One small warm-up step, so Adam's moment buffers exist before op 0.
        warm = diffusion.TrainConfig(epochs=1, batch_size=8, seed=sub_seed(seed, "warm"))
        diffusion.train(self.dataset.subset(np.arange(8)), self.denoiser, warm)
        self.fixed = {"dataset": self.dataset, "init_seed": sub_seed(seed, "init")}

    def inputs(self, r: int) -> dict:
        return {"config": diffusion.TrainConfig(epochs=1, batch_size=BATCH,
                                                seed=sub_seed(self.seed, r))}

    def op(self, inp: dict) -> dict:
        return {"result": diffusion.train(self.dataset, self.denoiser, inp["config"])}

    def check(self, inp: dict, out: dict) -> list[str]:
        return _train_problems(out["result"], 1, self.denoiser)

    def output_bytes(self, out: dict) -> str:
        return digest(self.denoiser.params, out["result"].epoch_losses)

    @staticmethod
    def summary(outs: list[dict], op_s: float) -> dict:
        losses = [v for o in outs for v in o["result"].epoch_losses]
        return {"train_samples_per_s": (BATCH / op_s, "samples/s"),
                "train_loss": (float(np.mean(losses)), "loss")}


class Sample:
    name = "sample"

    def __init__(self, seed: int):
        self.seed = seed
        self.model = fresh_hand()
        self.denoiser, self.sched, manifest = checkpoint.load_denoiser(FIXTURE)
        self.fixed = {"fixture_sha256": manifest["checksum"]}

    def inputs(self, r: int) -> dict:
        return {"config": sampler.SampleConfig(count=SAMPLE_COUNT,
                                               seed=sub_seed(self.seed, r))}

    def op(self, inp: dict) -> dict:
        return {"result": sampler.sample_pairs(self.denoiser, inp["config"],
                                               self.sched, self.model)}

    def check(self, inp: dict, out: dict) -> list[str]:
        res = out["result"]
        problems = []
        if res.x_l.shape != (SAMPLE_COUNT, 64) or res.x_r.shape != (SAMPLE_COUNT, 64):
            return [f"sampled shapes {res.x_l.shape}, {res.x_r.shape}"]
        pen_cm = []
        for i in range(SAMPLE_COUNT):
            x_l, x_r = res.pair(i)
            try:
                x_l.validate()
                x_r.validate()
            except (HandpairError, ValueError) as exc:
                problems.append(f"pair {i}: {exc}")
                continue
            mesh_l, mesh_r = hand_model.pair_meshes(x_l, x_r, self.model)
            pen_cm.append(metrics.penetration_distance(mesh_r, mesh_l))
        out["pen_cm"] = pen_cm
        return problems

    def output_bytes(self, out: dict) -> str:
        return digest(out["result"].x_l, out["result"].x_r)

    @staticmethod
    def summary(outs: list[dict], op_s: float) -> dict:
        pen = [v for o in outs for v in o.get("pen_cm", [])]
        return {"sample_pairs_per_s": (SAMPLE_COUNT / op_s, "pairs/s"),
                "sample_pen_cm": (float(np.mean(pen)) if pen else float("nan"), "cm")}


class Evaluate:
    name = "evaluate"

    def __init__(self, seed: int):
        self.seed = seed
        self.model = fresh_hand()
        self.backbone = FeatureBackbone()
        spec = data.two_mode_spec(count=EVAL_REFERENCE,
                                  seed=sub_seed(EVAL_REFERENCE_SEED, "reference"))
        self.reference = data.generate_synthetic(spec, self.model)
        self.fixed = {"reference": self.reference}

    def inputs(self, r: int) -> dict:
        """The first EVAL_PER_MODE raw draws of each mode, in draw order.

        Mode 1 draws mostly interpenetrate and mode 0 draws do not, and
        penetration_volume runs only on interpenetrating pairs, so a fixed
        count per mode keeps the share of costly pairs at one half instead
        of letting it vary binomially with the seed.
        """
        count = 8 * EVAL_PER_MODE
        while True:
            spec = data.two_mode_spec(count=count, seed=sub_seed(self.seed, r),
                                      max_penetration=np.inf)
            raw = data.generate_synthetic(spec, self.model)
            picks = [np.flatnonzero(raw.mode_ids == k)[:EVAL_PER_MODE] for k in (0, 1)]
            if all(len(p) == EVAL_PER_MODE for p in picks):
                return {"generated": raw.subset(np.sort(np.concatenate(picks)))}
            count *= 2

    def op(self, inp: dict) -> dict:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", metrics.DegenerateCovariance)
            report = metrics.evaluate(self.reference, inp["generated"], self.backbone,
                                      self.model, grid=EVAL_GRID)
        degenerate = sum(issubclass(w.category, metrics.DegenerateCovariance)
                         for w in caught)
        return {"report": report, "degenerate_cov": degenerate}

    def check(self, inp: dict, out: dict) -> list[str]:
        rep = out["report"]
        problems = [f"non-finite report field {k}" for k, v in vars(rep).items()
                    if isinstance(v, float) and not np.isfinite(v)]
        if not (0.0 <= rep.precision <= 1.0 and 0.0 <= rep.recall <= 1.0):
            problems.append("precision or recall outside [0, 1]")
        if (rep.n_reference, rep.n_generated) != (EVAL_REFERENCE, 2 * EVAL_PER_MODE):
            problems.append(f"report counts {rep.n_reference}, {rep.n_generated}")
        return problems

    def output_bytes(self, out: dict) -> str:
        return digest(out["report"].to_json())

    @staticmethod
    def summary(outs: list[dict], op_s: float) -> dict:
        return {"eval_pairs_per_s": (2 * EVAL_PER_MODE / op_s, "pairs/s"),
                "degenerate_cov": (sum(o["degenerate_cov"] for o in outs), "count")}


WORKLOADS = {w.name: w for w in (TrainSmall, TrainPaper, Sample, Evaluate)}
