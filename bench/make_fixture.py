"""Train and save the small-profile denoiser that the `sample` workload loads.

An untrained denoiser puts the two hands metres apart, so anti-penetration
guidance never finds a vertex pair and `kinematics_vjp` never runs. Training
on `overlapping_spec` data, whose raw draws often interpenetrate, gives a
model whose samples land in contact. The fixture is committed so that the
`sample` workload does not change when training code changes.

Uses only public API: `generate_synthetic`, `train` and `save_denoiser`.
Run from the repository root:

    python3 bench/make_fixture.py
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = Path(__file__).resolve().parent / "fixture" / "denoiser_small"

# 600 records at batch 256 make two steps per epoch: 160 epochs = 320 steps.
DATA_COUNT = 600
EPOCHS = 160
BATCH = 256
SEED = 0


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from handpair.checkpoint import save_denoiser
    from handpair.data import generate_synthetic, overlapping_spec
    from handpair.denoiser import Denoiser, DenoiserConfig
    from handpair.diffusion import TrainConfig, train

    dataset = generate_synthetic(overlapping_spec(count=DATA_COUNT, seed=SEED))
    denoiser = Denoiser(DenoiserConfig("small"), seed=SEED)
    config = TrainConfig(epochs=EPOCHS, batch_size=BATCH, seed=SEED)
    result = train(dataset, denoiser, config)
    save_denoiser(FIXTURE, denoiser, config.schedule(), {
        "data": f"overlapping_spec(count={DATA_COUNT}, seed={SEED})",
        "epochs": EPOCHS, "batch_size": BATCH, "seed": SEED,
        "steps": result.steps,
        "final_epoch_loss": result.epoch_losses[-1],
    })
    print(f"{result.steps} steps, final epoch loss {result.epoch_losses[-1]:.4f}, "
          f"saved to {FIXTURE.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
