import pytest

from handpair.backbone import BackboneConfig, train_backbone
from handpair.checkpoint import checksum
from handpair.data import generate_synthetic, two_mode_spec


@pytest.fixture(scope="module")
def dataset():
    return generate_synthetic(two_mode_spec(count=48))


def _train(dataset, seed):
    return train_backbone(dataset, BackboneConfig(n_surface=128, epochs=2, batch_size=16,
                                                  seed=seed))


def test_backbone_validation_loss_falls_and_seed_fixes_weights(dataset):
    bb = _train(dataset, seed=0)
    curve = bb.val_loss_curve
    assert len(curve) == 3
    assert all(later < earlier for earlier, later in zip(curve, curve[1:]))
    assert checksum(_train(dataset, seed=0).params) == checksum(bb.params)
    assert checksum(_train(dataset, seed=1).params) != checksum(bb.params)
