"""The benchmark's NumPy reference heads agree with the ocrseg heads.

Kept out of the default test collection; run it explicitly from the
repository root: ``PYTHONPATH=src python -m pytest perfbench/check_refheads.py``.
"""
import numpy as np
import pytest

import ocrseg.tensor as T
from ocrseg.context import FeatureMap
from ocrseg.models import ModelConfig, build_model

from refheads import SCHEMES, max_rel_error, reference_logits


def _features(seed, channels, side):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((channels, side, side))


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("use_stem", [False, True])
def test_reference_matches_head(scheme, use_stem):
    side = 12
    cfg = ModelConfig(module=scheme, in_channels=10, num_classes=5, key_channels=6,
                      mid_channels=8, use_stem=use_stem,
                      da_regions=7 if scheme == "da" else 0, seed=3)
    model = build_model(cfg, image_size=side)
    x = _features(4, cfg.in_channels, side)
    with T.no_grad():
        logits = model.forward(FeatureMap(T.Tensor(x))).final_logits.data
    assert max_rel_error(logits, reference_logits(scheme, model, x)) < 1e-12


def test_reference_detects_a_changed_parameter():
    cfg = ModelConfig(module="ocr", in_channels=10, num_classes=5, key_channels=6,
                      mid_channels=8, use_stem=False, seed=3)
    model = build_model(cfg, image_size=12)
    x = _features(4, cfg.in_channels, 12)
    ref = reference_logits("ocr", model, x)
    dict(model.named_parameters())["fuse_transform.bn_shift"].data[0] += 1e-3
    with T.no_grad():
        logits = model.forward(FeatureMap(T.Tensor(x))).final_logits.data
    assert max_rel_error(logits, ref) > 1e-6
