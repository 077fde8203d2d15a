"""Seeded verification suites behind the grad-check and equiv-check commands.

The gradient suite compares every parameter's analytic gradient of the
end-to-end training loss against central finite differences, cycling through
all context schemes. Instances whose rectifier pre-activations sit too close
to zero are re-drawn: a kink inside the difference stencil would measure the
wrong one-sided slope, which says nothing about the analytic gradient.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .attention import EquivalenceMapping, EquivalenceReport, \
    transformer_equivalence_check
from .context import FeatureMap
from .errors import ParameterError
from .models import MODULE_CHOICES, ModelConfig, SegmentationModel, build_model
from .supervision import IGNORE_INDEX, LabelMap, LossConfig, combined_loss

_KINK_MARGIN = 1e-4
_MAX_REDRAWS = 25
# The central differences' step, and the magnitude below which ``rel_error``
# measures absolute error.
_STEP = 1e-6
_REL_FLOOR = 1e-3
# The gradient gate: the suite passes when its largest relative error is below it.
GRAD_TOLERANCE = 1e-4


def rel_error(a: float, b: float) -> float:
    """|a - b| relative to the larger magnitude, floored so comparisons of
    near-zero gradients measure absolute error instead of noise ratios."""
    return abs(a - b) / max(abs(a), abs(b), _REL_FLOOR)


def finite_difference_grad(param: T.Tensor, objective) -> np.ndarray:
    """Central differences of ``objective()`` w.r.t. every entry of ``param``."""
    flat = param.data.reshape(-1)
    grad = np.zeros(flat.size)
    with T.no_grad():
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + _STEP
            hi = float(objective().data)
            flat[i] = orig - _STEP
            lo = float(objective().data)
            flat[i] = orig
            grad[i] = (hi - lo) / (2.0 * _STEP)
    return grad.reshape(param.data.shape)


def _grad_instance(seed: int, index: int):
    """One tiny seeded model plus input and labels, redrawn until every
    rectifier pre-activation clears the finite-difference stencil. The scale,
    stem and da-maps variants follow the module's own count, not ``index``,
    whose parities the module cycle would fix per module."""
    module = MODULE_CHOICES[index % len(MODULE_CHOICES)]
    variant = index // len(MODULE_CHOICES)
    height, width = 3, 4
    classes = 3
    for attempt in range(_MAX_REDRAWS):
        rng = np.random.default_rng(np.random.SeedSequence((seed, 3, index, attempt)))
        cfg = ModelConfig(
            module=module, in_channels=5, num_classes=classes, key_channels=4,
            mid_channels=6,
            attention_scale="unit" if variant % 2 == 0 else "rsqrt_key",
            da_regions=5 if (module == "da" and variant % 2 == 1) else 0,
            use_stem=(module in ("ocr", "gt_ocr", "self_attn") and variant % 4 < 2)
            or module in ("da", "acf", "global"),
            aspp_rates=(1, 2), ppm_bins=(1, 2),
            seed=int(rng.integers(1 << 30)))
        model = build_model(cfg, image_size=64)
        feats = FeatureMap(T.Tensor(rng.normal(0.0, 1.0, (5, height, width))))
        raw = rng.integers(0, classes, size=(height, width))
        if index % 3 == 0:
            raw[0, 0] = IGNORE_INDEX
        labels = LabelMap(raw, classes)
        loss_cfg = LossConfig()

        def objective(model=model, feats=feats, labels=labels, loss_cfg=loss_cfg):
            out = model.forward(feats, labels)
            return combined_loss(out.final_logits, out.aux_logits, labels, loss_cfg)

        T._PREACT_TRACE = trace = []
        try:
            with T.no_grad():
                objective()
        finally:
            T._PREACT_TRACE = None
        if not trace or min(trace) > _KINK_MARGIN:
            return module, model, objective
    raise RuntimeError(
        f"no kink-free instance for {module} after {_MAX_REDRAWS} redraws")


@dataclass
class GradInstance:
    index: int
    module: str
    max_rel_error: float
    worst_param: str


@dataclass
class GradCheckReport:
    instances: list
    tolerance: float

    @property
    def max_rel_error(self) -> float:
        return max((inst.max_rel_error for inst in self.instances), default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance

    def to_json(self) -> str:
        worst = max(self.instances, key=lambda i: i.max_rel_error, default=None)
        payload = {
            "suite": "gradient",
            "instances": len(self.instances),
            "step": _STEP,
            "tolerance": self.tolerance,
            "max_rel_error": f"{self.max_rel_error:.6e}",
            "passed": self.passed,
            "worst": None if worst is None else {
                "index": worst.index, "module": worst.module,
                "param": worst.worst_param,
                "max_rel_error": f"{worst.max_rel_error:.6e}"},
            "per_instance": [
                {"index": i.index, "module": i.module,
                 "max_rel_error": f"{i.max_rel_error:.6e}"}
                for i in self.instances],
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] gradient check: {len(self.instances)} instances, "
                f"max rel error {self.max_rel_error:.3e} "
                f"(tolerance {self.tolerance:.1e})")


def run_gradient_suite(instances: int, seed: int) -> GradCheckReport:
    if instances < 1:
        raise ParameterError(f"need at least one instance, got {instances}")
    results = []
    for index in range(instances):
        module, model, objective = _grad_instance(seed, index)
        loss = objective()
        T.backward(loss)
        worst = 0.0
        worst_name = ""
        for name, param in model.named_parameters():
            analytic = param.grad if param.grad is not None \
                else np.zeros_like(param.data)
            numeric = finite_difference_grad(param, objective)
            err = max(rel_error(float(a), float(n))
                      for a, n in zip(analytic.reshape(-1), numeric.reshape(-1)))
            if err > worst:
                worst, worst_name = err, name
        T.zero_grads(model.parameters())
        results.append(GradInstance(index, module, worst, worst_name))
    return GradCheckReport(results, GRAD_TOLERANCE)


# ---------------------------------------------------------------------------
# attention-form equivalence suite


@dataclass
class EquivalenceSuiteReport:
    reports: list
    control: EquivalenceReport
    tolerance: float

    @property
    def max_discrepancy(self) -> float:
        return max((r.max_abs_discrepancy for r in self.reports), default=0.0)

    @property
    def all_mapped_passed(self) -> bool:
        return all(r.passed for r in self.reports)

    @property
    def passed(self) -> bool:
        # acceptance needs both directions: mapped instances agree, and the
        # deliberately mismatched control is caught
        return self.all_mapped_passed and not self.control.passed

    def to_json(self) -> str:
        payload = {
            "suite": "equivalence",
            "instances": len(self.reports),
            "tolerance": self.tolerance,
            "max_discrepancy": f"{self.max_discrepancy:.6e}",
            "mapped_passed": self.all_mapped_passed,
            "control_detected": not self.control.passed,
            "control_detail": self.control.detail,
            "control_discrepancy": f"{self.control.max_abs_discrepancy:.6e}",
            "passed": self.passed,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] equivalence check: {len(self.reports)} instances, "
                f"max discrepancy {self.max_discrepancy:.3e} "
                f"(tolerance {self.tolerance:.1e}); mismatch control "
                + ("detected" if not self.control.passed else "NOT detected"))


def _equivalence_model(rng: np.random.Generator, channels: int, classes: int,
                       key: int, scale_mode: str) -> SegmentationModel:
    cfg = ModelConfig(module="ocr", in_channels=channels, num_classes=classes,
                      key_channels=key, mid_channels=5,
                      attention_scale=scale_mode, use_stem=False,
                      seed=int(rng.integers(1 << 30)))
    return build_model(cfg)


def run_equivalence_suite(instances: int, seed: int) -> EquivalenceSuiteReport:
    """Every instance and the control are judged at the equivalence check's
    own tolerance, which the suite report reads back from the control's."""
    if instances < 1:
        raise ParameterError(f"need at least one instance, got {instances}")
    reports = []
    for index in range(instances):
        rng = np.random.default_rng(np.random.SeedSequence((seed, 4, index)))
        height = int(rng.integers(2, 5))
        width = int(rng.integers(2, 6))
        channels = int(rng.integers(3, 8))
        classes = int(rng.integers(2, 6))
        key = int(rng.integers(2, 7))
        scale_mode = "unit" if index % 2 == 0 else "rsqrt_key"
        model = _equivalence_model(rng, channels, classes, key, scale_mode)
        x = FeatureMap(T.Tensor(rng.normal(0.0, 1.5, (channels, height, width))))
        mapping = EquivalenceMapping.from_params(model.stage)
        reports.append(transformer_equivalence_check(x, mapping))

    # Control: the encoder runs at 1/sqrt(d) = 1/3 while the unit-scale stage
    # relates at 1. The checker must fail and name the mismatched scale.
    rng = np.random.default_rng(np.random.SeedSequence((seed, 4, instances, 1)))
    model = _equivalence_model(rng, 6, 4, 9, "unit")
    x = FeatureMap(T.Tensor(rng.normal(0.0, 1.5, (6, 3, 4))))
    mapping = EquivalenceMapping.from_params(model.stage, encoder_scale=1 / 3)
    control = transformer_equivalence_check(x, mapping)
    return EquivalenceSuiteReport(reports, control, control.tolerance)
