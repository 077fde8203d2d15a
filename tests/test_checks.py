"""Seeded verification suites: finite-difference gradient checking and the
attention-form equivalence sweep with its mismatch control."""
import json

import numpy as np
import pytest

from ocrseg.attention import EquivalenceReport
from ocrseg.checks import (GradCheckReport, GradInstance, _grad_instance,
                           EquivalenceSuiteReport, finite_difference_grad,
                           rel_error, run_equivalence_suite,
                           run_gradient_suite)
from ocrseg.errors import ParameterError
from ocrseg.models import MODULE_CHOICES

from conftest import dot_all, tensor


class TestRelError:
    def test_relative_to_larger_magnitude(self):
        assert abs(rel_error(1.0, 1.1) - 0.1 / 1.1) < 1e-12
        assert rel_error(2.0, 2.0) == 0.0

    def test_floor_turns_tiny_values_absolute(self):
        assert abs(rel_error(1e-5, 0.0) - 1e-2) < 1e-12
        assert abs(rel_error(0.0, 0.0)) == 0.0


class TestFiniteDifferenceGrad:
    def test_quadratic_gradient(self, rng):
        data = rng.normal(0, 1, (2, 3))
        param = tensor(data.copy(), requires_grad=True)

        def objective():
            return dot_all(param, param)

        grad = finite_difference_grad(param, objective)
        assert np.max(np.abs(grad - 2 * data)) < 1e-6
        assert np.array_equal(param.data, data)  # restored in place


class TestGradientSuite:
    def test_small_sweep_passes_every_module(self):
        report = run_gradient_suite(instances=8, seed=0)
        assert report.passed
        assert report.tolerance == 1e-4
        assert report.max_rel_error < 1e-4
        assert [i.module for i in report.instances] == list(MODULE_CHOICES)
        assert report.summary().startswith("[PASS] gradient check: 8 instances")
        payload = json.loads(report.to_json())
        assert payload["passed"] is True
        assert payload["instances"] == 8
        assert len(payload["per_instance"]) == 8
        assert payload["worst"]["param"]

    def test_rejects_empty_suite(self):
        with pytest.raises(ParameterError):
            run_gradient_suite(instances=0, seed=0)

    def test_default_instances_cover_every_variant(self):
        # the variants cycle with each module's own count, not with the
        # instance index, which fixes every parity per module when the
        # module count is even; only the configs are read, no differences
        seen = set()
        for index in range(50):
            _, model, _ = _grad_instance(0, index)
            cfg = model.cfg
            seen.add((cfg.module, cfg.attention_scale, cfg.use_stem, cfg.da_regions > 0))
        for module in ("ocr", "self_attn"):
            for scale in ("unit", "rsqrt_key"):
                assert {(module, scale, True, False),
                        (module, scale, False, False)} <= seen
        assert {m[3] for m in seen if m[0] == "da"} == {False, True}
        assert {m[2] for m in seen if m[0] == "gt_ocr"} == {False, True}
        for module in MODULE_CHOICES:
            assert {m[1] for m in seen if m[0] == module} == {"unit", "rsqrt_key"}

    def test_failing_report_renders_fail(self):
        report = GradCheckReport([GradInstance(0, "ocr", 5e-3, "fuse.weight")],
                                 tolerance=1e-4)
        assert not report.passed
        assert report.summary().startswith("[FAIL]")
        assert json.loads(report.to_json())["passed"] is False

    def test_empty_report_max_is_zero(self):
        report = GradCheckReport([], tolerance=1e-4)
        assert report.max_rel_error == 0.0


class TestEquivalenceSuite:
    def test_small_sweep_passes_with_control(self):
        report = run_equivalence_suite(instances=5, seed=0)
        assert report.tolerance == 1e-10
        assert all(r.tolerance == 1e-10 for r in report.reports)
        assert report.all_mapped_passed
        assert report.max_discrepancy <= 1e-10
        assert not report.control.passed
        assert "scale mismatch" in report.control.detail
        assert report.passed
        summary = report.summary()
        assert summary.startswith("[PASS] equivalence check: 5 instances")
        assert "mismatch control detected" in summary
        payload = json.loads(report.to_json())
        assert payload["mapped_passed"] is True
        assert payload["control_detected"] is True

    def test_rejects_empty_suite(self):
        with pytest.raises(ParameterError):
            run_equivalence_suite(instances=0, seed=0)

    def test_undetected_control_fails_suite(self):
        sneaky = EquivalenceReport(0.0, 1e-10, True, "paths agree")
        report = EquivalenceSuiteReport([sneaky], control=sneaky,
                                        tolerance=1e-10)
        assert not report.passed
        assert "NOT detected" in report.summary()
