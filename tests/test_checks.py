"""Seeded verification suites: finite-difference gradient checking and the
attention-form equivalence sweep with its mismatch control."""
import json

import numpy as np
import pytest

from ocrseg.attention import EquivalenceReport
from ocrseg.checks import (GradCheckReport, GradInstance,
                           EquivalenceSuiteReport, finite_difference_grad,
                           rel_error, run_equivalence_suite,
                           run_gradient_suite)
from ocrseg.errors import ParameterError
from ocrseg.models import MODULE_CHOICES

from conftest import dot_all, sum_all, tensor


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

    def test_rejects_bad_step(self, rng):
        param = tensor(rng.normal(0, 1, 3), requires_grad=True)
        with pytest.raises(ParameterError):
            finite_difference_grad(param, lambda: sum_all(param), h=0.0)


class TestGradientSuite:
    def test_small_sweep_passes_every_module(self):
        report = run_gradient_suite(instances=8, seed=0)
        assert report.passed
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
            run_gradient_suite(instances=0)

    def test_failing_report_renders_fail(self):
        report = GradCheckReport([GradInstance(0, "ocr", 5e-3, "fuse.weight")],
                                 tolerance=1e-4, step=1e-6)
        assert not report.passed
        assert report.summary().startswith("[FAIL]")
        assert json.loads(report.to_json())["passed"] is False

    def test_empty_report_max_is_zero(self):
        report = GradCheckReport([], tolerance=1e-4, step=1e-6)
        assert report.max_rel_error == 0.0


class TestEquivalenceSuite:
    def test_small_sweep_passes_with_control(self):
        report = run_equivalence_suite(instances=5, seed=0)
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
            run_equivalence_suite(instances=0)

    def test_undetected_control_fails_suite(self):
        sneaky = EquivalenceReport(0.0, 1e-10, True, "paths agree")
        report = EquivalenceSuiteReport([sneaky], control=sneaky,
                                        tolerance=1e-10)
        assert not report.passed
        assert "NOT detected" in report.summary()
