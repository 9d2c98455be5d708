"""Moment-matched beta-binomial benchmark: calibration, the stable pmf
evaluation, and its tail measures against the class bounds."""

import json
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.stats

from bernrays import BetaMixParams, ClassSpec, betamix, pmf, risk
from bernrays.errors import InadmissibleCorrelation, InvalidSpec

# betamix.var and betamix.es on a seeded (p, rho, d, alpha) grid, as the
# scipy betaln evaluation computed them; null where it could not.
GRID = json.loads((Path(__file__).parent / "betamix_grid.json").read_text())


def mpmath_pmf(a, b, d):
    """Beta-binomial pmf at 50 significant digits."""
    with mpmath.workdps(50):
        a, b = mpmath.mpf(a), mpmath.mpf(b)
        log_norm = mpmath.log(mpmath.beta(a, b))
        return [
            float(mpmath.exp(
                mpmath.log(mpmath.binomial(d, j))
                + mpmath.log(mpmath.beta(a + j, b + d - j)) - log_norm
            ))
            for j in range(d + 1)
        ]


class TestCalibrate:
    def test_symmetric_case_is_uniform_mixing(self):
        params = betamix.calibrate(0.5, 1 / 3)
        assert math.isclose(params.a, 1.0, rel_tol=1e-14)
        assert math.isclose(params.b, 1.0, rel_tol=1e-14)

    def test_low_marginal_case(self):
        params = betamix.calibrate(0.003, 1 / 6)
        assert math.isclose(params.a, 0.015, rel_tol=1e-12)
        assert math.isclose(params.b, 4.985, rel_tol=1e-12)

    def test_moments_roundtrip(self):
        rng = np.random.default_rng(89)
        for _ in range(200):
            p = float(rng.uniform(0.001, 0.999))
            rho = float(rng.uniform(1e-4, 1 - 1e-4))
            params = betamix.calibrate(p, rho)
            assert math.isclose(params.implied_p, p, rel_tol=1e-12)
            assert math.isclose(params.implied_rho, rho, rel_tol=1e-12)

    def test_rejects_degenerate_correlation(self):
        for rho in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(InadmissibleCorrelation):
                betamix.calibrate(0.3, rho)

    def test_rejects_degenerate_marginal(self):
        for p in (0.0, 1.0, -0.1):
            with pytest.raises(InvalidSpec):
                betamix.calibrate(p, 0.5)

    def test_params_must_be_positive_and_finite(self):
        with pytest.raises(InvalidSpec):
            BetaMixParams(-1.0, 2.0)
        with pytest.raises(InvalidSpec):
            BetaMixParams(1.0, 0.0)
        with pytest.raises(InvalidSpec):
            BetaMixParams(float("nan"), 1.0)


class TestPmf:
    def test_flat_mixing_density_gives_uniform_counts(self):
        y = betamix.pmf(BetaMixParams(1.0, 1.0), 2)
        np.testing.assert_allclose(y.probs, [1 / 3] * 3, rtol=1e-12)

    def test_matches_reference_implementation(self):
        rng = np.random.default_rng(97)
        for _ in range(50):
            d = int(rng.integers(2, 120))
            a = float(10 ** rng.uniform(-3, 2))
            b = float(10 ** rng.uniform(-3, 2))
            got = betamix.pmf(BetaMixParams(a, b), d)
            want = scipy.stats.betabinom.pmf(np.arange(d + 1), d, a, b)
            np.testing.assert_allclose(got.probs, want, rtol=1e-9,
                                       atol=1e-12)

    def test_matches_both_target_moments(self):
        rng = np.random.default_rng(101)
        for _ in range(100):
            d = int(rng.integers(2, 150))
            p = float(rng.uniform(0.01, 0.99))
            rho = float(rng.uniform(0.01, 0.99))
            y = betamix.pmf(betamix.calibrate(p, rho), d)
            assert math.isclose(pmf.cross_moment(y, 1), p, abs_tol=1e-12)
            mu2 = rho * p * (1 - p) + p * p
            assert math.isclose(pmf.cross_moment(y, 2), mu2, abs_tol=1e-9)

    @pytest.mark.parametrize("rho", [0.9, 1 / 6, 1e-3, 1e-6, 1e-9, 1e-12])
    @pytest.mark.parametrize("p", [0.003, 0.266, 0.9])
    def test_matches_a_high_precision_oracle(self, p, rho):
        for d in (1, 37, 400):
            params = betamix.calibrate(p, rho)
            got = betamix.pmf(params, d).probs
            want = np.array(mpmath_pmf(params.a, params.b, d))
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-300)

    # Near p = 1 the calibrated b is far below a, and below one at high
    # rho: 1 - a/(a+b) and b + d - 1 - j both lose b to rounding.
    @pytest.mark.parametrize("rho", [1 / 6, 1 / 2, 0.999999])
    @pytest.mark.parametrize("p", [0.9999, 0.99999, 1 - 1e-9])
    @pytest.mark.parametrize("d", [2, 100])
    def test_matches_the_oracle_near_certain_default(self, p, rho, d):
        params = betamix.calibrate(p, rho)
        got = betamix.pmf(params, d).probs
        want = np.array(mpmath_pmf(params.a, params.b, d))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_stays_normalized_at_tiny_correlation(self):
        for rho in (1e-6, 1e-9, 1e-12):
            y = betamix.pmf(betamix.calibrate(0.266, rho), 30)
            assert math.isclose(math.fsum(y.probs), 1.0, abs_tol=1e-12)

    def test_high_correlation_concentrates_at_zero(self):
        y = betamix.pmf(betamix.calibrate(0.003, 5 / 6), 100)
        assert y.probs[0] >= 0.99

    def test_extreme_shapes_stay_normalized(self):
        params = betamix.calibrate(0.003, 5 / 6)
        assert params.a < 0.001
        y = betamix.pmf(params, 100)
        assert math.isclose(math.fsum(y.probs), 1.0, abs_tol=1e-10)
        assert np.all(y.probs >= 0)


class TestTailMeasures:
    def test_reference_quantiles(self):
        assert betamix.var(betamix.calibrate(0.003, 1 / 6), 100, 0.99) == 9
        assert betamix.var(betamix.calibrate(0.017, 1 / 6), 100, 0.95) == 11
        assert betamix.var(betamix.calibrate(0.266, 1 / 2), 100, 0.99) == 100

    def test_quantile_sits_inside_the_class_bounds(self, corr_rays):
        for (name, label), rays in corr_rays.items():
            p = {"A": 0.003, "BBB": 0.017, "B": 0.266}[name]
            rho = {"1/6": 1 / 6, "1/2": 1 / 2, "5/6": 5 / 6}[label]
            params = betamix.calibrate(p, rho)
            for alpha in (0.90, 0.95, 0.99):
                bounds = risk.var_bounds_scan(rays, alpha)
                value = betamix.var(params, 100, alpha)
                assert bounds.var_min <= value <= bounds.var_max

    def test_shortfall_dominates_the_quantile(self):
        rng = np.random.default_rng(103)
        for _ in range(50):
            d = int(rng.integers(2, 120))
            p = float(rng.uniform(0.01, 0.99))
            rho = float(rng.uniform(0.01, 0.99))
            alpha = float(rng.uniform(0.05, 0.99))
            params = betamix.calibrate(p, rho)
            v = betamix.var(params, d, alpha)
            e = betamix.es(params, d, alpha)
            assert v - 1e-12 <= e <= d + 1e-9

    def test_agrees_with_generic_pmf_measures(self):
        params = betamix.calibrate(0.017, 0.5)
        y = betamix.pmf(params, 100)
        for alpha in (0.90, 0.95, 0.99):
            assert betamix.var(params, 100, alpha) == pmf.var(y, alpha)
            assert betamix.es(params, 100, alpha) == pmf.es(y, alpha)


class TestPinnedGrid:
    def test_values_match_the_recorded_grid(self):
        columns = GRID["columns"]
        computed = 0
        for row in GRID["rows"]:
            case = dict(zip(columns, row))
            params = betamix.calibrate(case["p"], case["rho"])
            d, alpha = case["d"], case["alpha"]
            v = betamix.var(params, d, alpha)
            e = betamix.es(params, d, alpha)
            if case["var"] is None:
                # The recorded evaluation could not normalise these.
                assert 0 <= v <= d and v - 1e-12 <= e <= d + 1e-9
                continue
            computed += 1
            assert v == case["var"], case
            assert math.isclose(e, case["es"], rel_tol=1e-10), case
        assert computed == 415
