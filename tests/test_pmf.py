"""Count-distribution core: validation, the level-weight bijection,
cross moments, and the discrete quantile/shortfall pair."""

import math
import warnings

import numpy as np
import pytest
import scipy.stats

from bernrays import ClassSpec, DefaultCountPmf, ExchangeablePmfSummary, pmf
from bernrays.errors import (
    DegenerateMarginal,
    EmptyTail,
    InvalidSpec,
    LengthMismatch,
    NegativeMass,
    NotNormalized,
    OrderOutOfRange,
    Overflow,
)


def binomial_pmf(d, p):
    return DefaultCountPmf(d, scipy.stats.binom.pmf(np.arange(d + 1), d, p))


def two_point(d, j1, j2, pd):
    probs = np.zeros(d + 1)
    probs[j1] = (j2 - pd) / (j2 - j1)
    probs[j2] = (pd - j1) / (j2 - j1)
    return DefaultCountPmf(d, probs)


class TestValidation:
    def test_accepts_simple_pmf(self):
        y = DefaultCountPmf(2, [0.25, 0.5, 0.25])
        np.testing.assert_allclose(y.probs, [0.25, 0.5, 0.25])

    def test_rejects_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            DefaultCountPmf(2, [0.5, 0.5])

    def test_rejects_negative_mass(self):
        with pytest.raises(NegativeMass):
            DefaultCountPmf(2, [0.5, 0.6, -0.1])

    def test_clamps_rounding_noise_to_zero(self):
        y = DefaultCountPmf(1, [1.0 + 1e-13, -1e-13])
        assert y.probs[1] == 0.0

    def test_rejects_unnormalized(self):
        with pytest.raises(NotNormalized):
            DefaultCountPmf(2, [0.3, 0.3, 0.3])

    def test_rejects_nonfinite(self):
        with pytest.raises(Overflow):
            DefaultCountPmf(1, [np.inf, 0.0])

    @pytest.mark.parametrize(
        "values, error, message",
        [([0.5, 0.5], LengthMismatch,
          "expected 3 probabilities for d=2, got shape (2,)"),
         ([np.nan, 0.5, 0.5], Overflow, "probabilities must be finite"),
         ([0.5, 0.6, -0.1], NegativeMass, "mass -0.1 below -1e-12"),
         ([0.125] * 3, NotNormalized, "probabilities sum to 0.375")],
        ids=["length", "finite", "negative", "normalized"],
    )
    def test_both_forms_fail_alike(self, values, error, message):
        with pytest.raises(error) as caught:
            DefaultCountPmf(2, values)
        assert str(caught.value) == message
        with pytest.raises(error):
            ExchangeablePmfSummary(2, values)

    def test_probs_are_read_only(self):
        y = DefaultCountPmf(1, [0.5, 0.5])
        with pytest.raises(ValueError):
            y.probs[0] = 1.0


class TestLevelWeightBijection:
    """p_j = C(d, j) f_j maps level weights to count probabilities."""

    def test_independent_weights_give_binomial_counts(self):
        d, p = 7, 0.23
        f = np.array([p**j * (1 - p) ** (d - j) for j in range(d + 1)])
        counts = pmf.to_count_pmf(ExchangeablePmfSummary(d, f))
        np.testing.assert_allclose(
            counts.probs, scipy.stats.binom.pmf(np.arange(d + 1), d, p),
            atol=1e-14,
        )

    def test_fair_three_coin_weights(self):
        counts = pmf.to_count_pmf(ExchangeablePmfSummary(3, [0.125] * 4))
        np.testing.assert_allclose(
            counts.probs, [0.125, 0.375, 0.375, 0.125]
        )

    def test_summary_requires_normalized_weights(self):
        with pytest.raises(NotNormalized):
            ExchangeablePmfSummary(3, [0.125] * 3 + [0.25])

    def test_overflowing_weights_raise_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(Overflow):
                ExchangeablePmfSummary(1000, np.full(1001, 1e300))

    def test_roundtrip_is_identity(self):
        rng = np.random.default_rng(7)
        for d in (2, 3, 7, 40, 100, 400, 1000):
            probs = rng.dirichlet(np.ones(d + 1))
            y = DefaultCountPmf(d, probs)
            back = pmf.to_count_pmf(pmf.from_count_pmf(y))
            np.testing.assert_allclose(back.probs, probs, atol=1e-12)

    def test_zeros_survive_the_roundtrip_exactly(self):
        probs = np.zeros(101)
        probs[0], probs[29] = 28.7 / 29, 0.3 / 29
        back = pmf.to_count_pmf(pmf.from_count_pmf(DefaultCountPmf(100, probs)))
        assert np.all((back.probs == 0) == (probs == 0))


class TestMoments:
    def test_mean_simple(self):
        assert pmf.mean(DefaultCountPmf(2, [0.25, 0.5, 0.25])) == 1.0

    def test_mean_of_point_mass(self):
        probs = np.zeros(11)
        probs[4] = 1.0
        assert pmf.mean(DefaultCountPmf(10, probs)) == 4.0

    def test_mean_of_low_default_ray(self):
        y = two_point(100, 0, 29, 0.3)
        assert math.isclose(pmf.mean(y), 0.3, abs_tol=1e-12)

    def test_cross_moment_order_one_is_marginal_probability(self):
        y = two_point(100, 0, 29, 0.3)
        assert math.isclose(pmf.cross_moment(y, 1), 0.003, abs_tol=1e-15)

    def test_cross_moment_of_point_mass(self):
        d, k = 10, 4
        probs = np.zeros(d + 1)
        probs[k] = 1.0
        got = pmf.cross_moment(DefaultCountPmf(d, probs), 2)
        assert math.isclose(got, k * (k - 1) / (d * (d - 1)), rel_tol=1e-14)

    def test_cross_moment_of_comonotone_ray_is_p(self):
        d, p = 100, 0.266
        y = two_point(d, 0, d, p * d)
        for order in (1, 2, 3, 4):
            assert math.isclose(
                pmf.cross_moment(y, order), p, abs_tol=1e-12
            )

    def test_independence_factorizes_every_order(self):
        """For a binomial count the order-a cross moment is p**a."""
        rng = np.random.default_rng(11)
        for _ in range(20):
            d = int(rng.integers(2, 30))
            p = float(rng.uniform(0.05, 0.95))
            y = binomial_pmf(d, p)
            for order in range(1, d + 1):
                assert math.isclose(
                    pmf.cross_moment(y, order), p**order,
                    rel_tol=1e-10, abs_tol=1e-13,
                )

    def test_cross_moment_matches_the_zeroed_falling_ratio_bit_for_bit(self):
        """The shared ratio helper gives the bits of the original loop,
        which zeroed the ratio below ``order`` by assignment."""

        def reference(y, order):
            k = np.arange(y.d + 1, dtype=float)
            ratio = np.ones(y.d + 1)
            for t in range(order):
                ratio *= (k - t) / (y.d - t)
            ratio[:order] = 0.0
            return math.fsum((ratio * y.probs).tolist())

        rng = np.random.default_rng(2019)
        for _ in range(3000):
            d = int(rng.integers(1, 300))
            weights = rng.exponential(size=d + 1)
            weights *= rng.random(d + 1) < rng.random()
            weights[int(rng.integers(d + 1))] += 1.0
            y = DefaultCountPmf(d, weights / weights.sum())
            for order in {int(rng.integers(1, d + 1)), min(2, d)}:
                got = pmf.cross_moment(y, order)
                assert got.hex() == reference(y, order).hex()

    def test_cross_moment_order_must_be_in_range(self):
        y = DefaultCountPmf(2, [0.25, 0.5, 0.25])
        for order in (0, -1, 3):
            with pytest.raises(OrderOutOfRange):
                pmf.cross_moment(y, order)

    def test_correlation_of_comonotone_ray_is_one(self):
        y = two_point(100, 0, 100, 0.3)
        assert math.isclose(pmf.correlation(y, 0.003), 1.0, abs_tol=1e-12)

    def test_correlation_of_binomial_is_zero(self):
        assert abs(pmf.correlation(binomial_pmf(30, 0.4), 0.4)) < 1e-10

    def test_correlation_rejects_degenerate_marginal(self):
        y = DefaultCountPmf(2, [0.25, 0.5, 0.25])
        for p in (0.0, 1.0):
            with pytest.raises(DegenerateMarginal):
                pmf.correlation(y, p)


class TestVar:
    def test_point_mass_has_constant_quantile(self):
        probs = np.zeros(11)
        probs[6] = 1.0
        y = DefaultCountPmf(10, probs)
        for alpha in (0.01, 0.5, 0.9, 0.999):
            assert pmf.var(y, alpha) == 6

    def test_tail_mass_just_over_the_level(self):
        # mass at zero is 28.7/29 ~ 0.98966 < 0.99, so the quantile jumps
        y = two_point(100, 0, 29, 0.3)
        assert pmf.var(y, 0.99) == 29

    def test_tail_mass_well_under_the_level(self):
        y = two_point(100, 0, 100, 0.3)
        assert pmf.var(y, 0.90) == 0

    def test_exact_tie_resolves_downward(self):
        # mass at zero is (30 - 0.3)/30 = 0.99 exactly, in rationals
        y = two_point(100, 0, 30, 0.3)
        assert pmf.var(y, 0.99) == 0

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            d = int(rng.integers(1, 60))
            y = DefaultCountPmf(d, rng.dirichlet(np.ones(d + 1)))
            alphas = np.sort(rng.uniform(0.01, 0.99, size=8))
            values = [pmf.var(y, a) for a in alphas]
            assert all(a <= b for a, b in zip(values, values[1:]))

    def test_quantile_definition_holds(self):
        """var is the smallest k whose cdf reaches alpha."""
        rng = np.random.default_rng(29)
        for _ in range(100):
            d = int(rng.integers(1, 40))
            probs = rng.dirichlet(np.ones(d + 1))
            y = DefaultCountPmf(d, probs)
            alpha = float(rng.uniform(0.05, 0.99))
            v = pmf.var(y, alpha)
            cdf = np.cumsum(probs)
            assert cdf[v] >= alpha - 1e-9
            if v > 0:
                assert cdf[v - 1] < alpha

    def test_a_level_above_the_total_mass_gives_d(self):
        # The masses total 1 - 4e-11, below alpha - CDF_TIE_TOL.
        y = DefaultCountPmf(2, [0.5, 0.5 - 4e-11, 0.0])
        assert pmf.var(y, 1 - 1e-12) == 2

    def test_alpha_out_of_range(self):
        y = DefaultCountPmf(1, [0.5, 0.5])
        for alpha in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(InvalidSpec):
                pmf.var(y, alpha)


class TestEs:
    def test_point_mass(self):
        probs = np.zeros(11)
        probs[6] = 1.0
        assert pmf.es(DefaultCountPmf(10, probs), 0.9) == 6.0

    def test_whole_support_tail_gives_the_mean(self):
        y = two_point(100, 0, 100, 0.3)
        assert math.isclose(pmf.es(y, 0.90), 0.3, abs_tol=1e-12)

    def test_point_tail(self):
        y = two_point(100, 0, 29, 0.3)
        assert pmf.es(y, 0.99) == 29.0

    def test_dominates_var_and_stays_in_range(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            d = int(rng.integers(1, 60))
            y = DefaultCountPmf(d, rng.dirichlet(np.ones(d + 1)))
            alpha = float(rng.uniform(0.01, 0.99))
            v = pmf.var(y, alpha)
            e = pmf.es(y, alpha)
            assert v - 1e-12 <= e <= d + 1e-9

    def test_a_tail_without_mass_raises(self):
        y = DefaultCountPmf(2, [0.5, 0.5 - 4e-11, 0.0])
        with pytest.raises(EmptyTail):
            pmf.es(y, 1 - 1e-12)

    def test_matches_direct_tail_average(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            d = int(rng.integers(1, 40))
            probs = rng.dirichlet(np.ones(d + 1))
            y = DefaultCountPmf(d, probs)
            alpha = float(rng.uniform(0.05, 0.99))
            v = pmf.var(y, alpha)
            tail = np.arange(d + 1) >= v
            expected = np.sum(np.arange(d + 1)[tail] * probs[tail])
            expected /= np.sum(probs[tail])
            assert math.isclose(pmf.es(y, alpha), expected, rel_tol=1e-12,
                                abs_tol=1e-12)


class TestClassSpec:
    def test_derived_quantities(self):
        spec = ClassSpec(100, 0.266)
        assert math.isclose(spec.mean_count, 26.6, rel_tol=1e-15)
        assert not spec.integer_mean
        assert spec.max_lower_index == 26
        assert spec.min_upper_index == 27

    def test_integer_mean_detection(self):
        spec = ClassSpec(4, 0.5)
        assert spec.integer_mean
        assert spec.max_lower_index == 1
        assert spec.min_upper_index == 3

    def test_second_moment_target(self):
        spec = ClassSpec(4, 0.5, 0.25)
        # mu2 = rho p q + p^2 = 0.3125, so E[S^2] = 2 + 12 * 0.3125
        assert math.isclose(spec.second_moment_target, 5.75, rel_tol=1e-15)

    def test_d_must_fit_int64(self):
        assert ClassSpec(2**63 - 1, 0.5).d == 2**63 - 1
        for make in (ClassSpec, ExchangeablePmfSummary, DefaultCountPmf):
            with pytest.raises(InvalidSpec, match="at most 2"):
                make(2**63, 0.5)

    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidSpec):
            ClassSpec(0, 0.5)
        with pytest.raises(InvalidSpec):
            ClassSpec(4, 0.0)
        with pytest.raises(InvalidSpec):
            ClassSpec(4, 1.5)
        with pytest.raises(InvalidSpec):
            ClassSpec(4, 0.5, -1.0)
        with pytest.raises(InvalidSpec):
            ClassSpec(4, 0.5, 1.0 + 1e-9)
        with pytest.raises(InvalidSpec):
            ClassSpec(1, 0.5, 0.5)
