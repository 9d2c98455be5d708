"""Quantile and shortfall extrema: ray scans, the closed form for the
mean-constrained class, and the class-wide shortfall envelope."""

import itertools
import math
import random
import time
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bernrays import (
    ClassSpec,
    DefaultCountPmf,
    cli,
    pmf,
    rays_corr,
    rays_mean,
    risk,
)
from bernrays.errors import (
    BernraysError,
    EmptyRaySet,
    InvalidSpec,
)
from bernrays.spec import _mean_extrema
from oracles import (
    adjacent_pair_family,
    exact_es_extrema,
    exact_var_extrema,
    mean_grid_pmfs,
    per_level_fold,
    random_mixture,
    scan_vars,
    tail_shortfalls,
)
from test_rays_corr import TIED_CLASSES, degenerate_classes, tied_class


class TestVarScan:
    def test_scan_equals_pointwise_quantiles(self, mean_rays):
        for rays in mean_rays.values():
            for alpha in (0.90, 0.95, 0.99):
                bounds = risk.var_bounds_scan(rays, alpha)
                values = [pmf.var(ray.to_pmf(), alpha) for ray in rays]
                assert bounds.var_min == min(values)
                assert bounds.var_max == max(values)

    def test_scan_matches_single_ray_quantiles(self, corr_rays):
        rng = np.random.default_rng(73)
        rays = corr_rays["B", "1/6"]
        picks = rng.choice(len(rays), size=300, replace=False)
        for alpha in (0.90, 0.99):
            full = risk.var_bounds_scan(rays, alpha)
            for index in picks:
                ray = rays[index]
                one = risk.var_bounds_scan([ray], alpha)
                direct = pmf.var(ray.to_pmf(), alpha)
                assert one.var_min == one.var_max == direct
                assert full.var_min <= direct <= full.var_max

    def test_attaining_rays_and_lexicographic_ties(self, mean_rays):
        bounds = risk.var_bounds_scan(mean_rays["A"], 0.90)
        assert (bounds.var_min, bounds.var_max) == (0, 2)
        # every ray {0, j2} with j2 >= 3 attains the minimum; ties pick
        # the lexicographically smallest support
        assert bounds.argmin_ray == (0, 3)
        assert bounds.argmax_ray == (0, 2)

    def test_var_only_scan_leaves_shortfall_unset(self, mean_rays):
        bounds = risk.var_bounds_scan(mean_rays["A"], 0.95)
        assert bounds.es_min is None and bounds.es_max is None

    def test_rejects_empty_and_mixed_inputs(self):
        with pytest.raises(EmptyRaySet):
            risk.var_bounds_scan([], 0.9)
        a = rays_mean.two_point_ray(ClassSpec(4, 0.5), 0, 4)
        b = rays_mean.two_point_ray(ClassSpec(6, 0.5), 0, 6)
        with pytest.raises(InvalidSpec):
            risk.var_bounds_scan([a, b], 0.9)

    def test_alpha_validation(self, mean_rays):
        for alpha in (0.0, 1.0, -1.0, 2.0):
            with pytest.raises(InvalidSpec):
                risk.var_bounds_scan(mean_rays["A"], alpha)


@st.composite
def mean_classes(draw):
    """Mean classes with d up to 60: p above 1e-9 and below 1, or an
    integer mean. A smaller p below d = 10 fails the ray check
    (``test_a_mean_within_1e_9_of_0_below_d_10_folds_alike``); such
    means are drawn at larger d by
    ``test_agrees_with_the_fold_where_the_mean_rounds_to_0_or_d``."""
    d = draw(st.integers(1, 60))
    if d > 1 and draw(st.booleans()):
        return ClassSpec(d, draw(st.integers(1, d - 1)) / d)
    return ClassSpec(d, draw(st.floats(1e-9, 1.0, exclude_min=True,
                                       exclude_max=True)))


# Mean classes on the edges of the closed forms: p = 1 - alpha, a pivot
# above every lower index, integer means, a mean count an ulp below its
# integer, means that round to 0 or to d.
MEAN_EDGE_CLASSES = [
    ClassSpec(10, 0.1), ClassSpec(4, 0.75), ClassSpec(4, 0.7),
    ClassSpec(100, 0.01), ClassSpec(100, 0.05), ClassSpec(20, 0.1875),
    ClassSpec(49, 2 / 49), ClassSpec(107, 7 / 107), ClassSpec(100, 1e-14),
    ClassSpec(300, 1 - 1e-13), ClassSpec(1, 0.5), ClassSpec(2, 0.5)]


class TestVarClosedForm:
    def test_low_marginal_cells(self):
        spec = ClassSpec(100, 0.003)
        assert risk.var_bounds_mean_closed_form(spec, 0.90) == (0, 2)
        assert risk.var_bounds_mean_closed_form(spec, 0.95) == (0, 5)
        assert risk.var_bounds_mean_closed_form(spec, 0.99) == (0, 29)

    def test_mid_marginal_cells(self):
        spec = ClassSpec(100, 0.017)
        assert risk.var_bounds_mean_closed_form(spec, 0.90) == (0, 16)
        assert risk.var_bounds_mean_closed_form(spec, 0.95) == (0, 33)
        assert risk.var_bounds_mean_closed_form(spec, 0.99) == (1, 100)

    def test_high_marginal_cells(self):
        spec = ClassSpec(100, 0.266)
        assert risk.var_bounds_mean_closed_form(spec, 0.90) == (19, 100)
        assert risk.var_bounds_mean_closed_form(spec, 0.95) == (23, 100)
        assert risk.var_bounds_mean_closed_form(spec, 0.99) == (26, 100)

    def test_boundary_marginal_equal_to_tail_level(self):
        # p = 1 - alpha: the ray on {0, d} carries cdf exactly alpha at
        # zero, the quantile tie resolves downward, and the pivot sits
        # exactly on the case boundary
        spec = ClassSpec(10, 0.1)
        assert risk.var_bounds_mean_closed_form(spec, 0.90) == (0, 9)

    def test_pivot_above_every_lower_index(self):
        assert risk.var_bounds_mean_closed_form(
            ClassSpec(4, 0.75), 0.90
        ) == (3, 4)
        assert risk.var_bounds_mean_closed_form(
            ClassSpec(4, 0.7), 0.90
        ) == (3, 4)

    def test_agrees_with_the_scan_on_random_classes(self):
        rng = np.random.default_rng(79)
        for _ in range(50):
            d = int(rng.integers(2, 101))
            p = float(rng.uniform(0.01, 0.99))
            alpha = float(rng.uniform(0.05, 0.99))
            spec = ClassSpec(d, p)
            closed = risk.var_bounds_mean_closed_form(spec, alpha)
            scan = risk.var_bounds_scan(
                rays_mean.enumerate_rays(spec), alpha
            )
            assert closed == (scan.var_min, scan.var_max)

    def test_rejects_correlation_specs(self):
        with pytest.raises(InvalidSpec):
            risk.var_bounds_mean_closed_form(ClassSpec(4, 0.5, 0.25), 0.9)

    @pytest.mark.parametrize("spec, alpha, point", [
        (ClassSpec(100, 1e-14), 0.99, 0),
        (ClassSpec(100, 1e-14), 1.0 - 1e-14, 0),
        (ClassSpec(300, 1.0 - 1e-13), 1e-12, 300)])
    def test_a_mean_that_rounds_to_0_or_d_is_its_point_ray(self, spec,
                                                           alpha, point):
        # The point ray is the whole class. The two-point branches gave
        # (0, -1), (0, 100) and (270, 300) here.
        assert risk.var_bounds_mean_closed_form(spec, alpha) == (
            point, point)
        bounds = risk.risk_bounds(rays_mean.enumerate_rays(spec), alpha)
        assert (bounds.var_min, bounds.var_max) == (point, point)

    def test_agrees_with_the_fold_where_the_mean_rounds_to_0_or_d(self):
        # d*p at most 1e-9, or p within 1e-12 of 1, at levels near 0 and
        # 1 too: the VaR closed form and the ES rule against the fold.
        rng = np.random.default_rng(311)
        for n in range(200):
            d = int(np.exp(rng.uniform(math.log(10), math.log(2000))))
            if n % 2:
                p = max(float(rng.uniform(0.0, 1e-9)) / d, 5e-324)
            else:
                p = 1.0 - float(rng.uniform(2.0**-53, 1e-12))
            spec = ClassSpec(d, p)
            rays = rays_mean.enumerate_rays(spec)
            alphas = [alpha for alpha in (
                *FOLD_ALPHAS, 1e-12, 1.0 - 1e-14, 1.0 - p, p,
                float(rng.uniform(0.01, 0.999))) if 0.0 < alpha < 1.0]
            assert mean_values(spec, alphas) == whole_set_values(
                rays, alphas), spec

    @settings(max_examples=150, deadline=None)
    @given(mean_classes(), st.data())
    def test_levels_on_and_next_to_ray_masses(self, spec, data):
        # A level whose threshold lands on a ray's cdf at its first point,
        # or an ulp or two from it, resolves as the fold resolves it.
        rays = rays_mean.enumerate_rays(spec)
        alphas = []
        for _ in range(data.draw(st.integers(1, 4), label="levels")):
            row = data.draw(st.integers(0, len(rays) - 1), label="row")
            shift = data.draw(st.integers(-2, 2), label="ulps")
            alphas.append(nudged(float(rays.masses[row, 0])
                                 + pmf.CDF_TIE_TOL, shift))
        alphas = [alpha for alpha in alphas if 0.0 < alpha < 1.0]
        assert mean_values(spec, alphas) == whole_set_values(rays, alphas)

    def test_a_mean_within_1e_9_of_0_below_d_10_folds_alike(self):
        spec = ClassSpec(1, 4.5e-10)
        assert mean_values(spec) == whole_set_values(
            rays_mean.enumerate_rays(spec), FOLD_ALPHAS)


class TestSandwich:
    """Every admissible pmf sits inside the enumerated extrema."""

    def test_exhaustive_grid_mean_class(self):
        spec = ClassSpec(5, 0.4)
        grid = mean_grid_pmfs(5, 2.0, 20)
        for alpha in (0.30, 0.55, 0.90, 0.97):
            lo, hi = risk.var_bounds_mean_closed_form(spec, alpha)
            envelope = risk.es_envelope(spec, alpha)
            for probs in grid:
                y = DefaultCountPmf(5, probs)
                assert lo <= pmf.var(y, alpha) <= hi
                assert (
                    envelope.lower - 1e-12
                    <= pmf.es(y, alpha)
                    <= envelope.upper + 1e-12
                )

    def test_exhaustive_grid_correlation_class(self):
        grid = mean_grid_pmfs(5, 2.0, 20)
        keys = {}
        for probs in grid:
            second = round(20 * sum(j * j * q for j, q in enumerate(probs)))
            keys.setdefault(second, []).append(probs)
        second, members = max(keys.items(), key=lambda kv: len(kv[1]))
        mu2 = (second / 20 - 2.0) / (5 * 4)
        rho = (mu2 - 0.16) / (0.4 * 0.6)
        spec = ClassSpec(5, 0.4, rho)
        rays = rays_corr.enumerate_rays(spec)
        assert len(members) > 10
        for alpha in (0.30, 0.55, 0.90, 0.97):
            bounds = risk.risk_bounds(rays, alpha)
            envelope = risk.es_envelope(spec, alpha)
            for probs in members:
                y = DefaultCountPmf(5, probs)
                assert rays_corr.membership(y, spec)
                assert bounds.var_min <= pmf.var(y, alpha) <= bounds.var_max
                assert (
                    envelope.lower - 1e-12
                    <= pmf.es(y, alpha)
                    <= envelope.upper + 1e-12
                )

    def test_random_mixtures_at_scale(self, mean_rays, corr_rays):
        rng = np.random.default_rng(83)
        for rays in (mean_rays["BBB"], corr_rays["B", "1/6"]):
            for alpha in (0.90, 0.99):
                bounds = risk.var_bounds_scan(rays, alpha)
                envelope = risk.es_envelope(rays, alpha)
                for _ in range(50):
                    probs, _, _ = random_mixture(rng, rays)
                    y = DefaultCountPmf(100, probs)
                    assert bounds.var_min <= pmf.var(y, alpha) <= bounds.var_max
                    assert (
                        envelope.lower - 1e-12
                        <= pmf.es(y, alpha)
                        <= envelope.upper + 1e-12
                    )


class TestEsScan:
    def test_minimum_is_the_mean_for_the_reference_grid(self, mean_rays):
        for name, p in (("A", 0.003), ("BBB", 0.017), ("B", 0.266)):
            for alpha in (0.90, 0.95, 0.99):
                lo, hi = risk.es_bounds_scan(mean_rays[name], alpha)
                assert math.isclose(lo, 100 * p, abs_tol=1e-9)
                assert lo <= hi <= 100.0 + 1e-9

    def test_scan_stays_inside_the_envelope(self, corr_rays):
        for rays in corr_rays.values():
            for alpha in (0.90, 0.95, 0.99):
                lo, hi = risk.es_bounds_scan(rays, alpha)
                envelope = risk.es_envelope(rays, alpha)
                assert envelope.lower - 1e-12 <= lo
                assert hi <= envelope.upper + 1e-12

    def test_combined_scan_matches_the_separate_ones(self, mean_rays):
        rays = mean_rays["BBB"]
        combined = risk.risk_bounds(rays, 0.95)
        var_only = risk.var_bounds_scan(rays, 0.95)
        es_lo, es_hi = risk.es_bounds_scan(rays, 0.95)
        assert (combined.var_min, combined.var_max) == (
            var_only.var_min, var_only.var_max,
        )
        assert combined.argmin_ray == var_only.argmin_ray
        assert combined.argmax_ray == var_only.argmax_ray
        assert combined.es_min == es_lo and combined.es_max == es_hi


class TestEsEnvelope:
    def test_upper_attainment_flags(self):
        assert risk.es_envelope(ClassSpec(100, 0.017), 0.99).upper_attained
        assert not risk.es_envelope(ClassSpec(100, 0.003), 0.99).upper_attained
        assert risk.es_envelope(ClassSpec(100, 0.266), 0.90).upper_attained

    @pytest.mark.parametrize(
        "spec, alpha, var_max",
        [(ClassSpec(100, 0.266, 1 / 6), 0.9, 82),
         (ClassSpec(100, 0.017, 0.5), 0.99, 93),
         (ClassSpec(100, 0.017, 1 / 6), 0.99, 55),
         (ClassSpec(100, 0.1), 0.9, 99)],
        ids=["B 1/6", "BBB 1/2", "BBB 1/6", "mean class at the tie"],
    )
    def test_upper_is_unattained_below_a_var_maximum_of_d(
        self, spec, alpha, var_max
    ):
        if spec.rho is None:
            assert risk.var_bounds_mean_closed_form(spec, alpha)[1] == var_max
        else:
            rays = rays_corr.enumerate_rays(spec)
            assert risk.var_bounds_scan(rays, alpha).var_max == var_max
        assert not risk.es_envelope(spec, alpha).upper_attained

    def test_flag_is_a_var_maximum_of_d_on_seeded_classes(self):
        rng = np.random.default_rng(97)
        for _ in range(60):
            d = int(rng.integers(2, 30))
            p = float(rng.uniform(0.01, 0.99))
            alpha = float(rng.uniform(0.5, 0.999))
            spec = ClassSpec(d, p)
            rays = rays_mean.enumerate_rays(spec)
            if rng.random() < 0.5:
                low, high = rays_mean.correlation_bounds(spec)
                spec = ClassSpec(d, p, float(rng.uniform(low, high)))
                rays = rays_corr.enumerate_rays(spec)
            var_max = risk.var_bounds_scan(rays, alpha).var_max
            for source in (spec, rays):
                flag = risk.es_envelope(source, alpha).upper_attained
                assert flag == (var_max == d)

    def test_lower_edge_is_the_minimal_quantile(self):
        spec = ClassSpec(100, 0.266)
        envelope = risk.es_envelope(spec, 0.95)
        assert envelope.lower == 23.0
        assert envelope.upper == 100.0

    def test_spec_and_ray_inputs_agree(self, corr_rays):
        spec = ClassSpec(100, 0.017, 0.5)
        from_spec = risk.es_envelope(spec, 0.95)
        from_rays = risk.es_envelope(corr_rays["BBB", "1/2"], 0.95)
        assert from_spec == from_rays

    def test_attained_upper_bound_is_approached(self):
        # the ray on {0, d} has es equal to d once 1 - p < alpha
        spec = ClassSpec(100, 0.266)
        ray = rays_mean.two_point_ray(spec, 0, 100)
        assert math.isclose(pmf.es(ray.to_pmf(), 0.90), 100.0, rel_tol=1e-12)


FOLD_ALPHAS = (0.9, 0.95, 0.99)


def whole_set_bounds(rays, alpha):
    """Risk bounds from one scan of every row of ``rays`` at once: the
    per-row VaR and ES expressions, the extrema over all rows and a
    lexicographic sort of the attaining rows."""
    values = scan_vars(rays.support, rays.masses, alpha)
    es = tail_shortfalls(rays, values)

    def first(value):
        rows = np.flatnonzero(values == value)
        s = rays.support[rows]
        t = rows[np.lexsort(s.T[::-1])[0]]
        return tuple(rays.support[t, : rays.sizes[t]].tolist())

    lo, hi = int(values.min()), int(values.max())
    return risk.RiskBounds(alpha, lo, hi, float(es.min()), float(es.max()),
                           first(lo), first(hi))


def outer_pair_values(spec, alphas=FOLD_ALPHAS):
    """The four value fields per level of a correlated class's outer-pair
    path, with floats as their exact bits."""
    found = risk._extrema(spec, rays_corr._capped_ranges(spec), alphas,
                          es=True)
    return [[lo, hi, es_lo.hex(), es_hi.hex()]
            for lo, hi, es_lo, es_hi in found]


def mean_values(spec, alphas=FOLD_ALPHAS):
    """The four value fields per level of a mean class's closed forms,
    with floats as their exact bits."""
    return [[lo, hi, es_lo.hex(), es_hi.hex()]
            for lo, hi, es_lo, es_hi in _mean_extrema(spec, alphas)]


def whole_set_values(rays, alphas):
    """The four value fields per level of the fold over the whole set,
    with floats as their exact bits."""
    return [bits(bounds)[1:5] for bounds in risk._fold([rays], alphas)]


def bits(bounds):
    """The fields of a RiskBounds, with floats as their exact bits."""
    return [x.hex() if isinstance(x, float) else x
            for x in (bounds.alpha, bounds.var_min, bounds.var_max,
                      bounds.es_min, bounds.es_max, bounds.argmin_ray,
                      bounds.argmax_ray)]


def fold_classes(seed, count, d_max):
    """Seeded classes of both kinds, with integer means, p = 1 - alpha,
    rho = 0 and 1 and the lower correlation edge among them."""
    rng = np.random.default_rng(seed)
    for n in range(count):
        d = int(rng.integers(2, d_max + 1))
        kind = n % 5
        if kind == 0:
            p = int(rng.integers(1, d)) / d
        elif kind == 1:
            p = 1.0 - FOLD_ALPHAS[n % 3]
        else:
            p = float(rng.uniform(0.01, 0.99))
        if n % 2:
            yield ClassSpec(d, p)
            continue
        low, _ = rays_mean.correlation_bounds(ClassSpec(d, p))
        rho = (0.0, 1.0, low, float(rng.uniform(low, 1.0)))[n // 2 % 4]
        yield ClassSpec(d, p, rho if rho > -1.0 else 0.0)


def module_of(spec):
    return rays_mean if spec.rho is None else rays_corr


def per_level_bits(blocks, alphas, es=True):
    """:func:`bits` of the per-level reference scan over ``blocks``."""
    with np.errstate(all="ignore"):
        found = per_level_fold(blocks, alphas, es, pmf.CDF_TIE_TOL)
    return [bits(risk.RiskBounds(alpha, lo, hi, es_lo if es else None,
                                 es_hi if es else None, argmin, argmax))
            for alpha, (lo, hi, es_lo, es_hi, argmin, argmax)
            in zip(alphas, found)]


@dataclass
class Rows:
    """Padded ray rows as the fold reads them, never checked, and the
    class whose mean a shortfall at the first point takes."""

    support: np.ndarray
    masses: np.ndarray
    sizes: np.ndarray
    spec: ClassSpec

    def __len__(self):
        return len(self.support)

    def blocks(self, size):
        return [Rows(self.support[t:t + size], self.masses[t:t + size],
                     self.sizes[t:t + size], self.spec)
                for t in range(0, len(self), size)]


THRESHOLDS = [alpha - pmf.CDF_TIE_TOL for alpha in FOLD_ALPHAS]


def nudged(x, k):
    """``x`` moved by ``k`` ulps."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


def ulps_from(x):
    """``x`` or a float up to two ulps either side of it."""
    return st.integers(-2, 2).map(lambda k: nudged(x, k))


# Subnormal and tiny masses, masses on a rounding halfway point of the
# two-point cdf, and masses at a quantile threshold.
POSITIVE_MASSES = st.one_of(
    st.sampled_from([5e-324, 3 * 5e-324, 2.0**-1022, 2.0**-53, 2.0**-54,
                     3 * 2.0**-54, 1e-12, 0.5, 1.0 - 2.0**-53, 1.0]),
    st.sampled_from(THRESHOLDS).flatmap(ulps_from),
    st.floats(5e-324, 1.0),
)


@st.composite
def adversarial_rows(draw):
    """One row of 1 to 3 support points with a positive first mass,
    padded as a ray set pads it."""
    size = draw(st.integers(1, 3))
    points = sorted(draw(st.sets(st.integers(0, 30), min_size=size,
                                 max_size=size)))
    masses = [draw(POSITIVE_MASSES)]
    if size > 1:
        # A second mass that puts the cdf on a threshold, or cancels.
        masses.append(draw(st.one_of(
            POSITIVE_MASSES,
            st.sampled_from(THRESHOLDS).flatmap(
                lambda t: ulps_from(t - masses[0])),
            POSITIVE_MASSES.map(lambda x: -x),
        )))
    if size > 2:
        # A third mass that cancels the first two or completes them to 1.
        masses.append(draw(st.one_of(
            POSITIVE_MASSES, st.just(-(masses[0] + masses[1])),
            st.just(1.0 - masses[0] - masses[1]),
        )))
    padding = draw(st.sampled_from([0.0, -0.0]))
    return (points + points[-1:] * (3 - size),
            masses + [padding] * (3 - size), size)


# The class of adversarial rows, on {0, ..., 30}: any mean, or an
# integer one.
ROW_CLASSES = st.one_of(
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.integers(1, 29).map(lambda n: n / 30)).map(
        lambda p: ClassSpec(30, p))


class TestFold:
    """The one scan body, over blocks cut any way from a class's rays."""

    def test_streamed_blocks_fold_like_the_whole_set(self):
        # A mean class takes the closed forms and a correlated class the
        # outer-pair path, whose four values are the fold's.
        for spec in fold_classes(101, 200, 60):
            source = module_of(spec)
            try:
                rays = source.enumerate_rays(spec)
            except BernraysError as exc:
                with pytest.raises(type(exc)):
                    outer_pair_values(spec)
                continue
            if spec.rho is not None:
                assert outer_pair_values(spec) == whole_set_values(
                    rays, FOLD_ALPHAS), spec
                continue
            assert mean_values(spec) == whole_set_values(
                rays, FOLD_ALPHAS), spec
            fold = risk._fold([rays], FOLD_ALPHAS)
            for alpha, got in zip(FOLD_ALPHAS, fold):
                want = whole_set_bounds(rays, alpha)
                assert bits(got) == bits(want) == bits(
                    risk.risk_bounds(rays, alpha)), spec
            assert [bits(b) for b in fold] == per_level_bits(
                [rays], FOLD_ALPHAS), spec

    @staticmethod
    def assert_any_cut_folds_alike(rays):
        want = [bits(whole_set_bounds(rays, alpha)) for alpha in FOLD_ALPHAS]
        n = len(rays)
        for size in (1, 7, n):
            blocks = [rays[t:t + size] for t in range(0, n, size)]
            for order in (blocks, blocks[::-1]):
                got = risk._fold(order, FOLD_ALPHAS)
                assert [bits(b) for b in got] == want
                var_only = risk._fold(order, FOLD_ALPHAS, es=False)
                assert [bits(b)[:3] + bits(b)[5:] for b in var_only] == [
                    w[:3] + w[5:] for w in want]
                assert all(b.es_min is b.es_max is None for b in var_only)
                assert [bits(b) for b in var_only] == per_level_bits(
                    order, FOLD_ALPHAS, es=False)
                assert want == per_level_bits(order, FOLD_ALPHAS)

    def test_blocks_of_one_seven_and_every_row_agree(self):
        for spec in fold_classes(103, 30, 14):
            self.assert_any_cut_folds_alike(
                module_of(spec).enumerate_rays(spec))

    @settings(max_examples=25, deadline=None)
    @given(degenerate_classes())
    def test_blocks_agree_on_degenerate_classes(self, spec):
        if spec.d <= 20:
            self.assert_any_cut_folds_alike(rays_corr.enumerate_rays(spec))
        rays = rays_corr.enumerate_rays(spec)
        assert outer_pair_values(spec) == [
            bits(whole_set_bounds(rays, alpha))[1:5]
            for alpha in FOLD_ALPHAS]

    @settings(max_examples=150, deadline=None)
    @given(st.lists(adversarial_rows(), min_size=1, max_size=24),
           st.integers(1, 8), st.booleans(), ROW_CLASSES)
    # A sum of masses that is subnormal: the shortfall of a candidate no
    # tail uses overflows.
    @example([([0, 1, 2], [1.0, -1.0, 5e-324], 3)], 1, True,
             ClassSpec(30, 0.5))
    def test_adversarial_rows_fold_like_the_per_level_scan(self, rows,
                                                           size, es, spec):
        support, masses, sizes = zip(*rows)
        blocks = Rows(np.array(support, np.int64), np.array(masses),
                      np.array(sizes, np.int64), spec).blocks(size)
        got = risk._fold(blocks, FOLD_ALPHAS, es)
        assert [bits(b) for b in got] == per_level_bits(
            blocks, FOLD_ALPHAS, es)

    def test_no_rows_is_an_empty_scan(self):
        spec = ClassSpec(4, 0.5)
        empty = rays_mean.RaySet(spec, np.empty((0, 3)), np.empty((0, 3)))
        with pytest.raises(EmptyRaySet):
            risk._fold([empty, empty], FOLD_ALPHAS)

    def test_levels_are_checked_before_any_block_is_drawn(self):
        def blocks():
            raise AssertionError("a block was drawn")
            yield

        with pytest.raises(InvalidSpec):
            risk._fold(blocks(), (0.9, 1.5))

    def test_streamed_bounds_stay_far_below_the_whole_set(self):
        # Enumerating this class and then scanning it peaks at 34-37 MiB
        # under tracemalloc; the outer pairs hold O(pairs) bounds and one
        # slice of solved triples at a time.
        spec = ClassSpec(200, 0.294, 0.181)
        tracemalloc.start()
        try:
            rows = cli._bounds_rows(spec, FOLD_ALPHAS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [(row["var_min"], row["var_max"], row["beta_var"])
                for row in rows] == [(46, 176, 116), (62, 200, 133),
                                     (81, 200, 161)]
        # About 3 MiB (5 MiB when every ray was folded in blocks).
        assert peak < 12 * 2**20


def var_classes(seed, count, d_max):
    """Seeded correlated classes with d from 2 to ``d_max``, drawn
    log-uniformly: integer means, p = 1 - alpha, rho = 0 and 1, lower
    edges and rho drawn up to 1 or near the edge."""
    rng = np.random.default_rng(seed)
    for n in range(count):
        d = int(np.exp(rng.uniform(math.log(2), math.log(d_max + 1))))
        kind = n % 4
        if kind == 0:
            p = int(rng.integers(1, d)) / d
        elif kind == 1:
            p = 1.0 - FOLD_ALPHAS[n % 3]
        else:
            p = float(rng.uniform(0.005, 0.995))
        low, _ = rays_mean.correlation_bounds(ClassSpec(d, p))
        rho = (0.0, 1.0, low, float(rng.uniform(low, 1.0)),
               float(rng.uniform(low, low + 0.05)))[n % 5]
        yield ClassSpec(d, p, rho if rho > -1.0 else 0.0)


def lower_edge(d, p):
    return ClassSpec(d, p, rays_mean.correlation_bounds(ClassSpec(d, p))[0])


def exact_classes(seed, count):
    """Seeded classes with d up to 16 and rational moments of small
    denominators: a mean count ``m`` in (0, d) and a raw second moment
    from the mean class's floor to its ceiling ``m*d``, both ends
    included."""
    rng = random.Random(seed)
    for _ in range(count):
        d = rng.randint(2, 16)
        scale = rng.choice([1, 2, 3, 4, 5, 6, 8, 12])
        m = Fraction(rng.randint(1, d * scale - 1), scale)
        j = m.numerator // m.denominator
        floor = (2 * j + 1) * m - j * (j + 1)
        steps = rng.choice([1, 2, 3, 4, 7, 12])
        yield d, m, floor + (m * d - floor) * Fraction(
            rng.randint(0, steps), steps)


# Integer-mean lower edges whose enumeration keeps three-point rows from
# Cramer cancellation, where theory gives the point ray alone.
CRAMER_CLASSES = [lower_edge(433, 385 / 433), lower_edge(576, 563 / 576)]


def every_ray(spec):
    """Every ray of a correlated class as checked blocks: the rows
    ``enumerate_rays`` gathers, folded as they are drawn, so that a scan
    of a large class never holds the whole set."""
    blocks = rays_corr._solved(spec, *rays_corr._capped_ranges(spec))
    return (rays_mean.RaySet._owning(spec, *rows) for rows in
            itertools.chain([rays_corr._matching_mean_rays(spec)], blocks))


def streamed_var(spec, alphas):
    """``(var_min, var_max)`` per level of the fold over every ray."""
    return [(b.var_min, b.var_max)
            for b in risk._fold(every_ray(spec), alphas, es=False)]


@st.composite
def small_classes(draw):
    """Correlated classes with d up to 60, p anywhere in (0, 1) and rho
    anywhere from the lower edge to 1."""
    d = draw(st.integers(2, 60))
    p = draw(st.floats(0.001, 0.999))
    low, _ = rays_mean.correlation_bounds(ClassSpec(d, p))
    rho = draw(st.floats(max(low, -0.999), 1.0))
    return ClassSpec(d, p, rho)


class TestVarExtrema:
    """VaR extrema from the rays whose support holds two adjacent indices
    or spans {0, d}, against the streamed fold over every ray and, in
    exact arithmetic, against every ray."""

    def test_equal_the_streamed_fold_on_seeded_classes(self):
        rng = np.random.default_rng(241)
        specs = [*var_classes(241, 220, 400), *CRAMER_CLASSES,
                 *(tied_class(*case) for case in TIED_CLASSES)]
        assert sum(spec.d > 200 for spec in specs) >= 20
        for spec in specs:
            alphas = [*FOLD_ALPHAS, *rng.uniform(0.01, 0.999, 2).tolist()]
            if spec.p < 0.5:
                alphas.append(1.0 - spec.p)
            assert risk._var_extrema(spec, alphas) == streamed_var(
                spec, alphas), spec

    @settings(max_examples=120, deadline=None)
    @given(st.one_of(degenerate_classes(), small_classes()), st.data())
    def test_levels_on_and_next_to_ray_masses(self, spec, data):
        # A level whose threshold lands on a ray's cdf at its first or
        # second point, or an ulp or two from it.
        rays = rays_corr.enumerate_rays(spec)
        alphas = []
        for _ in range(data.draw(st.integers(1, 4), label="levels")):
            row = data.draw(st.integers(0, len(rays) - 1), label="row")
            cdf = rays.masses[row, 0]
            if data.draw(st.booleans(), label="second point"):
                cdf = cdf + rays.masses[row, 1]
            shift = data.draw(st.integers(-2, 2), label="ulps")
            alphas.append(nudged(float(cdf) + pmf.CDF_TIE_TOL, shift))
        assume(all(0.0 < alpha < 1.0 for alpha in alphas))
        assert risk._var_extrema(spec, alphas) == streamed_var(spec, alphas)

    def test_adjacent_pair_rays_hold_every_exact_extremum(self):
        # In exact arithmetic, at every level up to ties, the VaR extrema
        # over every ray are those over the rays _var_extrema solves.
        checks = 0
        for d, m, big_m in exact_classes(263, 250):
            levels, every, family = exact_var_extrema(d, m, big_m)
            assert every == family, (d, m, big_m)
            checks += len(levels)
        assert checks > 10_000

    def test_solve_at_most_six_triples_per_index(self, monkeypatch):
        # The candidate triples of a class number O(d**3); the rays that
        # can attain a VaR extremum, O(d).
        solved = []
        solve = rays_corr._solve_triples

        def counted(spec, i, j, k):
            solved[-1] += len(j)
            return solve(spec, i, j, k)

        monkeypatch.setattr(rays_corr, "_solve_triples", counted)
        specs = [*var_classes(241, 220, 400), *CRAMER_CLASSES,
                 *(tied_class(*case) for case in TIED_CLASSES)]
        for spec in specs:
            solved.append(0)
            risk._var_extrema(spec, FOLD_ALPHAS)
            assert solved[-1] <= 6 * (spec.d + 1), spec

    @pytest.mark.parametrize("cap", [1, 4096])
    def test_refuse_exactly_what_the_sweep_refuses(self, monkeypatch, cap):
        monkeypatch.setattr(rays_corr, "MAX_CANDIDATES", cap)
        for d in (2, 3, 5, 12, 30, 100):
            for p in (0.003, 0.266, 0.5):
                specs = [ClassSpec(d, p, rho) for rho in cli._sweep_grid(3)]
                errors = []
                for spec in specs:
                    try:
                        rays_corr._solved(
                            spec, *rays_corr._capped_ranges(spec))
                    except BernraysError as exc:
                        errors.append(exc)
                        with pytest.raises(type(exc)) as caught:
                            risk.es_envelope(spec, 0.9)
                        assert str(caught.value) == str(exc)
                    else:
                        risk.es_envelope(spec, 0.9)
                result = CliRunner().invoke(cli.main, [
                    "sweep", "--d", str(d), "--p", str(p), "--grid", "3"])
                if errors:
                    assert result.exit_code == cli.EXIT_INFEASIBLE
                    assert result.stderr == f"error: {errors[0]}\n"
                else:
                    assert result.exit_code == 0, result.stderr

    def test_an_empty_class_is_an_empty_scan(self, monkeypatch):
        monkeypatch.setattr(rays_corr, "ZERO_MASS_TOL", 2.0)
        monkeypatch.setattr(rays_corr, "_MATCH_SCALE", -1.0)
        spec = ClassSpec(30, 0.4, 0.2)
        with pytest.raises(EmptyRaySet):
            streamed_var(spec, FOLD_ALPHAS)
        with pytest.raises(EmptyRaySet):
            risk._var_extrema(spec, FOLD_ALPHAS)
        with pytest.raises(EmptyRaySet):
            outer_pair_values(spec)


class TestEnvelopeOfAClass:
    """``es_envelope`` of a correlated class, against the streamed fold."""

    @staticmethod
    def streamed_envelope(spec, alpha):
        (var_min, var_max), = streamed_var(spec, (alpha,))
        return risk.EsEnvelope(float(var_min), float(spec.d),
                               var_max == spec.d)

    def test_equals_the_streamed_fold_on_seeded_classes(self):
        specs = [*var_classes(251, 60, 150), ClassSpec(100, 0.5, 1.0),
                 ClassSpec(3000, 0.5, 1.0), ClassSpec(257, 0.1, 1.0)]
        for spec in specs:
            for alpha in FOLD_ALPHAS:
                assert risk.es_envelope(spec, alpha) == (
                    self.streamed_envelope(spec, alpha)), spec

    @settings(max_examples=40, deadline=None)
    @given(degenerate_classes(), st.sampled_from(FOLD_ALPHAS))
    def test_equals_the_streamed_fold_on_degenerate_classes(self, spec,
                                                            alpha):
        assert risk.es_envelope(spec, alpha) == self.streamed_envelope(
            spec, alpha)

    def test_comonotone_peak_is_no_higher_than_the_streamed_fold(self):
        # All d - 1 candidates of this class lie on one lower index, so
        # the streamed fold holds them at once.
        spec = ClassSpec(10**6, 0.5, 1.0)
        peaks, found = [], []
        for run in (lambda: self.streamed_envelope(spec, 0.99),
                    lambda: risk.es_envelope(spec, 0.99)):
            tracemalloc.start()
            try:
                found.append(run())
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert found[0] == found[1] == (1e6, 1e6, True)
        assert peaks[1] <= peaks[0]


class TestOuterPairBounds:
    """The four value fields of a correlated class from the outer pairs
    that can hold an extremum, against the fold over the whole set."""

    def test_equal_the_whole_set_fold_on_seeded_classes(self):
        rng = np.random.default_rng(271)
        specs = [*var_classes(271, 220, 150), *CRAMER_CLASSES,
                 *(tied_class(*case) for case in TIED_CLASSES)]
        for spec in specs:
            alphas = [*FOLD_ALPHAS, *rng.uniform(0.01, 0.999, 2).tolist()]
            if spec.p < 0.5:
                alphas.append(1.0 - spec.p)
            assert outer_pair_values(spec, alphas) == whole_set_values(
                rays_corr.enumerate_rays(spec), alphas), spec

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(degenerate_classes(), small_classes()), st.data())
    def test_levels_on_and_next_to_ray_masses(self, spec, data):
        # A level whose threshold lands on a ray's cdf at its first or
        # second point, or an ulp or two from it.
        rays = rays_corr.enumerate_rays(spec)
        alphas = list(FOLD_ALPHAS)
        for _ in range(data.draw(st.integers(1, 4), label="levels")):
            row = data.draw(st.integers(0, len(rays) - 1), label="row")
            cdf = rays.masses[row, 0]
            if data.draw(st.booleans(), label="second point"):
                cdf = cdf + rays.masses[row, 1]
            shift = data.draw(st.integers(-2, 2), label="ulps")
            alphas.append(nudged(float(cdf) + pmf.CDF_TIE_TOL, shift))
        alphas = [alpha for alpha in alphas if 0.0 < alpha < 1.0]
        assert outer_pair_values(spec, alphas) == whole_set_values(
            rays, alphas)

    @pytest.mark.parametrize("spec, alpha, es_max, family_max", [
        (ClassSpec(16, 0.1, 0.25), 0.95, 12.916666666666668, 12.0),
        (ClassSpec(11, 0.25, 1 / 6), 0.9, 9.322033898305085, 9.0)])
    def test_an_es_maximum_off_the_var_family(self, spec, alpha, es_max,
                                              family_max):
        # The adjacent-pair family holds every VaR extremum but not this
        # ES maximum, so the outer pairs must be solved beyond it.
        rays = rays_corr.enumerate_rays(spec)
        found = outer_pair_values(spec, (alpha,))
        assert found == whole_set_values(rays, (alpha,))
        keep = [adjacent_pair_family(ray.support, spec.d) for ray in rays]
        family = rays_mean.RaySet(spec, rays.support[keep],
                                  rays.masses[keep])
        (*_, family_es_max), = whole_set_values(family, (alpha,))
        assert float.fromhex(family_es_max) == family_max
        assert float.fromhex(found[0][3]) == es_max > family_max

    def test_a_class_above_the_cap_in_time_and_memory(self, monkeypatch):
        # The fold over the 31.7 million candidate triples of this class
        # takes about 6 s and gives these bits; the outer pairs about
        # 0.07 s, and 25 MiB under tracemalloc.
        monkeypatch.setattr(rays_corr, "MAX_CANDIDATES", 2**62)
        spec = ClassSpec(1000, 0.266, 1 / 6)
        tracemalloc.start()
        try:
            start = time.perf_counter()
            found = outer_pair_values(spec)
            var = risk._var_extrema(spec, FOLD_ALPHAS)
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert found == [
            [206, 808, "0x1.0a00000000000p+8", "0x1.9400000000000p+9"],
            [248, 1000, "0x1.20b076fc76d65p+8", "0x1.f400000000000p+9"],
            [366, 1000, "0x1.7698577048004p+8", "0x1.f400000000000p+9"]]
        assert var == [tuple(values[:2]) for values in found]
        assert elapsed < 5.0
        assert peak < 64 * 2**20

    def test_solve_a_tenth_of_the_candidates_of_dense_classes(
        self, monkeypatch
    ):
        # Where some ray's VaR is at its first point, every such ray is
        # solved, as the least bits of the mean decide es_min; on dense
        # classes that is a few percent of the candidates (at most 6.4 %).
        solved = []
        solve = rays_corr._solve_triples

        def counted(spec, i, j, k):
            solved[-1] += len(j)
            return solve(spec, i, j, k)

        monkeypatch.setattr(rays_corr, "_solve_triples", counted)
        for d in (200, 400):
            for p, rho in ((0.266, 1 / 6), (0.25, 0.15), (0.5, 0.05)):
                spec = ClassSpec(d, p, rho)
                solved.append(0)
                outer_pair_values(spec)
                assert solved[-1] <= rays_corr.candidate_count(spec) / 10

    @pytest.mark.parametrize("p, rho, counts", [
        (0.266, 1 / 6, (1_804, 9_243, 76_924)),
        (0.017, 0.5, (2_603, 18_297, 125_607))])
    def test_solve_no_more_triples_than_the_best_first_rounds(
        self, monkeypatch, p, rho, counts
    ):
        # One pass over the pairs whose bounds beat the extrema of the
        # adjacent-pair family solves no more triples on these classes
        # than solving best bound first against a running extremum did.
        solved = []
        solve = rays_corr._solve_triples

        def counted(spec, i, j, k):
            solved[-1] += len(j)
            return solve(spec, i, j, k)

        monkeypatch.setattr(rays_corr, "_solve_triples", counted)
        for d, count in zip((100, 200, 400), counts):
            solved.append(0)
            outer_pair_values(ClassSpec(d, p, rho))
            assert solved[-1] <= count, (d, p, rho)


class TestShortfallRule:
    """A ray's ES is the class mean where its VaR is its first point and
    the point where its tail holds one point, so every ES extremum lies
    in [mean, d]; a mean class's extrema follow from its VaR closed
    form."""

    @staticmethod
    def assert_inside(spec, found):
        for _, _, es_min, es_max in found:
            assert spec.mean_count <= es_min <= es_max <= spec.d, spec

    def values(self, spec, alphas):
        """The four values per level that ``bounds`` prints, and the
        whole-set fold's where the class is small."""
        if spec.rho is None:
            found = _mean_extrema(spec, alphas)
        else:
            found = risk._extrema(spec, rays_corr._capped_ranges(spec),
                                  alphas, es=True)
        if spec.d <= 60:
            rays = module_of(spec).enumerate_rays(spec)
            found += [(b.var_min, b.var_max, b.es_min, b.es_max)
                      for b in risk._fold([rays], alphas)]
        return found

    def test_seeded_classes_of_both_kinds(self):
        rng = np.random.default_rng(283)
        specs = [*fold_classes(283, 300, 200), *CRAMER_CLASSES,
                 *MEAN_EDGE_CLASSES]
        for spec in specs:
            alphas = [*FOLD_ALPHAS, *rng.uniform(0.01, 0.999, 2).tolist()]
            if spec.p < 0.5:
                alphas.append(1.0 - spec.p)
            self.assert_inside(spec, self.values(spec, alphas))

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(mean_classes(), degenerate_classes(), small_classes()),
           st.lists(st.floats(0.0, 1.0, exclude_min=True,
                              exclude_max=True), max_size=3))
    def test_drawn_classes_of_both_kinds(self, spec, alphas):
        self.assert_inside(spec, self.values(spec, [*FOLD_ALPHAS, *alphas]))

    def test_exact_extrema_at_every_level(self):
        # In exact arithmetic, at every level up to ties, the ES extrema
        # over every ray are within the rounding bound of a two-point
        # tail (risk._PAIR_SLACK) of the outer-pair path's.
        checks = 0
        for d, m, big_m in exact_classes(293, 80):
            p = m / d
            rho = ((big_m - m) / (d * (d - 1)) - p * p) / (p * (1 - p))
            if rho <= -1:
                continue  # the class of one name pair, outside ClassSpec
            spec = ClassSpec(d, float(p), float(rho))
            levels, exact = exact_es_extrema(d, m, big_m)
            alphas = [float(level) for level in levels]
            found = risk._extrema(spec, rays_corr._capped_ranges(spec),
                                  alphas, es=True)
            for alpha, (lo, hi), (*_, es_min, es_max) in zip(
                    alphas, exact, found):
                room = (1.0 - (alpha - pmf.CDF_TIE_TOL)
                        - risk._PAIR_SLACK * d**2)
                bound = risk._PAIR_SLACK * d**3 / room
                assert abs(es_min - lo) <= bound, (d, m, big_m, alpha)
                assert abs(es_max - hi) <= bound, (d, m, big_m, alpha)
                checks += 1
        assert checks > 3_000

    def test_mean_rows_equal_the_fold(self):
        # The command line's rows of a mean class come from the closed
        # forms; they are the fold's over every ray, bit for bit.
        rng = np.random.default_rng(307)
        specs = [ClassSpec(int(rng.integers(1, 600)),
                           float(rng.uniform(0.001, 0.999)))
                 for _ in range(150)]
        specs += [ClassSpec(d, int(rng.integers(1, d)) / d)
                  for d in rng.integers(2, 600, 75).tolist()]
        for spec in [*specs, *MEAN_EDGE_CLASSES]:
            alphas = [*FOLD_ALPHAS, *rng.uniform(0.01, 0.999, 2).tolist()]
            if spec.p < 0.5:
                alphas.append(1.0 - spec.p)
            rays = rays_mean.enumerate_rays(spec)
            rows = cli._bounds_rows(spec, alphas)
            assert [[row[key] for key in cli.BOUNDS_COLUMNS]
                    for row in rows] == [
                [alpha, b.var_min, b.var_max, b.es_min, b.es_max]
                for alpha, b in ((alpha, risk.risk_bounds(rays, alpha))
                                 for alpha in alphas)], spec


class TestBlockSize:
    """One constant, ``rays_mean._BLOCK_ROWS``, cuts every block of work,
    and no result depends on it."""

    SPECS = [ClassSpec(30, 0.266, 1 / 6), ClassSpec(24, 0.5, 0.5),
             ClassSpec(40, 0.5, 1.0), ClassSpec(30, 0.4, 0.0),
             lower_edge(25, 0.8),
             *(tied_class(*case) for case in TIED_CLASSES)]

    def results(self):
        found = []
        for spec in self.SPECS:
            rays = rays_corr.enumerate_rays(spec)
            found.append((rays.support.tobytes(), rays.masses.tobytes(),
                          outer_pair_values(spec),
                          risk._var_extrema(spec, FOLD_ALPHAS),
                          rays_corr.candidate_count(spec)))
        return found

    def test_no_result_depends_on_the_block_size(self, monkeypatch):
        solves = []
        solve = rays_corr._solve_triples

        def counted(spec, i, j, k):
            solves[-1] += 1
            return solve(spec, i, j, k)

        monkeypatch.setattr(rays_corr, "_solve_triples", counted)
        found, chunks = [], []
        for size in (1, 7, 2**14):
            monkeypatch.setattr(rays_mean, "_BLOCK_ROWS", size)
            solves.append(0)
            found.append(self.results())
            chunks.append(len(list(rays_corr._pair_ranges(self.SPECS[0]))))
        assert found[0] == found[1] == found[2]
        # The patched size reaches the pair chunks and the triple slices
        # alike.
        for counts in (solves, chunks):
            assert counts[0] >= counts[1] >= counts[2], counts
            assert counts[0] > counts[2], counts
