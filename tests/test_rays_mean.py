"""Extremal rays of the mean-constrained class: construction,
enumeration, convex decomposition, and sharp moment bounds."""

import math

import numpy as np
import pytest
import scipy.stats

from bernrays import (
    ClassSpec,
    DefaultCountPmf,
    RaySet,
    pmf,
    rays_corr,
    rays_mean,
)
from bernrays.errors import (
    EmptyRaySet,
    IndexOutOfRange,
    InvalidSpec,
    LengthMismatch,
    MeanMismatch,
    NonIntegerMean,
    NotNormalized,
)
from oracles import mean_grid_pmfs, random_mixture


class TestTwoPointRay:
    def test_hull_ray_masses(self):
        ray = rays_mean.two_point_ray(ClassSpec(100, 0.003), 0, 100)
        assert ray.support == (0, 100)
        np.testing.assert_allclose(ray.masses, [0.997, 0.003], atol=1e-15)

    def test_low_default_ray_masses(self):
        ray = rays_mean.two_point_ray(ClassSpec(100, 0.003), 0, 29)
        np.testing.assert_allclose(
            ray.masses, [28.7 / 29, 0.3 / 29], atol=1e-15
        )

    def test_mean_straddling_ray_masses(self):
        ray = rays_mean.two_point_ray(ClassSpec(100, 0.017), 1, 2)
        np.testing.assert_allclose(ray.masses, [0.3, 0.7], atol=1e-12)

    def test_every_ray_has_the_class_mean(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            d = int(rng.integers(2, 80))
            p = float(rng.uniform(0.02, 0.98))
            spec = ClassSpec(d, p)
            j1 = int(rng.integers(0, spec.max_lower_index + 1))
            j2 = int(rng.integers(spec.min_upper_index, d + 1))
            ray = rays_mean.two_point_ray(spec, j1, j2)
            got = pmf.mean(ray.to_pmf())
            assert math.isclose(got, spec.mean_count, abs_tol=1e-10 * d)

    def test_rejects_indices_on_the_wrong_side(self):
        spec = ClassSpec(100, 0.003)
        with pytest.raises(IndexOutOfRange):
            rays_mean.two_point_ray(spec, 1, 29)
        with pytest.raises(IndexOutOfRange):
            rays_mean.two_point_ray(spec, 0, 0)
        with pytest.raises(IndexOutOfRange):
            rays_mean.two_point_ray(spec, -1, 29)
        with pytest.raises(IndexOutOfRange):
            rays_mean.two_point_ray(spec, 0, 101)


class TestPointRay:
    def test_point_mass_at_integer_mean(self):
        ray = rays_mean.point_ray(ClassSpec(4, 0.5))
        assert ray.support == (2,)
        assert ray.masses == (1.0,)

    def test_requires_integer_mean(self):
        with pytest.raises(NonIntegerMean):
            rays_mean.point_ray(ClassSpec(100, 0.266))


class TestEnumerate:
    def test_small_class_listing(self):
        rays = rays_mean.enumerate_rays(ClassSpec(4, 0.5))
        supports = [ray.support for ray in rays]
        assert supports == [(0, 3), (0, 4), (1, 3), (1, 4), (2,)]

    def test_count_formula(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            d = int(rng.integers(2, 31))
            p = float(rng.uniform(0.02, 0.98))
            spec = ClassSpec(d, p)
            rays = rays_mean.enumerate_rays(spec)
            expected = (spec.max_lower_index + 1) * (
                d - spec.min_upper_index + 1
            ) + int(spec.integer_mean)
            assert len(rays) == expected

    def test_reference_counts(self, mean_rays):
        assert {k: len(v) for k, v in mean_rays.items()} == {
            "A": 100, "BBB": 198, "B": 1998
        }

    def test_rays_are_minimal_and_tagged(self, mean_rays):
        for rays in mean_rays.values():
            for ray in rays:
                assert len(ray.support) <= 2
                assert ray.spec.rho is None

    def test_rejects_correlation_spec(self):
        with pytest.raises(InvalidSpec):
            rays_mean.enumerate_rays(ClassSpec(4, 0.5, 0.25))


class TestRayDensity:
    def test_masses_must_be_normalized(self):
        with pytest.raises(NotNormalized):
            rays_mean.RayDensity(ClassSpec(4, 0.5), (0, 3), (0.5, 0.6))

    def test_mean_must_match_the_tag(self):
        with pytest.raises(MeanMismatch):
            rays_mean.RayDensity(ClassSpec(4, 0.5), (0, 4), (0.9, 0.1))

    def test_support_must_be_increasing(self):
        with pytest.raises(IndexOutOfRange):
            rays_mean.RayDensity(ClassSpec(4, 0.375), (3, 0), (0.5, 0.5))

    def test_a_repeat_with_zero_mass_is_not_padding(self):
        with pytest.raises(IndexOutOfRange):
            rays_mean.RayDensity(ClassSpec(4, 0.5), (2, 2), (1.0, 0.0))

    @pytest.mark.parametrize(
        "support, masses, error",
        [((0, 4), (0.5, 0.25, 0.25), LengthMismatch),
         ((), (), IndexOutOfRange),
         ((0, 1, 3, 4), (0.25, 0.25, 0.25, 0.25), IndexOutOfRange)],
        ids=["unequal lengths", "no point", "four points"],
    )
    def test_a_ray_is_one_to_three_aligned_points(
        self, support, masses, error
    ):
        with pytest.raises(error):
            rays_mean.RayDensity(ClassSpec(4, 0.5), support, masses)

    def test_second_moment_check_does_not_wrap_int64(self):
        # 4e9 squared is past the int64 range; the true second moment
        # 0.5 * (4e9)**2 is the class target exactly.
        d = 4 * 10**9
        ray = rays_mean.RayDensity(ClassSpec(d, 0.5, 1.0), (0, d), (0.5, 0.5))
        assert ray.support == (0, d)

    def test_to_pmf_is_dense(self):
        ray = rays_mean.two_point_ray(ClassSpec(4, 0.5), 1, 3)
        y = ray.to_pmf()
        np.testing.assert_allclose(y.probs, [0.0, 0.5, 0.0, 0.5, 0.0])


# One bad ray per check of RayDensity, for the class (d=4, p=0.5,
# rho=1/4): mean 2, raw second moment 5.75.
BAD_RAYS = {
    "decreasing": ((2, 0), (0.5, 0.5), IndexOutOfRange),
    "repeated": ((1, 1), (0.5, 0.5), IndexOutOfRange),
    "above d": ((0, 5), (0.6, 0.4), IndexOutOfRange),
    "below 0": ((-1, 3), (0.25, 0.75), IndexOutOfRange),
    "zero mass": ((0, 4), (1.0, 0.0), NotNormalized),
    "negative mass": ((0, 2, 4), (0.5, 0.7, -0.2), NotNormalized),
    "nan mass": ((0, 4), (float("nan"), 0.5), NotNormalized),
    "sum": ((0, 4), (0.5, 0.6), NotNormalized),
    "mean": ((1, 3), (0.40625, 0.59375), MeanMismatch),
    "second moment": ((1, 3), (0.5, 0.5), MeanMismatch),
}


class TestRaySet:
    def test_is_a_sequence_of_rays(self):
        rays = rays_mean.enumerate_rays(ClassSpec(4, 0.5))
        listed = list(rays)
        assert len(rays) == len(listed) == 5
        assert rays[-1] == listed[4]
        assert rays[np.int64(1)].support == (0, 4)
        assert isinstance(rays[1:3], RaySet)
        assert list(rays[1:3]) == listed[1:3]
        with pytest.raises(IndexError):
            rays[5]
        with pytest.raises(ValueError):
            rays.masses[0, 0] = 0.5

    def test_the_constructor_copies_and_never_freezes_its_inputs(self):
        spec = ClassSpec(4, 0.5)
        support = np.array([[0, 4, 4], [2, 2, 2]])
        masses = np.array([[0.5, 0.5, 0.0], [1.0, 0.0, 0.0]])
        rays = RaySet(spec, support, masses)
        assert support.flags.writeable and masses.flags.writeable
        support[0, 0] = 1
        masses[0, 0] = 0.25
        assert rays.support[0].tolist() == [0, 4, 4]
        assert rays.masses[0].tolist() == [0.5, 0.5, 0.0]

    def test_a_library_set_takes_its_arrays_without_a_copy(self):
        spec = ClassSpec(4, 0.5)
        support, masses = rays_mean._mean_rows(spec, [0, 1], [4, 3], True)
        rays = RaySet._owning(spec, support, masses)
        assert rays.support is support and rays.masses is masses
        assert not support.flags.writeable and not masses.flags.writeable
        assert rays.sizes.tolist() == [2, 2, 1]

    def test_repr_names_the_class_and_the_count(self):
        rays = rays_mean.enumerate_rays(ClassSpec(4, 0.5))
        assert repr(rays) == (
            "RaySet(spec=ClassSpec(d=4, p=0.5, rho=None), n=5)"
        )

    def test_rows_of_two_columns_raise(self):
        rays = rays_mean.enumerate_rays(ClassSpec(4, 0.5))
        with pytest.raises(IndexOutOfRange):
            RaySet(rays.spec, rays.support[:, :2], rays.masses[:, :2])

    def test_pads_short_rays(self):
        rays = rays_mean.enumerate_rays(ClassSpec(4, 0.5))
        assert rays.support[-1].tolist() == [2, 2, 2]
        assert rays.masses[-1].tolist() == [1.0, 0.0, 0.0]
        assert rays.sizes.tolist() == [2, 2, 2, 2, 1]

    def test_packs_a_list_once(self):
        rays = rays_mean.enumerate_rays(ClassSpec(9, 0.3))
        assert RaySet.of(rays) is rays
        packed = RaySet.of(list(rays))
        assert np.array_equal(packed.support, rays.support)
        assert np.array_equal(packed.masses, rays.masses)
        with pytest.raises(EmptyRaySet):
            RaySet.of([])
        other = rays_mean.enumerate_rays(ClassSpec(9, 0.4))
        with pytest.raises(InvalidSpec):
            RaySet.of([rays[0], other[0]])

    def test_iteration_builds_the_indexed_rays(self, corr_rays):
        sets = [rays_mean.enumerate_rays(ClassSpec(4, 0.5)),
                corr_rays["B", "1/6"]]
        sizes = set(np.concatenate([rays.sizes for rays in sets]).tolist())
        assert sizes == {1, 2, 3}
        for rays in sets:
            listed = list(rays)
            assert listed == [rays[t] for t in range(len(rays))]
            for ray in listed:
                assert all(type(s) is int for s in ray.support)
                assert all(type(m) is float for m in ray.masses)

    def test_indexed_rays_equal_checked_rays(self, mean_rays, corr_rays):
        for rays in [*mean_rays.values(), *corr_rays.values()]:
            for ray in rays:
                checked = rays_mean.RayDensity(
                    rays.spec, ray.support, ray.masses
                )
                assert ray == checked

    @pytest.mark.parametrize("name", sorted(BAD_RAYS))
    def test_a_bad_row_raises_what_its_ray_raises(self, name):
        support, masses, error = BAD_RAYS[name]
        spec = ClassSpec(4, 0.5, 0.25)
        with pytest.raises(error) as from_ray:
            rays_mean.RayDensity(spec, support, masses)
        good = rays_corr.enumerate_rays(ClassSpec(4, 0.5, 0.25))
        rows = good.support.copy()
        cells = good.masses.copy()
        pad = 3 - len(support)
        rows[2] = support + support[-1:] * pad
        cells[2] = masses + (0.0,) * pad
        with pytest.raises(error) as from_set:
            RaySet(spec, rows, cells)
        assert type(from_set.value) is type(from_ray.value) is error


class TestDecompose:
    def test_single_ray_comes_back_whole(self):
        spec = ClassSpec(100, 0.266)
        ray = rays_mean.two_point_ray(spec, 26, 27)
        terms = rays_mean.decompose(ray.to_pmf(), spec)
        assert len(terms) == 1
        got, weight = terms[0]
        assert got.support == ray.support
        assert math.isclose(weight, 1.0, rel_tol=1e-12)

    def test_binomial_reconstructs(self):
        d, p = 4, 0.5
        spec = ClassSpec(d, p)
        probs = scipy.stats.binom.pmf(np.arange(d + 1), d, p)
        terms = rays_mean.decompose(DefaultCountPmf(d, probs), spec)
        assert len(terms) <= d + 1
        weights = [w for _, w in terms]
        assert all(w > 0 for w in weights)
        assert math.isclose(math.fsum(weights), 1.0, abs_tol=1e-12)
        rebuilt = np.zeros(d + 1)
        for ray, weight in terms:
            for point, mass in zip(ray.support, ray.masses):
                rebuilt[point] += weight * mass
        np.testing.assert_allclose(rebuilt, probs, atol=1e-12)

    def test_uniform_reconstructs(self):
        spec = ClassSpec(4, 0.5)
        probs = np.full(5, 0.2)
        terms = rays_mean.decompose(DefaultCountPmf(4, probs), spec)
        rebuilt = np.zeros(5)
        for ray, weight in terms:
            for point, mass in zip(ray.support, ray.masses):
                rebuilt[point] += weight * mass
        np.testing.assert_allclose(rebuilt, probs, atol=1e-12)

    def test_random_mixtures_reconstruct(self):
        rng = np.random.default_rng(47)
        spec = ClassSpec(7, 0.37)
        rays = rays_mean.enumerate_rays(spec)
        for _ in range(200):
            probs, _, _ = random_mixture(rng, rays)
            terms = rays_mean.decompose(DefaultCountPmf(7, probs), spec)
            assert len(terms) <= 8
            for ray, _ in terms:
                if len(ray.support) == 1:
                    assert ray == rays_mean.point_ray(spec)
                else:
                    assert ray == rays_mean.two_point_ray(spec, *ray.support)
            rebuilt = np.zeros(8)
            for ray, weight in terms:
                for point, mass in zip(ray.support, ray.masses):
                    rebuilt[point] += weight * mass
            assert np.max(np.abs(rebuilt - probs)) < 1e-10

    def test_rejects_wrong_mean(self):
        probs = scipy.stats.binom.pmf(np.arange(5), 4, 0.3)
        with pytest.raises(MeanMismatch):
            rays_mean.decompose(DefaultCountPmf(4, probs), ClassSpec(4, 0.5))

    def test_rejects_a_pmf_of_another_d(self):
        probs = scipy.stats.binom.pmf(np.arange(6), 5, 0.5)
        with pytest.raises(LengthMismatch):
            rays_mean.decompose(DefaultCountPmf(5, probs), ClassSpec(4, 0.5))


class TestMomentBounds:
    def test_order_one_pins_the_marginal(self):
        bounds = rays_mean.moment_bounds(ClassSpec(100, 0.266), 1)
        assert bounds.lower == bounds.upper == 0.266

    def test_order_two_closed_form_noninteger(self):
        spec = ClassSpec(100, 0.266)
        bounds = rays_mean.moment_bounds(spec, 2)
        j = 26
        expected = (-j * (j + 1) + 2 * j * 26.6) / (100 * 99)
        assert math.isclose(bounds.lower, expected, rel_tol=1e-12)
        assert bounds.upper == 0.266
        assert bounds.argmin.support == (26, 27)
        assert bounds.argmax.support == (0, 100)

    def test_order_two_closed_form_integer(self):
        bounds = rays_mean.moment_bounds(ClassSpec(10, 0.3), 2)
        assert math.isclose(bounds.lower, 0.3 * 2 / 9, rel_tol=1e-12)
        assert bounds.argmin.support == (3,)

    def test_closed_forms_agree_with_a_ray_scan(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            d = int(rng.integers(2, 41))
            p = float(rng.uniform(0.02, 0.98))
            spec = ClassSpec(d, p)
            rays = rays_mean.enumerate_rays(spec)
            for order in range(1, min(d, 5) + 1):
                bounds = rays_mean.moment_bounds(spec, order)
                values = [
                    pmf.cross_moment(ray.to_pmf(), order) for ray in rays
                ]
                assert math.isclose(bounds.lower, min(values), abs_tol=1e-12)
                assert math.isclose(bounds.upper, max(values), abs_tol=1e-12)
                for ray, value in ((bounds.argmin, bounds.lower),
                                   (bounds.argmax, bounds.upper)):
                    attained = pmf.cross_moment(ray.to_pmf(), order)
                    assert math.isclose(attained, value, abs_tol=1e-12)

    def test_higher_orders_bracket_an_exhaustive_grid(self):
        """Every pmf on a fine simplex grid obeys the bounds."""
        spec = ClassSpec(5, 0.4)
        grid = mean_grid_pmfs(5, 2.0, 20)
        assert len(grid) > 100
        for order in (1, 2, 3, 4, 5):
            bounds = rays_mean.moment_bounds(spec, order)
            for probs in grid:
                value = pmf.cross_moment(DefaultCountPmf(5, probs), order)
                assert bounds.lower - 1e-9 <= value <= bounds.upper + 1e-9

    def test_order_out_of_range(self):
        from bernrays.errors import OrderOutOfRange

        with pytest.raises(OrderOutOfRange):
            rays_mean.moment_bounds(ClassSpec(4, 0.5), 0)
        with pytest.raises(OrderOutOfRange):
            rays_mean.moment_bounds(ClassSpec(4, 0.5), 5)


class TestCorrelationBounds:
    def test_two_obligor_fair_class_spans_everything(self):
        low, high = rays_mean.correlation_bounds(ClassSpec(2, 0.5))
        assert math.isclose(low, -1.0, abs_tol=1e-12)
        assert high == 1.0

    def test_one_name_has_no_correlation_range(self):
        with pytest.raises(InvalidSpec) as caught:
            rays_mean.correlation_bounds(ClassSpec(1, 0.5))
        assert str(caught.value) == "a correlation range requires d >= 2"

    def test_minimum_is_attained_by_the_moment_argmin(self):
        rng = np.random.default_rng(59)
        for _ in range(50):
            d = int(rng.integers(2, 60))
            p = float(rng.uniform(0.05, 0.95))
            spec = ClassSpec(d, p)
            low, high = rays_mean.correlation_bounds(spec)
            argmin = rays_mean.moment_bounds(spec, 2).argmin
            attained = pmf.correlation(argmin.to_pmf(), p)
            assert high == 1.0
            assert math.isclose(low, attained, abs_tol=1e-9)
