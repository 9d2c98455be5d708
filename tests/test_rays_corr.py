"""Extremal rays of the correlation-constrained class: the three-point
solver, the full enumeration against a brute-force vertex oracle, and
the membership test."""

import hashlib
import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bernrays import (
    ClassSpec,
    DefaultCountPmf,
    pmf,
    rays_corr,
    rays_mean,
)
from bernrays.errors import (
    ClassTooLarge,
    IndexOutOfRange,
    InfeasibleMoment,
    InvalidSpec,
)
from oracles import (
    all_triples_rays,
    exact_ray_supports,
    random_mixture,
    vertex_pmfs,
)
from test_cli import fresh_python


def random_feasible_spec(rng, d_max=6, margin=0.1):
    """Spec whose correlation sits safely inside the attainable range."""
    d = int(rng.integers(2, d_max + 1))
    p = float(rng.uniform(0.1, 0.9))
    low, high = rays_mean.correlation_bounds(ClassSpec(d, p))
    rho = float(rng.uniform(low + margin * (high - low),
                            high - margin * (high - low)))
    return ClassSpec(d, p, rho)


class TestTripleRay:
    def test_interior_triple_solves_both_moments(self):
        spec = ClassSpec(4, 0.5, 0.25)
        ray = rays_corr.triple_ray(spec, 0, 2, 4)
        assert ray.support == (0, 2, 4)
        np.testing.assert_allclose(
            ray.masses, [0.21875, 0.5625, 0.21875], atol=1e-12
        )

    def test_infeasible_triple_returns_none(self):
        assert rays_corr.triple_ray(ClassSpec(4, 0.5, 0.25), 0, 1, 2) is None

    def test_comonotone_target_degenerates_to_two_points(self):
        ray = rays_corr.triple_ray(ClassSpec(4, 0.5, 1.0), 0, 2, 4)
        assert ray.support == (0, 4)
        np.testing.assert_allclose(ray.masses, [0.5, 0.5], atol=1e-12)

    def test_an_index_whose_square_wraps_int64(self):
        d = 4 * 10**9
        ray = rays_corr.triple_ray(ClassSpec(d, 0.5, 1.0), 0, 1, d)
        assert ray.support == (0, d)
        assert ray.masses == (0.5, 0.5)

    def test_solutions_hit_both_targets(self):
        rng = np.random.default_rng(61)
        hits = 0
        for _ in range(5000):
            if hits == 50:
                break
            spec = random_feasible_spec(rng, d_max=12)
            d = spec.d
            idx = sorted(rng.choice(d + 1, size=3, replace=False))
            ray = rays_corr.triple_ray(spec, *idx)
            if ray is None:
                continue
            hits += 1
            y = ray.to_pmf()
            assert abs(pmf.mean(y) - spec.mean_count) <= 1e-10 * d
            second = sum(k * k * q for k, q in enumerate(y.probs))
            assert abs(second - spec.second_moment_target) <= 1e-9 * d * d
        assert hits == 50

    def test_rejects_bad_indices(self):
        spec = ClassSpec(4, 0.5, 0.25)
        with pytest.raises(IndexOutOfRange):
            rays_corr.triple_ray(spec, 2, 1, 3)
        with pytest.raises(IndexOutOfRange):
            rays_corr.triple_ray(spec, 0, 2, 5)
        with pytest.raises(IndexOutOfRange):
            rays_corr.triple_ray(spec, 1, 1, 3)

    def test_requires_correlation_target(self):
        with pytest.raises(InvalidSpec):
            rays_corr.triple_ray(ClassSpec(4, 0.5), 0, 2, 4)


class TestEnumerate:
    def test_matches_vertex_oracle_on_a_worked_class(self):
        spec = ClassSpec(4, 0.5, 0.25)
        rays = rays_corr.enumerate_rays(spec)
        expected = vertex_pmfs(4, {1: 2.0, 2: 5.75})
        assert {ray.support for ray in rays} == set(expected)
        for ray in rays:
            np.testing.assert_allclose(
                ray.masses, expected[ray.support], atol=1e-9
            )

    def test_matches_vertex_oracle_on_random_classes(self):
        rng = np.random.default_rng(67)
        for _ in range(10):
            spec = random_feasible_spec(rng, d_max=8)
            rays = rays_corr.enumerate_rays(spec)
            expected = vertex_pmfs(
                spec.d,
                {1: spec.mean_count, 2: spec.second_moment_target},
            )
            assert {ray.support for ray in rays} == set(expected)
            for ray in rays:
                np.testing.assert_allclose(
                    ray.masses, expected[ray.support], atol=1e-9
                )

    # enumerate_rays tests the pair moment against the lower bound only:
    # the upper one, p, holds for every rho that ClassSpec admits.
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(2, 10**6),
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        st.floats(-1.0, 1.0, exclude_min=True),
    )
    def test_no_admitted_class_exceeds_the_upper_bound(self, d, p, rho):
        spec = ClassSpec(d, p, rho)
        upper = rays_mean.moment_bounds(ClassSpec(d, p), 2).upper
        assert spec.pair_moment_target <= upper + rays_corr._FEASIBILITY_TOL
        pd = spec.mean_count
        above = round(pd) + 1 if spec.integer_mean else math.floor(pd) + 1
        assert spec.min_upper_index == above
        assert above == spec.max_lower_index + 1 + spec.integer_mean

    def test_comonotone_class_has_a_single_ray(self):
        for d, p in ((2, 0.5), (6, 0.3), (50, 0.017)):
            rays = rays_corr.enumerate_rays(ClassSpec(d, p, 1.0))
            assert len(rays) == 1
            assert rays[0].support == (0, d)
            np.testing.assert_allclose(
                rays[0].masses, [1 - p, p], atol=1e-12
            )

    def test_minimal_correlation_collapses_to_the_point_ray(self):
        rays = rays_corr.enumerate_rays(ClassSpec(4, 0.5, -1 / 3))
        assert [ray.support for ray in rays] == [(2,)]

    def test_uncorrelated_class_against_the_oracle(self):
        spec = ClassSpec(5, 0.4, 0.0)
        rays = rays_corr.enumerate_rays(spec)
        expected = vertex_pmfs(
            5, {1: spec.mean_count, 2: spec.second_moment_target}
        )
        assert {ray.support for ray in rays} == set(expected)

    def test_rays_are_sorted_deduplicated_and_tagged(self, corr_rays):
        rays = corr_rays["B", "1/6"]
        supports = [ray.support for ray in rays]
        assert supports == sorted(supports)
        assert len(supports) == len(set(supports))
        assert all(r.spec == ClassSpec(100, 0.266, 1 / 6) for r in rays)
        assert all(len(r.support) <= 3 for r in rays)

    def test_infeasible_correlation(self):
        with pytest.raises(InfeasibleMoment):
            rays_corr.enumerate_rays(ClassSpec(4, 0.5, -0.9))

    def test_candidate_count_refuses_what_enumeration_refuses(self):
        spec = ClassSpec(4, 0.5, -0.5)
        with pytest.raises(InfeasibleMoment) as enumerated:
            rays_corr.enumerate_rays(spec)
        with pytest.raises(InfeasibleMoment) as counted:
            rays_corr.candidate_count(spec)
        assert str(counted.value) == str(enumerated.value)

    def test_requires_correlation_target(self):
        with pytest.raises(InvalidSpec):
            rays_corr.enumerate_rays(ClassSpec(4, 0.5))


def as_pairs(rays):
    return [(ray.support, ray.masses) for ray in rays]


@st.composite
def degenerate_classes(draw):
    """Classes on the edges of the sweep: an integer mean, rho = 1, rho
    at the lower feasibility edge, or rational p and rho that make some
    triple masses vanish exactly."""
    d = draw(st.integers(2, 40))
    kind = draw(st.sampled_from(
        ("integer mean", "comonotone", "lower edge", "rational")
    ))
    if kind == "integer mean":
        p = draw(st.integers(1, d - 1)) / d
    else:
        p = float(draw(st.fractions(Fraction(1, 20), Fraction(19, 20),
                                    max_denominator=20)))
    low, _ = rays_mean.correlation_bounds(ClassSpec(d, p))
    if kind == "comonotone":
        rho = 1.0
    elif kind == "lower edge":
        rho = low
    else:
        rho = float(draw(st.fractions(Fraction(-1, 2), 1,
                                      max_denominator=12)))
    assume(-1.0 < rho and low <= rho)
    return ClassSpec(d, p, rho)


@st.composite
def feasible_classes(draw):
    """Classes the feasibility check admits, from d = 2 to 400, with p
    anywhere in (0, 1) and rho anywhere from the lower edge to 1."""
    d = draw(st.integers(2, 400))
    p = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    low, _ = rays_mean.correlation_bounds(ClassSpec(d, p))
    assume(low > -1.0)
    rho = draw(st.sampled_from((low, 1.0)) | st.floats(low, 1.0))
    spec = ClassSpec(d, p, rho)
    floor = rays_mean.moment_bounds(spec, 2).lower
    assume(spec.pair_moment_target >= floor - rays_corr._FEASIBILITY_TOL)
    return spec


# (d, mean, i, k) of classes whose count variance is (m - i)(k - m), so
# that every triple (i, j, k) drops j and many triples tie on {i, k}.
TIED_CLASSES = [(7, 2, 1, 7), (20, 10, 2, 12), (26, 15, 13, 16)]


def tied_class(d, mean, i, k):
    m, p = float(mean), mean / d
    pair = ((m - i) * (k - m) + m * m - m) / (d * (d - 1))
    return ClassSpec(d, p, (pair - p * p) / (p * (1.0 - p)))


def seeded_sweep_classes():
    """The seeded classes of the all-triples comparison, d 3..120."""
    rng = np.random.default_rng(89)
    for _ in range(12):
        d = int(rng.integers(3, 121))
        p = float(rng.uniform(0.01, 0.99))
        low, high = rays_mean.correlation_bounds(ClassSpec(d, p))
        yield ClassSpec(d, p, float(rng.uniform(low, high)))


class TestIntervalSweep:
    """The O(d^2 + n) sweep against the all-triples reference."""

    def test_matches_the_all_triples_sweep_bit_for_bit(self):
        for spec in seeded_sweep_classes():
            rays = rays_corr.enumerate_rays(spec)
            assert as_pairs(rays) == all_triples_rays(spec)

    @settings(max_examples=80, deadline=None)
    @given(degenerate_classes())
    def test_matches_on_degenerate_classes(self, spec):
        rays = rays_corr.enumerate_rays(spec)
        assert as_pairs(rays) == all_triples_rays(spec)

    @settings(max_examples=150, deadline=None)
    @given(feasible_classes())
    def test_every_feasible_class_keeps_the_outer_pair(self, spec):
        # The outer pair (0, d) admits a middle index in every class that
        # passes the feasibility check, so the sweep is never empty; and
        # no pair it yields has an empty middle range.
        assert rays_corr.candidate_count(spec) >= 1
        for *_, lo, hi in rays_corr._pair_ranges(spec):
            assert (lo <= hi).all()

    @pytest.mark.parametrize(
        "d, p, rho", [(20, 0.266, 1 / 6), (40, 0.13, 0.3), (60, 0.41, 0.05)]
    )
    def test_supports_match_exact_rational_classification(self, d, p, rho):
        spec = ClassSpec(d, p, rho)
        supports = [ray.support for ray in rays_corr.enumerate_rays(spec)]
        assert set(supports) == exact_ray_supports(spec)

    # sha256 of the little-endian int64 support and float64 mass bytes at
    # d = 200, past the reach of the O(d^3) all-triples oracle. At p =
    # rho = 0.5, 398 triples drop a point and land on mean rows; on the
    # lower edge (rho None) the 19900 triples with no negative mass all
    # drop two points, and the point ray is the one ray.
    @pytest.mark.parametrize(
        "p, rho, count, digest",
        [(0.266, 1 / 6, 254375, "9ec41f5b7ff237dfdd722bbf029edca6"
                                "28088784ec0f14db2b5e2ad581ca0921"),
         (0.5, 0.5, 197384, "94a29ff99c29840ac1bb99fc995da313"
                            "efec7478e2a2e2458c5477803edf20c1"),
         (0.3, None, 1, "1d4031d94dcf0ce9b1549134e3376cd3"
                        "755de04bd5385b3170711af094ccb641")],
        ids=["dense", "dropped-points", "lower-edge"],
    )
    def test_d_200_arrays_match_pinned_digests(self, p, rho, count, digest):
        if rho is None:
            rho = rays_mean.correlation_bounds(ClassSpec(200, p))[0]
        rays = rays_corr.enumerate_rays(ClassSpec(200, p, rho))
        data = (rays.support.astype("<i8").tobytes()
                + rays.masses.astype("<f8").tobytes())
        assert len(rays) == count
        assert hashlib.sha256(data).hexdigest() == digest

    @pytest.mark.parametrize("d, mean, i, k", TIED_CLASSES)
    def test_tied_pairs_come_from_mean_rows(self, d, mean, i, k):
        # Every triple (i, j, k) drops j and lands on {i, k}. The sweep
        # keeps only triples with three live points, so the ray on {i, k}
        # is the matching mean row, which the reference ranks first too.
        spec = tied_class(d, mean, i, k)
        for support, _ in rays_corr._sweep_blocks(spec):
            assert (support[:, 1] < support[:, 2]).all()
        rays = as_pairs(rays_corr.enumerate_rays(spec))
        assert (i, k) in dict(rays)
        assert rays == all_triples_rays(spec)

    @pytest.mark.parametrize(
        "spec",
        [*seeded_sweep_classes(),
         *(tied_class(*case) for case in TIED_CLASSES),
         ClassSpec(40, 0.5, 1.0), ClassSpec(30, 0.4, 0.0)],
    )
    def test_packed_keys_sort_like_lexsort(self, spec):
        # The rows enumerate_rays gathers: mean rows, then triples, each
        # support once.
        support, masses = (
            np.concatenate(parts)
            for parts in zip(rays_corr._matching_mean_rays(spec),
                             *rays_corr._sweep_blocks(spec))
        )
        n = spec.d + 1
        key = (support[:, 0] * n + support[:, 1]) * n + support[:, 2]
        order = np.lexsort(support.T[::-1])
        assert np.array_equal(np.argsort(key, kind="stable"), order)
        support, masses = support[order], masses[order]
        first = np.ones(len(order), bool)
        first[1:] = (support[1:] != support[:-1]).any(1)
        assert first.all()
        rays = rays_corr.enumerate_rays(spec)
        assert np.array_equal(rays.support, support[first])
        assert np.array_equal(rays.masses, masses[first])

    @pytest.mark.parametrize(
        "d, mean, rho",
        [(600, 521, -1 / 599), (400, 120, None), (112, 106, -1 / 111),
         (138, 133, -1 / 137)],
    )
    def test_integer_mean_lower_edges_give_the_point_ray(self, d, mean, rho):
        # Only the point mass at an integer mean m has second moment m**2.
        # Triples that drop a point land here on two-point supports with a
        # point on the mean, which no law with that mean carries.
        if rho is None:
            rho = rays_mean.correlation_bounds(ClassSpec(d, mean / d))[0]
        rays = rays_corr.enumerate_rays(ClassSpec(d, mean / d, rho))
        assert as_pairs(rays) == [((mean,), (1.0,))]

    def test_two_point_rays_straddle_an_integer_mean_on_the_lower_edge(self):
        rng = np.random.default_rng(97)
        for n in range(40):
            d = int(rng.integers(89, 301))
            mean = int(rng.integers(1, d))
            low, _ = rays_mean.correlation_bounds(ClassSpec(d, mean / d))
            rho = -1 / (d - 1) if n % 2 else low
            for ray in rays_corr.enumerate_rays(ClassSpec(d, mean / d, rho)):
                if len(ray.support) == 2:
                    j1, j2 = ray.support
                    assert j1 < mean < j2, (d, mean, rho, ray.support)

    def test_candidate_count_bounds_the_rays(self):
        spec = ClassSpec(100, 0.266, 1 / 6)
        count = rays_corr.candidate_count(spec)
        assert 32372 <= count <= 2 * 32372

    # README quotes the last four.
    @pytest.mark.parametrize(
        "d, count",
        [(100, 36339), (200, 270662), (400, 2081837), (640, 8395501),
         (3000, 846916299)],
    )
    def test_dense_candidate_counts_are_pinned(self, d, count):
        assert rays_corr.candidate_count(ClassSpec(d, 0.266, 1 / 6)) == count

    @pytest.mark.parametrize("d", [2, 3, 40, 1001, 100_000])
    def test_a_comonotone_class_sweeps_one_pair_quickly(self, d):
        # Only the outer pair (0, d) carries a ray, with every middle
        # index; the bisection skips the other lower indices.
        start = time.perf_counter()
        assert rays_corr.candidate_count(ClassSpec(d, 0.5, 1.0)) == d - 1
        assert time.perf_counter() - start < 1.0

    def test_large_classes_exceed_the_cap(self):
        spec = ClassSpec(3000, 0.266, 1 / 6)
        assert rays_corr.candidate_count(spec) > rays_corr.MAX_CANDIDATES

    def test_the_cap_stops_enumeration(self, monkeypatch):
        monkeypatch.setattr(rays_corr, "MAX_CANDIDATES", 1000)
        with pytest.raises(ClassTooLarge):
            rays_corr.enumerate_rays(ClassSpec(100, 0.266, 1 / 6))

    @pytest.mark.parametrize(
        "run", [rays_corr.candidate_count, rays_corr.enumerate_rays]
    )
    def test_a_d_whose_keys_overflow_int64_is_refused_at_once(self, run):
        # (d + 1)**3 - 1, the largest packed key, passes 2**63 - 1 here.
        with pytest.raises(ClassTooLarge, match="int64"):
            run(ClassSpec(2**21, 0.5, 1.0))


# Triples whose correctly rounded sum is easy to get wrong: exponents
# far apart, halfway cases, exact cancellation, zeros of both signs and
# subnormals.
HARD_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0**-53, -(2.0**-53),
                     2.0**-54, 3 * 2.0**-54, 5e-324, -5e-324, 2.0**53]),
    st.builds(math.ldexp, st.floats(-1.0, 1.0),
              st.integers(-1080, 1000)),
    st.floats(-1e300, 1e300),
)


class TestCorrectlyRoundedSum:
    """``_fsum3`` against ``math.fsum``, bit for bit."""

    @staticmethod
    def assert_fsum(rows):
        rows = np.asarray(rows, float).reshape(-1, 3)
        want = np.array([math.fsum(row) for row in rows.tolist()])
        for order in itertools.permutations(range(3)):
            got = rays_corr._fsum3(
                *(np.ascontiguousarray(rows[:, c]) for c in order)
            )
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @settings(max_examples=200, deadline=None)
    @example([
        (1.0, 2.0**-53, 5e-324), (1.0, 2.0**-53, -5e-324),
        (1.0, -(2.0**-54), -5e-324), (1.0, 2.0**-53, 0.0),
        (1.0 + 2.0**-52, 2.0**-53, 0.0), (2.0**53, 1.0, 2.0**-60),
        (1e300, -1e300, 1e-300), (1.0, -1.0, -0.0), (-0.0, -0.0, -0.0),
        (2.0**-1022, -(2.0**-1074), 2.0**-1074),
    ])
    @given(st.lists(
        st.tuples(HARD_FLOATS, HARD_FLOATS, HARD_FLOATS)
        # The third term cancels the rounded sum of the first two.
        | st.tuples(HARD_FLOATS, HARD_FLOATS).map(
            lambda ab: (*ab, -(ab[0] + ab[1]))),
        min_size=1, max_size=20,
    ))
    def test_adversarial_triples(self, rows):
        self.assert_fsum(rows)

    def test_kept_rows_of_the_seeded_classes(self):
        # The raw masses of every kept triple, dropped points zeroed: the
        # sweep normalises the three-point ones, triple_ray all of them.
        for spec in seeded_sweep_classes():
            m, big_m = spec.mean_count, spec.second_moment_target
            idx = np.array(list(itertools.combinations(range(spec.d + 1), 3)))
            i, j, k = idx.T.astype(float)
            raw = np.column_stack((
                (j * k - (j + k) * m + big_m) / ((j - i) * (k - i)),
                -(i * k - (i + k) * m + big_m) / ((j - i) * (k - j)),
                (i * j - (i + j) * m + big_m) / ((k - i) * (k - j)),
            ))
            raw = raw[(raw >= -rays_corr.ZERO_MASS_TOL).all(1)]
            raw[raw <= rays_corr.ZERO_MASS_TOL] = 0.0
            self.assert_fsum(raw)


class TestMembership:
    def test_binomial_is_uncorrelated(self):
        d, p = 20, 0.3
        probs = scipy.stats.binom.pmf(np.arange(d + 1), d, p)
        y = DefaultCountPmf(d, probs)
        assert rays_corr.membership(y, ClassSpec(d, p, 0.0))
        assert not rays_corr.membership(y, ClassSpec(d, p, 0.5))

    def test_every_ray_is_a_member(self, corr_rays):
        for (name, label), rays in corr_rays.items():
            target = rays[0].spec
            for ray in rays[:: max(1, len(rays) // 50)]:
                assert rays_corr.membership(ray.to_pmf(), target)

    def test_mixtures_stay_in_the_class(self, corr_rays):
        rng = np.random.default_rng(71)
        rays = corr_rays["BBB", "1/2"]
        spec = ClassSpec(100, 0.017, 0.5)
        for _ in range(20):
            probs, _, _ = random_mixture(rng, rays)
            result = rays_corr.membership(DefaultCountPmf(100, probs), spec)
            assert result
            assert abs(result.mean_residual) <= 1e-9 * 100
            assert abs(result.second_moment_residual) <= 1e-9 * 100**2

    def test_wrong_mean_is_rejected_with_residuals(self):
        d = 10
        probs = np.zeros(d + 1)
        probs[0] = 1.0
        result = rays_corr.membership(
            DefaultCountPmf(d, probs), ClassSpec(d, 0.3, 0.2)
        )
        assert not result
        assert abs(result.mean_residual) > 1.0

    def test_dimension_mismatch(self):
        y = DefaultCountPmf(2, [0.25, 0.5, 0.25])
        with pytest.raises(InvalidSpec):
            rays_corr.membership(y, ClassSpec(3, 0.5, 0.2))

    def test_residual_bits_do_not_depend_on_the_blas_threads(self):
        # OpenBLAS splits a dot product of about 10,000 terms or more
        # over its threads, so its last bits follow the thread count.
        code = (
            "import numpy as np; "
            "from bernrays import ClassSpec, DefaultCountPmf, betamix, "
            "rays_corr; d = 20000; "
            "law = betamix.pmf(betamix.calibrate(0.266, 1 / 6), d); "
            "probs = np.random.default_rng(5).dirichlet(np.ones(d + 1)); "
            "results = [rays_corr.membership(law, ClassSpec(d, 0.266, 1 / 6)),"
            " rays_corr.membership(DefaultCountPmf(d, probs), "
            "ClassSpec(d, 0.5, 0.0))]; "
            "print([(r.mean_residual.hex(), r.second_moment_residual.hex()) "
            "for r in results])"
        )
        one, two = (fresh_python(code, threads) for threads in ("1", "2"))
        assert one == two


class TestSystemCoeffs:
    def test_rows_are_centered_constraints(self):
        # A point mass at j reads off both constraint rows at j exactly.
        spec = ClassSpec(4, 0.5, 0.25)
        for j in range(5):
            result = rays_corr.membership(
                DefaultCountPmf(4, np.eye(5)[j]), spec
            )
            assert result.mean_residual == j - 2.0
            assert result.second_moment_residual == j * j - 5.75

    def test_member_pmf_annihilates_both_rows(self):
        spec = ClassSpec(4, 0.5, 0.25)
        ray = rays_corr.triple_ray(spec, 0, 2, 4)
        result = rays_corr.membership(ray.to_pmf(), spec)
        assert abs(result.mean_residual) < 1e-12
        assert abs(result.second_moment_residual) < 1e-12
