"""Extremal rays of the class with fixed mean and pairwise correlation.

Fixing mean and equicorrelation pins two raw moments of the count: its
mean ``m = d*p`` and its raw second moment
``M = d*p + d*(d-1)*mu2``. Extreme points of the resulting polytope
carry at most three support points. For strictly increasing ``i < j < k``
the two moment equations plus normalization have the unique solution

    mass_i =  (j*k - (j+k)*m + M) / ((j-i)*(k-i))
    mass_j = -(i*k - (i+k)*m + M) / ((j-i)*(k-j))
    mass_k =  (i*j - (i+j)*m + M) / ((k-i)*(k-j))

which sums to one identically, so a triple yields a ray exactly when all
three masses are nonnegative. A ray with fewer points meets both moments
on a two-point support straddling the mean, or is the point mass at an
integer mean: it is a mean-class ray whose second moment matches ``M``.
Enumeration takes those rays from the mean class, and from the triples
only those whose three masses are all positive; the sweep tries the
middle indices that the outer pair admits, in O(d^2 + n) for ``n`` rays.

Distinct triples carry distinct three-point supports, so no two rows
share a support and nothing is merged. One rule and one constant cut
all the work (:func:`_parts`, ``rays_mean._BLOCK_ROWS``): the sweep
yields its outer pairs in chunks of whole lower indices and about
``_BLOCK_ROWS`` pairs, which :func:`_capped_ranges` checks against the
cap and joins, and :func:`_solved` solves the triples of any pair
ranges at most ``_BLOCK_ROWS`` at a time. :func:`enumerate_rays` gathers
the solved blocks into one sorted :class:`RaySet`. The risk extrema
need far fewer rays, taken from the same ranges: VaR only the O(d) rays
whose support holds two adjacent
indices or spans ``{0, d}`` (Kwerel, *JASA* 70, 1975; Prekopa,
*Discrete Appl. Math.* 27, 1990), and ES only the outer pairs whose
closed-form bounds beat the extrema of those rays (:func:`risk._extrema`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rays_mean
from .errors import (
    ClassTooLarge,
    IndexOutOfRange,
    InfeasibleMoment,
    InvalidSpec,
)
from .pmf import (
    DefaultCountPmf,
    MEAN_RESIDUAL_SCALE,
    SECOND_MOMENT_RESIDUAL_SCALE,
)
from .rays_mean import MAX_CANDIDATES, RayDensity, RaySet
from .spec import ClassSpec, _pair_moment_floor

# A computed mass this close to zero marks a dropped support point; the
# Cramer formulas at d ~ 100 accumulate roundoff near 1e-13.
ZERO_MASS_TOL = 1e-12

# Second-moment slack when matching two-point rays and the point ray
# against the target; scales with the d**2 magnitude of the moment.
_MATCH_SCALE = 1e-12

# Slack when testing the target moment against the closed class bounds.
_FEASIBILITY_TOL = 1e-12

# Slack of the triple sweep's pair test and middle-index interval, scaled
# by d**2: far above the float error of the mass numerators (about
# 1e-16 * d**2) plus the ZERO_MASS_TOL keep-test (at most 1e-12 * d**2).
_SWEEP_SLACK = 1e-9

# Largest d whose packed support keys (i*(d+1) + j)*(d+1) + k, at most
# (d+1)**3 - 1, fit in int64.
_MAX_KEY_D = 2**21 - 1


@dataclass(frozen=True)
class MembershipResult:
    """Outcome of a class-membership test, with signed residuals."""

    is_member: bool
    mean_residual: float
    second_moment_residual: float

    def __bool__(self) -> bool:
        return self.is_member


def _require_corr(spec: ClassSpec, op: str) -> None:
    if spec.rho is None:
        raise InvalidSpec(f"{op} requires a spec with a correlation target")


def triple_ray(spec: ClassSpec, i: int, j: int, k: int) -> RayDensity | None:
    """Solve the two-moment system on support ``{i, j, k}``.

    Returns None when some mass is negative beyond tolerance, i.e. the
    triple carries no ray of this class. A mass within ``1e-12`` of zero
    drops its support point, so the result may be a two-point or point
    ray; the kept masses are divided by their correctly rounded sum. The
    2x3 subsystem is never rank deficient for distinct indices: a
    nonzero quadratic cannot vanish at three points.
    """
    _require_corr(spec, "triple_ray")
    i, j, k = int(i), int(j), int(k)
    if not 0 <= i < j < k <= spec.d:
        raise IndexOutOfRange(
            f"need 0 <= i < j < k <= {spec.d}, got ({i}, {j}, {k})"
        )
    masses = _triple_masses(spec, float(i), float(j), float(k))
    if any(x < -ZERO_MASS_TOL for x in masses):
        return None
    kept = [(s, x) for s, x in zip((i, j, k), masses) if x > ZERO_MASS_TOL]
    total = math.fsum(x for _, x in kept)
    return RayDensity(spec, tuple(s for s, _ in kept),
                      tuple(x / total for _, x in kept))


def _triple_masses(spec: ClassSpec, i, j, k) -> list:
    """The masses at ``i``, ``j`` and ``k`` of the triples ``(i, j, k)``,
    for float scalars or arrays alike."""
    m = spec.mean_count
    big_m = spec.second_moment_target
    return [
        (j * k - (j + k) * m + big_m) / ((j - i) * (k - i)),
        -(i * k - (i + k) * m + big_m) / ((j - i) * (k - j)),
        (i * j - (i + j) * m + big_m) / ((k - i) * (k - j)),
    ]


def _pair_ranges(spec: ClassSpec):
    """Outer pairs ``(i, k)`` that can carry a ray, with the range of
    middle indices to try on each, behind the sweep's one gate: a pair
    moment below the mean class's lower bound raises
    :class:`InfeasibleMoment`, and a ``d`` above ``2**21 - 1``, whose
    packed support keys in :func:`enumerate_rays` would overflow int64,
    raises :class:`ClassTooLarge`.

    Yields ``(4, n)`` arrays of rows ``i``, ``k``, ``lo`` and ``hi``,
    one per chunk of whole lower indices (:func:`_parts`). Writing
    ``s2 = M - m**2``, the ``j`` mass has the sign of
    ``(m - i)(k - m) - s2``, and the other two are nonnegative exactly
    for ``j`` in ``[m - s2/(k - m), m + s2/(m - i)]``. The slack and the
    one-index widening keep every triple the float keep-test accepts.
    The gate makes ``s2 + slack`` positive, so the widened bound below
    is at most ``floor(m) - 1`` and the one above at least
    ``min(ceil(m) + 1, d)``: every ``lo <= hi``. The float pair test is
    monotone in ``k``, so the ``k`` it admits for an ``i`` form one run.
    """
    mu2 = spec.pair_moment_target
    floor = _pair_moment_floor(spec)
    # The upper bound, p, holds for every rho <= 1 that ClassSpec admits.
    if mu2 < floor - _FEASIBILITY_TOL:
        raise InfeasibleMoment(
            f"pair moment {mu2} outside attainable range "
            f"[{floor}, {spec.p}]"
        )
    d = spec.d
    if d > _MAX_KEY_D:
        raise ClassTooLarge(
            f"class (d={d}, p={spec.p:g}, rho={spec.rho:g}) is too large: "
            f"its packed support keys overflow int64 above d = {_MAX_KEY_D}"
        )
    m = spec.mean_count
    s2 = spec.second_moment_target - m * m
    slack = _SWEEP_SLACK * d * d
    index = np.arange(d + 1)
    # The j bounds by upper index k and by lower index i; the divisions
    # also run on indices that no pair admits, and may overflow there.
    with np.errstate(divide="ignore", over="ignore"):
        low = np.where(index > m, np.floor(m - (s2 + slack) / (index - m)),
                       -np.inf)
        high = np.where(index < m, np.ceil(m + (s2 + slack) / (m - index)),
                        np.inf)
    low = np.clip(low - 1.0, 0, d).astype(np.int64)
    high = np.clip(high + 1.0, 0, d).astype(np.int64)
    # The admitted k end the range i+2..d where m >= i and start it where
    # m < i; bisect for the first k past the run's inner edge.
    below = m - index[:-2]
    flip = below < 0.0
    edge, stop = index[2:], np.full(d - 1, d + 1)
    while (edge < stop).any():
        k = (edge + stop) // 2
        past = (below * (k - m) - s2 >= -slack) != flip
        # Where edge == stop, k is both and neither moves.
        stop = np.where(past, k, stop)
        edge = np.where(past, edge, np.minimum(k + 1, stop))
    first, last = np.where(flip, index[2:], edge), np.where(flip, edge - 1, d)
    rows = np.flatnonzero(first <= last)
    first, last = first[rows], last[rows]
    for part in _parts(last - first + 1):
        pair, k = _spans(first[part], last[part])
        i = rows[part][pair]
        yield np.stack([i, k, np.maximum(low[k], i + 1),
                        np.minimum(high[i], k - 1)])


def candidate_count(spec: ClassSpec) -> int:
    """Exact number of index triples the sweep of :func:`enumerate_rays`
    examines, in O(d log d) plus one step per admitted pair and O(d)
    memory; it refuses a class as :func:`enumerate_rays` does."""
    _require_corr(spec, "candidate_count")
    return sum(_candidates(chunk) for chunk in _pair_ranges(spec))


def _parts(sizes: np.ndarray) -> list[slice]:
    """Slices that cut items of ``sizes`` into runs of about ``B =
    rays_mean._BLOCK_ROWS`` in total: a run holds the items whose running
    totals end in one interval ``(t*B, (t+1)*B]``, so only its first item
    can take it past ``B``."""
    run = (np.cumsum(sizes) - 1) // rays_mean._BLOCK_ROWS
    cuts = [0, *(np.flatnonzero(np.diff(run)) + 1).tolist(), len(sizes)]
    return [slice(a, b) for a, b in zip(cuts, cuts[1:]) if a < b]


def _spans(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Range number and value of every integer in the ranges [lo, hi]."""
    counts = np.maximum(hi - lo + 1, 0)
    rows = np.repeat(np.arange(len(lo)), counts)
    start = np.cumsum(counts) - counts
    return rows, np.arange(len(rows)) + (lo - start)[rows]


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``a + b`` rounded, and its exact rounding error (Knuth's TwoSum)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _fsum3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """``a + b + c`` correctly rounded, element by element, which is
    ``math.fsum`` of each triple bit for bit.

    Two TwoSums leave ``a + b + c == high + err + low`` exactly;
    ``err + low`` rounded to odd and then added to ``high`` rounds the
    exact sum once (Boldo & Melquiond, IEEE Trans. Computers 57(4), 2008,
    for inputs in any order whose sums do not overflow). Rounding to odd
    moves an inexact sum with an even last bit one ulp towards its error.
    """
    # Rebinding the names frees the partial sums the next steps no
    # longer need.
    high, low = _two_sum(b, c)
    high, err = _two_sum(a, high)
    low, err = _two_sum(err, low)
    odd = (err != 0.0) & (low.view(np.int64) & 1 == 0)
    low[odd] = np.nextafter(low[odd], np.copysign(np.inf, err[odd]))
    return high + low


def _solve_triples(
    spec: ClassSpec, i: np.ndarray, j: np.ndarray, k: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Support and mass rows of the triples ``(i, j, k)`` whose three
    masses all exceed ``ZERO_MASS_TOL``, in their order, the masses
    divided by their correctly rounded sum (:func:`_fsum3`).

    The index arrays hold strictly increasing triples. A triple with a
    smaller mass carries no ray or one of fewer points, which
    :func:`_matching_mean_rays` yields.
    """
    # The float index arrays are freed when the call returns.
    masses = _triple_masses(spec, *(x.astype(float) for x in (i, j, k)))
    live = masses[0] > ZERO_MASS_TOL
    for column in masses[1:]:
        live &= column > ZERO_MASS_TOL
    masses = [x[live] for x in masses]
    total = _fsum3(*masses)
    masses = np.column_stack(masses)
    masses /= total[:, None]
    return np.column_stack([x[live] for x in (i, j, k)]), masses


def _capped_ranges(spec: ClassSpec) -> np.ndarray:
    """The chunks of :func:`_pair_ranges` joined into one ``(4, n)``
    array of rows ``i``, ``k``, ``lo`` and ``hi``, once the candidate
    triples they count are known to be at most ``MAX_CANDIDATES``.

    The gate of :func:`_pair_ranges` and the cap refuse the class at the
    call, before any per-triple array is built: the cap at the first
    chunk whose cumulative count passes it.
    """
    chunks, total = [np.empty((4, 0), np.int64)], 0
    for chunk in _pair_ranges(spec):
        total += _candidates(chunk)
        if total > MAX_CANDIDATES:
            raise ClassTooLarge(
                f"class (d={spec.d}, p={spec.p:g}, rho={spec.rho:g}) needs "
                f"more than {MAX_CANDIDATES} candidate triples"
            )
        chunks.append(chunk)
    return np.concatenate(chunks, axis=1)


def _candidates(ranges: np.ndarray) -> int:
    """The candidate triples of rows ``i``, ``k``, ``lo`` and ``hi``."""
    return int((ranges[3] - ranges[2] + 1).sum())


def _solved(spec: ClassSpec, i, k, lo, hi):
    """Support and mass rows of the three-point rays on the outer pairs
    ``(i, k)`` with middle indices in ``[lo, hi]``, solved at most
    ``rays_mean._BLOCK_ROWS`` triples at a time: the triples of a run of
    whole pairs with about that many (:func:`_parts`) are listed at
    once, and a run that one wide pair takes past it is sliced."""
    step = rays_mean._BLOCK_ROWS
    for part in _parts(hi - lo + 1):
        pair, j = _spans(lo[part], hi[part])
        for t in range(0, len(j), step):
            rows = pair[t:t + step]
            yield _solve_triples(spec, i[part][rows], j[t:t + step],
                                 k[part][rows])


def _matching_mean_rays(spec: ClassSpec) -> tuple[np.ndarray, np.ndarray]:
    """Rows of the mean-class rays whose second moment matches the
    target: two-point rays, then the point ray when the mean is an
    integer."""
    m = spec.mean_count
    big_m = spec.second_moment_target
    match_tol = _MATCH_SCALE * max(1.0, float(spec.d**2))
    # (j1 + j2) m - j1 j2 - M rises in j2 with slope m - j1 > 0.
    j1 = np.arange(spec.max_lower_index + 1)
    slope = m - j1
    root = (big_m - j1 * m) / slope
    width = 2.0 * match_tol / slope
    lo = np.maximum(np.floor(root - width) - 1.0, spec.min_upper_index)
    hi = np.minimum(np.ceil(root + width) + 1.0, spec.d)
    row, j2 = _spans(lo.astype(np.int64), hi.astype(np.int64))
    j1 = j1[row]
    match = np.abs((j1 + j2) * m - j1 * j2 - big_m) <= match_tol
    point = spec.integer_mean and abs(m * m - big_m) <= match_tol
    return rays_mean._mean_rows(spec, j1[match], j2[match], point)


def enumerate_rays(spec: ClassSpec) -> RaySet:
    """All extremal rays of the mean-and-correlation class.

    The sweep's gate (:func:`_pair_ranges`) checks the target second
    moment against the closed bounds of the mean class and ``d``
    against the key limit first. The result holds the matching
    two-point mean-class rays, the point ray when both targets allow it,
    and every triple whose three masses are positive, sorted
    lexicographically; no two share a support. The sweep
    examines only the middle indices that the outer pair ``(i, k)``
    admits, so it costs O(d^2 + n) for ``n`` rays; a class needing more
    than ``MAX_CANDIDATES`` triples raises :class:`ClassTooLarge` before
    any per-triple array is built.
    """
    _require_corr(spec, "enumerate_rays")
    # The sweep's gate and the cap refuse a class here, first.
    blocks = _solved(spec, *_capped_ranges(spec))
    support, masses = (list(parts) for parts in
                       zip(_matching_mean_rays(spec), *blocks))
    # Each support occurs once, so its packed key, which ranks rows in
    # lexicographic order as every index lies in 0..d, alone orders them.
    n = spec.d + 1
    order = np.argsort(np.concatenate(
        [(s[:, 0] * n + s[:, 1]) * n + s[:, 2] for s in support]
    ))
    # Each rebinding frees the arrays it replaces, so at most one column
    # is held twice at a time. np.take gathers rows about twice as fast
    # as fancy indexing.
    support = np.concatenate(support)
    support = np.take(support, order, axis=0)
    masses = np.concatenate(masses)
    masses = np.take(masses, order, axis=0)
    return RaySet._owning(spec, support, masses)


def membership(pmf: DefaultCountPmf, spec: ClassSpec) -> MembershipResult:
    """Test whether ``pmf`` satisfies both class constraints.

    Residuals are the dot products of the pmf with the centered
    constraint rows ``j - m`` and ``j**2 - M``; membership requires the mean residual within
    ``1e-9 * d`` and the second-moment residual within ``1e-9 * d**2``.
    Each residual is the correctly rounded sum of the rounded products,
    so its bits do not depend on how a BLAS dot product splits the terms
    over its threads.
    """
    _require_corr(spec, "membership")
    if pmf.d != spec.d:
        raise InvalidSpec(f"pmf has d={pmf.d}, spec has d={spec.d}")
    j = np.arange(spec.d + 1, dtype=float)
    r1 = math.fsum(((j - spec.mean_count) * pmf.probs).tolist())
    r2 = math.fsum(((j * j - spec.second_moment_target) * pmf.probs).tolist())
    ok = (
        abs(r1) <= MEAN_RESIDUAL_SCALE * spec.d
        and abs(r2) <= SECOND_MOMENT_RESIDUAL_SCALE * spec.d**2
    )
    return MembershipResult(ok, r1, r2)
