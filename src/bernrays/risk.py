"""Sharp risk bounds on the default count over an admissible class.

Value-at-risk extrema over a class are attained on its extremal rays,
so a scan over the enumeration is exact. One fold scans blocks of rays
for every confidence level at once; the whole enumeration is one such
block, and a class's streamed blocks give the same bits without ever
being held at once. What does not depend on the level is done once per
block: each ray's cdf at its second point and its shortfall for each
column its VaR can take. A level then costs two threshold tests and a
select per ray. For the mean-constrained class
the scan collapses to a closed form in (d, p, alpha); for the correlated
class VaR needs only the few outer pairs whose closed-form bounds can
reach an extremum (:func:`_var_extrema`). Expected-shortfall
scans report the extrema over rays; the proved class-wide envelope
[min VaR, d] is exposed separately because the two differ in meaning:
ray extrema reproduce the bundled reference tables, the envelope is the bound
established for every class member.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence, Union

import numpy as np

from . import rays_corr
from .errors import EmptyRaySet
from .pmf import CDF_TIE_TOL, ClassSpec, _check_open_unit
from .rays_mean import RayDensity, RaySet, _require_mean_only

# Slack for boundary decisions in the closed-form index arithmetic:
# quantities like pd/(1-alpha) land exactly on integers for round table
# parameters and must resolve by their strict-inequality definitions.
_INDEX_TOL = 1e-9


@dataclass(frozen=True)
class RiskBounds:
    """Per-alpha risk bounds over a class, with VaR-attaining rays.

    ``argmin_ray``/``argmax_ray`` identify the rays attaining the VaR
    extrema by their support tuples. ES fields are None when the record
    comes from a VaR-only scan.
    """

    alpha: float
    var_min: int
    var_max: int
    es_min: float | None
    es_max: float | None
    argmin_ray: tuple[int, ...]
    argmax_ray: tuple[int, ...]


class EsEnvelope(NamedTuple):
    """Class-wide expected-shortfall envelope at one confidence level."""

    lower: float
    upper: float
    upper_attained: bool


def _tail_shortfalls(
    support: np.ndarray, masses: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row expected shortfall for a VaR at support column 0, 1 or 2.

    The tail of a VaR holds every column at or above it, so it starts at
    the first column holding the VaR's value: a padded column shares its
    predecessor's tail and adds its zero mass. Each sum adds its terms
    left to right, as ``sum(1)`` adds a row masked to its tail. There a
    column outside the tail holds a point of the ray, whose term is not
    negative, so it enters as a positive zero. A candidate no tail uses
    may divide zero by zero, or by a subnormal sum and overflow.
    """
    s0, s1, s2 = support.T
    m0, m1, m2 = masses.T
    p0, p1, p2 = s0 * m0, s1 * m1, s2 * m2
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        at0 = ((p0 + p1) + p2) / ((m0 + m1) + m2)
        at1 = ((0.0 + p1) + p2) / ((0.0 + m1) + m2)
        at2 = (0.0 + p2) / (0.0 + m2)
    at1 = np.where(s1 == s0, at0, at1)
    return at0, at1, np.where(s2 == s1, at1, at2)


def _lex_smallest(rays: RaySet, where: np.ndarray) -> tuple[int, ...]:
    """The lexicographically smallest support among the rows ``where``
    selects, the first such row on a tie: each support column in turn
    keeps the rows that hold its minimum."""
    rows = np.flatnonzero(where)
    for column in rays.support.T:
        key = column[rows]
        rows = rows[key == key.min()]
    t = rows[0]
    return tuple(rays.support[t, : rays.sizes[t]].tolist())


def _second_cdf(rays: RaySet) -> np.ndarray:
    """Each ray's cdf at its second point. The rounded sum is the
    compensated cdf of pmf.var bit for bit: the exact error of a
    two-term sum rounds away when added back."""
    return rays.masses[:, 0] + rays.masses[:, 1]


def _quantiles(
    rays: RaySet, cdf2: np.ndarray, alpha
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each ray's lower ``alpha``-quantile, the first column whose cdf
    covers ``alpha``, and the two threshold tests that pick it: whether
    the cdf covers it at the first point and at the second. A column of
    levels gives a row of each per level."""
    threshold = alpha - CDF_TIE_TOL
    first = rays.masses[:, 0] >= threshold
    second = cdf2 >= threshold
    s0, s1, s2 = rays.support.T
    return np.where(first, s0, np.where(second, s1, s2)), first, second


def _fold(
    blocks: Iterable[RaySet], alphas: Sequence[float], es: bool = True
) -> list[RiskBounds]:
    """VaR (and, with ``es``, ES) extrema over the rays of every block,
    one :class:`RiskBounds` per level, in one pass over the blocks.

    The blocks are checked rays of one class. The levels are checked
    before the first block is drawn. What does not depend on the level
    is computed once per block: the cdf at each ray's second point and,
    with ``es``, each ray's shortfall for every column its VaR can take.
    A level then picks each ray's VaR column by two threshold tests. A
    block's extrema and its lexicographically smallest attaining
    support fold into the running ones, so the result does not depend
    on how the rays are cut into blocks or ordered. Python's tuple order
    ranks supports as the padded rows rank, so ties across blocks
    resolve as a scan of the whole set resolves them.
    """
    alphas = [_check_open_unit(alpha, "alpha") for alpha in alphas]
    # Per level: var_min, var_max, es_min, es_max, argmin, argmax.
    found = [[math.inf, -math.inf, math.inf, -math.inf, None, None]
             for _ in alphas]
    for rays in blocks:
        if not len(rays):
            continue
        cdf2 = _second_cdf(rays)
        if es:
            at0, at1, at2 = _tail_shortfalls(rays.support, rays.masses)
        for alpha, best in zip(alphas, found):
            values, first, second = _quantiles(rays, cdf2, alpha)
            lo, hi = int(values.min()), int(values.max())
            if lo <= best[0]:
                arg = _lex_smallest(rays, values == lo)
                best[4] = arg if lo < best[0] else min(best[4], arg)
                best[0] = lo
            if hi >= best[1]:
                arg = _lex_smallest(rays, values == hi)
                best[5] = arg if hi > best[1] else min(best[5], arg)
                best[1] = hi
            if es:
                shortfall = np.where(first, at0, np.where(second, at1, at2))
                best[2] = min(best[2], float(shortfall.min()))
                best[3] = max(best[3], float(shortfall.max()))
    if any(best[4] is None for best in found):
        raise EmptyRaySet("risk scan over an empty ray collection")
    return [
        RiskBounds(alpha, lo, hi, es_lo if es else None,
                   es_hi if es else None, argmin, argmax)
        for alpha, (lo, hi, es_lo, es_hi, argmin, argmax)
        in zip(alphas, found)
    ]


def _var_extrema(
    spec: ClassSpec, alphas: Sequence[float]
) -> list[tuple[int, int]]:
    """``(var_min, var_max)`` of a correlated class at each level: the
    values of :func:`_fold` over the class's rays, from the few outer
    pairs that can reach an extremum.

    The class is refused as :func:`rays_corr._sweep_blocks` refuses it,
    at the call, and the levels are checked next. The matching mean-class
    rows are scanned in full. Every outer pair gets a floor under the
    VaR of its rays and a ceiling over it (:func:`_pair_var_bounds`).
    Then, best bound first, the pairs whose bound still beats a running
    extremum are solved, checked and decided as :func:`_fold` decides
    them, so every value comes from the rows a full scan would use.
    """
    ranges = rays_corr._capped_ranges(spec)
    # One row per level; every array below broadcasts against it.
    levels = np.array([_check_open_unit(alpha, "alpha")
                       for alpha in alphas]).reshape(-1, 1)
    lows, highs = np.full(len(levels), np.inf), np.full(len(levels), -np.inf)

    def scan(support, masses):
        if len(support):
            rays = RaySet._owning(spec, support, masses)
            values = _quantiles(rays, _second_cdf(rays), levels)[0]
            np.minimum(lows, values.min(axis=1), out=lows)
            np.maximum(highs, values.max(axis=1), out=highs)

    scan(*rays_corr._matching_mean_rays(spec))
    if ranges:
        i, k, lo, hi = (np.concatenate(parts) for parts in zip(*ranges))
        lo, hi = _live_ranges(spec, i, k, lo, hi)
        live = lo <= hi
        i, k, lo, hi = i[live], k[live], lo[live], hi[live]
        floors, ceilings = _pair_var_bounds(spec, i, k, lo, hi, levels)
        solved = np.zeros(len(i), dtype=bool)
        # Each extremum solves at most `batch` of the pairs that hold its
        # best bound per round; the batch doubles, so a bound that many
        # pairs share but few attain costs a few rounds.
        batch = 1
        while True:
            pick = np.zeros(len(i), dtype=bool)
            # A ceiling is negated, so both extrema take the least bound.
            for bound, beats in ((floors, floors < lows[:, None]),
                                 (-ceilings, ceilings > highs[:, None])):
                beats &= ~solved
                best = np.where(beats, bound, spec.d + 1).min(axis=1)
                beats &= bound == best[:, None]
                beats &= np.cumsum(beats, axis=1) <= batch
                pick |= beats.any(axis=0)
            if not pick.any():
                break
            solved |= pick
            batch *= 2
            scan(*rays_corr._solve_triples(spec, *rays_corr._triples(
                [(i[pick], k[pick], lo[pick], hi[pick])])))
    if np.isinf(lows).any():
        raise EmptyRaySet("risk scan over an empty ray collection")
    return [(int(low), int(high)) for low, high in zip(lows, highs)]


# Slack of the outer-pair bounds on a mass or a cdf, scaled by d**2. A
# mass of rays_corr._solve_triples is a Cramer numerator of at most
# 3*d**2 in magnitude, rounded in three operations (at most 7*u*d**2,
# u = 2**-53), divided by an exact integer and normalised by a correctly
# rounded sum within three such errors of one: within 34*u*d**2 of the
# exact mass, and a two-mass cdf within 69*u*d**2. The expressions of
# _outer_masses are within 13*u*d**2. The slack, 512*u*d**2, is over six
# times their sum at every d the key limit admits.
_PAIR_SLACK = 2.0**-44


def _outer_masses(spec: ClassSpec, i: np.ndarray, k: np.ndarray):
    """``mass_i(j)`` and ``mass_k(j)`` of the triples ``(i, j, k)`` on
    the outer pairs ``(i, k)``, and the real ``j`` at which each takes a
    value ``v``.

    With ``C = (m - i)(k - m) - s2`` for ``s2 = M - m**2``, the masses
    of the triple are

        mass_i = (k - m)/(k - i) - C/((j - i)(k - i))
        mass_j = C/((j - i)(k - j))
        mass_k = (m - i)/(k - i) - C/((k - i)(k - j))

    so ``mass_i`` and ``mass_k`` are monotone in ``j`` for ``i < j <
    k``, in opposite directions, whatever the sign of ``C``, and their
    extrema over a range of ``j`` lie at its ends. Evaluated in float,
    each stays monotone in ``j``: the denominator is an exact integer,
    and every operation is correctly rounded.
    """
    m = spec.mean_count
    c = (m - i) * (k - m) - (spec.second_moment_target - m * m)
    top_i, top_k = (k - m) / (k - i), (m - i) / (k - i)

    def mass_i(j):
        return top_i - c / ((j - i) * (k - i)).astype(float)

    def mass_k(j):
        return top_k - c / ((k - i) * (k - j)).astype(float)

    def at_i(v):
        return i + c / ((k - i) * (top_i - v))

    def at_k(v):
        return k - c / ((k - i) * (top_k - v))

    return mass_i, mass_k, at_i, at_k


def _index(x: np.ndarray, low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """``x`` clipped to ``[low, high]``, or ``low`` where it is not
    finite, as indices."""
    x = np.maximum(np.where(np.isfinite(x), x, low), low)
    return np.minimum(x, high).astype(np.int64)


def _first(holds, x, low, high):
    """A floor under the first index of ``[low, high]`` where the test
    ``holds``, monotone in the index, passes, where it fails at ``low``
    and passes at ``high``: ``ceil(x)`` for the real crossing ``x`` when
    the test fails just below it, else ``low + 1``."""
    guess = _index(np.ceil(x), low + 1, high)
    return np.where(holds(guess - 1), low + 1, guess)


def _last(holds, x, low, high):
    """A ceiling over the last index of ``[low, high]`` where ``holds``
    passes, where it passes at ``low`` and fails at ``high``: ``floor(x)``
    when the test fails just above it, else ``high - 1``."""
    guess = _index(np.floor(x), low, high - 1)
    return np.where(holds(guess + 1), high - 1, guess)


def _live_ranges(spec: ClassSpec, i, k, lo, hi):
    """Each middle range ``[lo, hi]`` narrowed to the indices where
    ``mass_i`` and ``mass_k`` can both be positive, within
    ``_PAIR_SLACK * d**2``: a triple outside fails the keep test of
    :func:`rays_corr._solve_triples`. A pair with no such index gets an
    empty range."""
    mass_i, mass_k, at_i, at_k = _outer_masses(spec, i, k)
    slack = _PAIR_SLACK * float(spec.d) ** 2

    def rising(j):
        return mass_i(j) >= -slack

    def falling(j):
        return mass_k(j) >= -slack

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        start = np.where(rising(lo), lo, np.where(
            rising(hi), _first(rising, at_i(-slack), lo, hi), hi + 1))
        stop = np.where(falling(hi), hi, np.where(
            falling(lo), _last(falling, at_k(-slack), lo, hi), lo - 1))
    return start, stop


def _pair_var_bounds(spec: ClassSpec, i, k, lo, hi, levels):
    """A floor under and a ceiling over the VaR of every ray on each
    outer pair ``(i, k)`` with its middle index in ``[lo, hi]``, with a
    row per level of the column ``levels``.

    A ray's VaR is ``i`` only if its ``mass_i`` can reach the level, at
    most ``j`` only if its cdf ``1 - mass_k`` can, and ``k`` only if that
    cdf can fall short of it, each within ``_PAIR_SLACK * d**2``. As
    both masses are monotone in ``j`` (:func:`_outer_masses`), the first
    test and the third need only the ends of the range, and the second
    holds on a run that ends at ``lo`` or at ``hi``, whose other end
    comes from the closed-form crossing (:func:`_first`, :func:`_last`).
    """
    mass_i, mass_k, at_i, at_k = _outer_masses(spec, i, k)
    slack = _PAIR_SLACK * float(spec.d) ** 2
    threshold = levels - CDF_TIE_TOL
    i_lo, i_hi, k_lo, k_hi = mass_i(lo), mass_i(hi), mass_k(lo), mass_k(hi)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # The floor: i, else the first j whose cdf can reach the level,
        # else k.
        level = (1.0 - threshold) + slack

        def covered(j):
            return mass_k(j) <= level

        floor = np.where(
            np.maximum(i_lo, i_hi) >= threshold - slack, i,
            np.where(k_lo <= level, lo, np.where(
                k_hi <= level, _first(covered, at_k(level), lo, hi), k)))
        # The ceiling: k, else the last j whose mass_i can stay below the
        # level, else i.
        level = threshold + slack

        def short(j):
            return mass_i(j) < level

        ceiling = np.where(
            np.maximum(k_lo, k_hi) > (1.0 - threshold) - slack, k,
            np.where(i_hi < level, hi, np.where(
                i_lo < level, _last(short, at_i(level), lo, hi), i)))
    return floor, ceiling


def _one_block(rays: Sequence[RayDensity]):
    """``rays`` as the one block of a fold, packed when it is drawn, so
    that the fold checks its levels first."""
    if len(rays):
        yield RaySet.of(rays)


def var_bounds_scan(rays: Sequence[RayDensity], alpha: float) -> RiskBounds:
    """Exact VaR extrema over ``rays``.

    Ties among attaining rays resolve to the lexicographically smallest
    support, independent of the input order.
    """
    return _fold(_one_block(rays), (alpha,), es=False)[0]


def _ceil_guarded(x: float) -> int:
    """Smallest integer at or above ``x``, treating a value within 1e-9
    above an integer as that integer."""
    f = math.floor(x)
    if x - f <= _INDEX_TOL:
        return int(f)
    return int(f) + 1


def var_bounds_mean_closed_form(
    spec: ClassSpec, alpha: float
) -> tuple[int, int]:
    """Closed-form VaR extrema over the mean-constrained class.

    With ``j1p = (p - (1 - alpha)) * d / alpha``, the pivot index below
    which a two-point ray can still place cdf ``alpha`` at its lower
    support point:

    - ``j1p <= 0``: minimum 0; maximum is the largest integer strictly
      below ``pd / (1 - alpha)``. This includes the boundary
      ``p = 1 - alpha`` exactly, where the ray on ``{0, d}`` carries cdf
      exactly ``alpha`` at zero and quantile ties resolve downward.
    - ``0 < j1p <= j1M``: minimum ``ceil(j1p)``; maximum ``d``.
    - ``j1p > j1M``: minimum ``j1M + 1`` (the integer mean itself when
      there is one, attained by the point ray); maximum ``d``.
    """
    _require_mean_only(spec, "var_bounds_mean_closed_form")
    alpha = _check_open_unit(alpha, "alpha")
    pd = spec.mean_count
    pivot = (spec.p - (1.0 - alpha)) * spec.d / alpha
    if pivot <= _INDEX_TOL:
        return 0, _ceil_guarded(pd / (1.0 - alpha)) - 1
    if pivot <= spec.max_lower_index + _INDEX_TOL:
        return _ceil_guarded(pivot), spec.d
    return spec.max_lower_index + 1, spec.d


def es_bounds_scan(
    rays: Sequence[RayDensity], alpha: float
) -> tuple[float, float]:
    """Expected-shortfall extrema over ``rays`` (the ray envelope).

    These reproduce the bundled reference tail tables; they are not claimed
    sharp over the whole class (see :func:`es_envelope` for the proved
    class-wide bound).
    """
    bounds = risk_bounds(rays, alpha)
    return bounds.es_min, bounds.es_max


def risk_bounds(rays: Sequence[RayDensity], alpha: float) -> RiskBounds:
    """One-pass VaR and ES scan bundled into a :class:`RiskBounds`."""
    return _fold(_one_block(rays), (alpha,))[0]


def es_envelope(
    source: Union[ClassSpec, Sequence[RayDensity]], alpha: float
) -> EsEnvelope:
    """Proved class-wide expected-shortfall envelope ``[min VaR, d]``.

    ``source`` is either a ClassSpec (mean-only specs use the closed
    form; correlation specs solve only the outer pairs that can reach a
    VaR extremum, :func:`_var_extrema`) or an already enumerated ray
    sequence. The upper bound ``d`` is attained exactly
    when the source's VaR maximum is ``d``: a member's ES is ``d`` exactly
    when its VaR is, and ``P(S = d)`` is linear in the pmf.
    """
    alpha = _check_open_unit(alpha, "alpha")
    if isinstance(source, ClassSpec) and source.rho is None:
        spec = source
        var_min, var_max = var_bounds_mean_closed_form(spec, alpha)
    elif isinstance(source, ClassSpec):
        spec = source
        (var_min, var_max), = _var_extrema(spec, (alpha,))
    else:
        bounds = _fold(_one_block(source), (alpha,), es=False)[0]
        spec = source[0].spec
        var_min, var_max = bounds.var_min, bounds.var_max
    return EsEnvelope(float(var_min), float(spec.d), bool(var_max == spec.d))
