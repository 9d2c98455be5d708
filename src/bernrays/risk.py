"""Sharp risk bounds on the default count over an admissible class.

Value-at-risk extrema over a class are attained on its extremal rays,
so a scan over the enumeration is exact. One fold scans blocks of rays
for every confidence level at once; the whole enumeration is one such
block, and a mean class's streamed blocks give the same bits without
ever being held at once. What does not depend on the level is done once
per block: each ray's cdf at its second point and its shortfall for
each column its VaR can take. A level then costs two threshold tests
and a select per ray. For the mean-constrained class the scan collapses
to a closed form in (d, p, alpha). A correlated class is never folded
whole: VaR needs only the O(d) rays whose support holds two adjacent
indices or spans {0, d}, and ES only the outer pairs whose closed-form
bounds can still move an extremum (:func:`_extrema`), with the fold's
values bit for bit. Expected-shortfall
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


def _levels(alphas: Sequence[float]) -> np.ndarray:
    """The checked levels as a column: one row per level, against which
    every per-ray or per-pair array broadcasts."""
    return np.array([_check_open_unit(alpha, "alpha")
                     for alpha in alphas]).reshape(-1, 1)


def _var_extrema(
    spec: ClassSpec, alphas: Sequence[float]
) -> list[tuple[int, int]]:
    """``(var_min, var_max)`` of a correlated class at each level: the
    values of :func:`_fold` over its rays, from the O(d) rays that can
    attain an extremum. The class is refused as
    :func:`rays_corr._capped_ranges` refuses it, at the call, and the
    levels are checked next (:func:`_extrema`)."""
    found = _extrema(spec, rays_corr._capped_ranges(spec), _levels(alphas))
    return [(int(low), int(high)) for low, high in found[:2].T]


def _class_bounds(
    spec: ClassSpec, ranges: list, alphas: Sequence[float]
) -> list[tuple[int, int, float, float]]:
    """``(var_min, var_max, es_min, es_max)`` of a correlated class at
    each level, the values of :func:`_fold` over its rays bit for bit,
    from its ``ranges`` (:func:`rays_corr._capped_ranges`); the levels
    are checked first."""
    found = _extrema(spec, ranges, _levels(alphas), es=True)
    return [(int(lo), int(hi), float(es_lo), float(es_hi))
            for lo, hi, es_lo, es_hi in found.T]


def _extrema(
    spec: ClassSpec, ranges: list, levels: np.ndarray, es: bool = False
) -> np.ndarray:
    """Rows ``var_min``, ``var_max`` and, with ``es``, ``es_min`` and
    ``es_max`` of a correlated class, a column per level, from the rays
    that can attain them. Every ray scanned is a ray of the class,
    decided as :func:`_fold` decides it, so each extremum is the fold's
    once the rays that attain it are among them.

    The matching mean rows are scanned in full, and the three-point rays
    whose support holds two adjacent indices or spans ``{0, d}`` in
    slices of ``rays_corr._BLOCK_CANDIDATES`` triples. These hold every
    VaR extremum. ``var_max - 1`` is the last ``t`` with
    ``min P(S <= t) < alpha`` over the class, and ``var_min`` the first
    with ``max P(S <= t) >= alpha``: linear programs with three equality
    rows, optimal on a basis of three points that holds its ray's
    support. The basis's dual quadratic ``q`` lies on one side of the
    step ``1[j <= t]`` and meets it on the basis (Kwerel, *JASA* 70,
    1975; Prekopa, *Discrete Appl. Math.* 27, 1990). Two points on one
    level have ``q`` on the wrong side of it strictly between them, so
    they are neighbours, or strictly outside them, so they are that
    level's ends and the third point is ``0``, ``d`` or next to the
    step. A basis on one level makes ``q`` constant: every ray on that
    side holds the extremum, among them the ray of least third moment,
    whose cubic dual puts two of its points next to each other.

    ES is no linear objective, so with ``es`` every outer pair gets a
    floor under the ES of its rays and a ceiling over it
    (:func:`_pair_shortfall_bounds`). Then, best bound first, the pairs
    whose bound still beats a running extremum are solved; the triples a
    level may solve per extremum and round double, so a bound that many
    pairs share costs a few rounds.
    """
    # Rows var_min, var_max, es_min and es_max.
    found = np.tile([[math.inf], [-math.inf]], (2, len(levels)))

    def scan(i, j, k):
        for t in range(0, len(j), rays_corr._BLOCK_CANDIDATES):
            rows = slice(t, t + rays_corr._BLOCK_CANDIDATES)
            scan_rows(*rays_corr._solve_triples(spec, i[rows], j[rows],
                                                k[rows]))

    def scan_rows(support, masses):
        if not len(support):
            return
        rays = RaySet._owning(spec, support, masses)
        values, first, second = _quantiles(rays, _second_cdf(rays), levels)
        np.minimum(found[0], values.min(axis=1), out=found[0])
        np.maximum(found[1], values.max(axis=1), out=found[1])
        if es:
            at0, at1, at2 = _tail_shortfalls(rays.support, rays.masses)
            shortfall = np.where(first, at0, np.where(second, at1, at2))
            np.minimum(found[2], shortfall.min(axis=1), out=found[2])
            np.maximum(found[3], shortfall.max(axis=1), out=found[3])

    scan_rows(*rays_corr._matching_mean_rays(spec))
    if ranges:
        i, k, lo, hi = (np.concatenate(parts) for parts in zip(*ranges))
        # A pair's middle range holds every ray on it, so an adjacent middle
        # index is tried where the range reaches it (once if k = i + 2).
        outer = (i == 0) & (k == spec.d)
        after = (lo == i + 1) & ~outer
        before = (hi == k - 1) & (k > i + 2) & ~outer
        scan(*rays_corr._triples([
            (i[outer], k[outer], lo[outer], hi[outer]),
            (i[after], k[after], lo[after], lo[after]),
            (i[before], k[before], hi[before], hi[before])]))
        if es:
            floors, ceilings, lo, hi = _pair_shortfall_bounds(
                spec, i, k, lo, hi, levels)
            # Both extrema take the least bound first: a ceiling and the
            # running maximum are negated.
            bounds = (floors, -ceilings)
            orders = [np.argsort(bound, axis=1) for bound in bounds]
            ranked = [np.take_along_axis(bound, order, axis=1)
                      for bound, order in zip(bounds, orders)]
            width = hi - lo + 1
            solved = np.zeros(len(i), dtype=bool)
            # A level's first round takes up to about a third of a slice
            # of triples per extremum.
            budget = rays_corr._BLOCK_CANDIDATES // 6
            while True:
                pick = np.zeros(len(i), dtype=bool)
                for rank, order, best in zip(ranked, orders,
                                             (found[2], -found[3])):
                    for level, value in enumerate(best):
                        beats = order[level, :np.searchsorted(rank[level],
                                                              value)]
                        beats = beats[~solved[beats]]
                        pick[beats[:np.searchsorted(
                            np.cumsum(width[beats]), budget) + 1]] = True
                if not pick.any():
                    break
                solved |= pick
                budget *= 2
                pick = np.flatnonzero(pick)
                # Pairs of about _BLOCK_CANDIDATES triples at a time.
                total = np.cumsum(width[pick])
                for part in np.split(pick, np.searchsorted(total, np.arange(
                        rays_corr._BLOCK_CANDIDATES, total[-1],
                        rays_corr._BLOCK_CANDIDATES))):
                    scan(*rays_corr._triples(
                        [(i[part], k[part], lo[part], hi[part])]))
    if np.isinf(found[0]).any():
        raise EmptyRaySet("risk scan over an empty ray collection")
    return found


# Slack of the outer-pair bounds, scaled by d**2 on a mass or a cdf and
# by d**3 on a shortfall. A mass of rays_corr._solve_triples is a Cramer
# numerator of at most 3*d**2 in magnitude, rounded in three operations
# (at most 7*u*d**2, u = 2**-53), divided by an exact integer and
# normalised by a correctly rounded sum within three such errors of one:
# within 34*u*d**2 of the exact mass, and a two-mass cdf within
# 69*u*d**2. The expressions of _outer_masses are within 13*u*d**2. A
# ray's shortfall (_tail_shortfalls) is then within 224*u*d**3 of the
# mean at column 0 and of k at column 2. At column 1 mass_i is below the
# threshold t = alpha - CDF_TIE_TOL, and the shortfall and the float
# value of (m - i*mass_i)/(1 - mass_i) are together within
# 148*u*d**3/room of its exact value, for room = 1 - t - slack. The
# slack, 512*u, is over twice each.
_PAIR_SLACK = 2.0**-44


def _outer_masses(spec: ClassSpec, i: np.ndarray, k: np.ndarray):
    """``C`` and, for the triples ``(i, j, k)`` on the outer pairs
    ``(i, k)``, ``mass_i(j)`` and ``mass_k(j)`` and the real ``j`` at
    which each takes a value ``v``.

    With ``C = (m - i)(k - m) - s2`` for ``s2 = M - m**2``, the masses
    of the triple are

        mass_i = (k - m)/(k - i) - C/((j - i)(k - i))
        mass_j = C/((j - i)(k - j))
        mass_k = (m - i)/(k - i) - C/((k - i)(k - j))

    so ``mass_i`` and ``mass_k`` are monotone in ``j`` for ``i < j <
    k``, in opposite directions; for ``C > 0`` ``mass_i`` rises. In
    float each stays monotone in ``j``: the denominator is an exact
    integer, and every operation is correctly rounded.
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

    return c, mass_i, mass_k, at_i, at_k


def _first(holds, x, lo, hi):
    """A floor under the first index of ``[lo, hi]`` where ``holds``, a
    test that fails and then passes as the index rises, passes:
    ``ceil(x)`` for a guess ``x`` at the crossing where the test fails
    just below it, else ``lo``; ``hi + 1`` where it fails throughout."""
    with np.errstate(invalid="ignore"):
        guess = np.clip(np.where(np.isnan(x), lo, np.ceil(x)), lo, hi + 1)
    guess = guess.astype(np.int64)
    return np.where((guess > lo) & holds(np.maximum(guess - 1, lo)),
                    lo, guess)


def _last(holds, x, lo, hi):
    """A ceiling over the last index of ``[lo, hi]`` where ``holds``, a
    test that passes and then fails as the index rises, passes: the
    mirror of :func:`_first`, ``lo - 1`` where it fails throughout."""
    with np.errstate(invalid="ignore"):
        guess = np.clip(np.where(np.isnan(x), hi, np.floor(x)), lo - 1, hi)
    guess = guess.astype(np.int64)
    return np.where((guess < hi) & holds(np.minimum(guess + 1, hi)),
                    hi, guess)


def _pair_shortfall_bounds(spec: ClassSpec, i, k, lo, hi, levels):
    """A floor under and a ceiling over the ES of every ray on each
    outer pair ``(i, k)`` with its middle index in ``[lo, hi]``, a row
    per level of the column ``levels``, and each range narrowed to the
    indices where ``mass_i`` and ``mass_k`` can both be positive.

    A ray's VaR takes column 0 only if its ``mass_i`` can reach the
    level, column 2 only if its cdf ``1 - mass_k`` can fall short of it,
    and column 1 only on the indices where ``mass_i`` can stay below the
    level and the cdf can reach it, each within ``_PAIR_SLACK * d**2``.
    Its ES is then the mean, ``(m - i*mass_i)/(1 - mass_i)`` or ``k``,
    within ``_PAIR_SLACK * d**3`` (more at column 1 near a level of one).
    The middle expression is monotone in ``mass_i``, and ``mass_i`` rises
    with ``j`` where ``C > 0`` (:func:`_outer_masses`), so each bound
    needs only the ends of an index range, which come from closed-form
    crossings (:func:`_first`, :func:`_last`). A pair no ray can lie on
    gets an empty range and the bounds ``inf`` and ``-inf``. A pair with
    ``C <= 0``, whose middle mass is not positive in exact arithmetic,
    keeps its range and gets ``-inf`` and ``inf``, so it is solved.
    """
    m = spec.mean_count
    d = float(spec.d)
    slack, es_slack = _PAIR_SLACK * d**2, _PAIR_SLACK * d**3
    c, mass_i, mass_k, at_i, at_k = _outer_masses(spec, i, k)
    rising = c > 0
    floors, ceilings = np.empty((2, len(levels), len(i)))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lo, hi = (
            np.where(rising, _first(lambda j: mass_i(j) >= -slack,
                                    at_i(-slack), lo, hi), lo),
            np.where(rising, _last(lambda j: mass_k(j) >= -slack,
                                   at_k(-slack), lo, hi), hi))
        live = lo <= hi
        # An empty range is evaluated at a middle index of its pair, and
        # no column is reached there.
        ends = np.where(live, lo, i + 1), np.where(live, hi, i + 1)
        i_top, k_top = mass_i(ends[1]), mass_k(ends[0])
        # One level at a time, so the working arrays do not grow with
        # the number of levels.
        for row, level in enumerate(levels[:, 0]):
            threshold = level - CDF_TIE_TOL
            short = (1.0 - threshold) + slack
            # Column 1 holds from the first index where mass_k is short of
            # 1 - alpha to the last where mass_i is below alpha.
            start = _first(lambda j: mass_k(j) <= short, at_k(short), *ends)
            stop = _last(lambda j: mass_i(j) < threshold + slack,
                         at_i(threshold + slack), *ends)
            w_hi = np.minimum(mass_i(np.maximum(stop, ends[0])) + slack,
                              threshold + slack)
            w_lo = np.minimum(mass_i(np.minimum(start, ends[1])) - slack,
                              w_hi)
            room = 1.0 - threshold - slack
            if room > 0:
                f_lo, f_hi = ((m - i * w) / (1.0 - w) for w in (w_lo, w_hi))
                mid = (np.minimum(f_lo, f_hi) - es_slack / room,
                       np.minimum(np.maximum(f_lo, f_hi), k)
                       + es_slack / room)
            else:
                mid = -np.inf, np.inf
            reach = [live & r for r in (
                i_top >= threshold - slack, start <= stop,
                k_top > (1.0 - threshold) - slack)]
            floors[row] = np.where(rising, np.minimum.reduce([
                np.where(reach[0], m - es_slack, np.inf),
                np.where(reach[1], mid[0], np.inf),
                np.where(reach[2], k - es_slack, np.inf)]), -np.inf)
            ceilings[row] = np.where(rising, np.maximum.reduce([
                np.where(reach[0], m + es_slack, -np.inf),
                np.where(reach[1], mid[1], -np.inf),
                np.where(reach[2], k + es_slack, -np.inf)]), np.inf)
    return floors, ceilings, lo, hi


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
    form; correlation specs solve only the rays that can attain a VaR
    extremum, :func:`_var_extrema`) or an already enumerated ray
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
