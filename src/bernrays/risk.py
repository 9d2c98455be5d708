"""Sharp risk bounds on the default count over an admissible class.

Value-at-risk extrema over a class are attained on its extremal rays,
so a scan over the enumeration is exact. One kernel (:func:`_scan`)
folds a block of rays into the running extrema of every confidence
level; the whole enumeration is one such block. What does not depend on
the level is done once per block: each ray's cdf at its second point
and its shortfall for each column its VaR can take, exact where the
tail is the whole support (the class mean) or one point. A level then
costs two threshold tests and a select per ray. For the
mean-constrained class the scan collapses to a closed form in (d, p,
alpha), in ``spec``. A correlated class is never folded whole: VaR
needs only the O(d) rays whose support holds two adjacent indices or
spans {0, d}, and ES only the outer pairs whose closed-form bounds beat
the extrema of those rays, in one pass (:func:`_extrema`); the same
kernel scans them, so the values are the fold's bit for bit.
Expected-shortfall scans report the extrema over rays; the proved
class-wide envelope [min VaR, d] is exposed separately because the two
differ in meaning: ray extrema reproduce the bundled reference tables,
the envelope is the bound established for every class member.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence, Union

import numpy as np

from . import rays_corr
from .errors import EmptyRaySet
from .rays_mean import RayDensity, RaySet
from .spec import (
    CDF_TIE_TOL,
    ClassSpec,
    _check_open_unit,
    var_bounds_mean_closed_form,
)


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
    support: np.ndarray, masses: np.ndarray, mean: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row expected shortfall for a VaR at support column 1 or 2; at
    column 0, whose tail is the whole support, it is the class ``mean``.
    A tail of one point ``s`` has ``s`` (a padded column repeats its
    predecessor). Only the two-point tail of a three-point ray takes a
    ratio, adding its terms left to right as ``sum(1)`` adds a row
    masked to its tail, column 0 as a positive zero. A candidate no tail
    uses may divide zero by zero, or by a subnormal sum and overflow."""
    s0, s1, s2 = support.T
    _, m1, m2 = masses.T
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratio = ((0.0 + s1 * m1) + s2 * m2) / ((0.0 + m1) + m2)
    at1 = np.where(s1 == s0, mean, np.where(s2 == s1, s1, ratio))
    return at1, np.where(s2 == s1, at1, s2)


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


def _scan(found: list, rays: RaySet, levels: list, args=None) -> None:
    """Fold the checked rays of one block into ``found``, the running
    extrema per level: ``[var_min, var_max]``, or with ES
    ``[var_min, var_max, es_min, es_max]``. With ``args``, the pairs
    ``[argmin, argmax]`` per level, it also keeps the lexicographically
    smallest supports that attain the VaR extrema.

    What does not depend on the level is computed once: the cdf at each
    ray's second point, whose rounded sum is the compensated cdf of
    pmf.var bit for bit (the exact error of a two-term sum rounds away
    when added back), and with ES each ray's shortfall for every column
    its VaR can take. A level then picks each ray's VaR column, the
    first whose cdf covers it, by two threshold tests. Extrema and
    attaining supports fold into the running ones, so the result does
    not depend on how the rays are cut into blocks or ordered. Python's
    tuple order ranks supports as the padded rows rank, so ties across
    blocks resolve as a scan of the whole set resolves them.
    """
    if not len(rays) or not found:
        return
    s0, s1, s2 = rays.support.T
    cdf1 = rays.masses[:, 0]
    cdf2 = cdf1 + rays.masses[:, 1]
    es = len(found[0]) > 2
    if es:
        mean = rays.spec.mean_count
        at1, at2 = _tail_shortfalls(rays.support, rays.masses, mean)
    for column, (level, best) in enumerate(zip(levels, found)):
        threshold = level - CDF_TIE_TOL
        first, second = cdf1 >= threshold, cdf2 >= threshold
        values = np.where(first, s0, np.where(second, s1, s2))
        lo, hi = int(values.min()), int(values.max())
        if args is not None:
            arg = args[column]
            if lo <= best[0]:
                ray = _lex_smallest(rays, values == lo)
                arg[0] = ray if lo < best[0] else min(arg[0], ray)
            if hi >= best[1]:
                ray = _lex_smallest(rays, values == hi)
                arg[1] = ray if hi > best[1] else min(arg[1], ray)
        best[0], best[1] = min(best[0], lo), max(best[1], hi)
        if es:
            shortfall = np.where(first, mean, np.where(second, at1, at2))
            best[2] = min(best[2], float(shortfall.min()))
            best[3] = max(best[3], float(shortfall.max()))


def _fold(
    blocks: Iterable[RaySet], alphas: Sequence[float], es: bool = True
) -> list[RiskBounds]:
    """VaR (and, with ``es``, ES) extrema over the rays of every block,
    one :class:`RiskBounds` per level, in one pass over the blocks
    (:func:`_scan`). The blocks are checked rays of one class. The
    levels are checked before the first block is drawn."""
    levels = _levels(alphas)
    found = [[math.inf, -math.inf] * (2 if es else 1) for _ in levels]
    args = [[None, None] for _ in levels]
    for rays in blocks:
        _scan(found, rays, levels, args)
    if any(best[0] == math.inf for best in found):
        raise EmptyRaySet("risk scan over an empty ray collection")
    return [RiskBounds(alpha, *best, *([] if es else [None, None]), *arg)
            for alpha, best, arg in zip(levels, found, args)]


def _levels(alphas: Sequence[float]) -> list[float]:
    """The levels, each checked, in order."""
    return [_check_open_unit(alpha, "alpha") for alpha in alphas]


def _var_extrema(
    spec: ClassSpec, alphas: Sequence[float]
) -> list[tuple[int, int]]:
    """``(var_min, var_max)`` of a correlated class at each level: the
    values of :func:`_fold` over its rays, from the O(d) rays that can
    attain an extremum. The class is refused as
    :func:`rays_corr._capped_ranges` refuses it, at the call, and the
    levels are checked next."""
    return _extrema(spec, rays_corr._capped_ranges(spec), alphas)


def _extrema(
    spec: ClassSpec, ranges: np.ndarray, alphas: Sequence[float],
    es: bool = False
) -> list[tuple]:
    """The extrema of :func:`_scan` per level, ``(var_min, var_max)`` or
    with ``es`` also ``es_min`` and ``es_max``, of a correlated class
    with the pair ``ranges`` of :func:`rays_corr._capped_ranges`, from
    the rays that can attain them; the levels are checked first. Every
    ray scanned is a ray of the class, decided as :func:`_fold` decides
    it, so each extremum is the fold's once the rays that attain it are
    among them.

    The matching mean rows are scanned in full, and of the three-point
    rays those whose support holds two adjacent indices or spans
    ``{0, d}``. These hold every VaR extremum. ``var_max - 1`` is the
    last ``t`` with ``min P(S <= t) < alpha`` over the class, and
    ``var_min`` the first with ``max P(S <= t) >= alpha``: linear
    programs with three equality rows, optimal on a basis of three
    points that holds its ray's support. The basis's dual quadratic
    ``q`` lies on one side of the step ``1[j <= t]`` and meets it on the
    basis (Kwerel, *JASA* 70, 1975; Prekopa, *Discrete Appl. Math.* 27,
    1990). Two points on one level have ``q`` on the wrong side of it
    strictly between them, so they are neighbours, or strictly outside
    them, so they are that level's ends and the third point is ``0``,
    ``d`` or next to the step. A basis on one level makes ``q``
    constant: every ray on that side holds the extremum, among them the
    ray of least third moment, whose cubic dual puts two of its points
    next to each other.

    ES is no linear objective, so with ``es`` every outer pair gets a
    floor under the ES of its rays and a ceiling over it
    (:func:`_pair_shortfall_bounds`), and in one pass the pairs are
    solved whose floor is below ``es_min``, or whose ceiling above
    ``es_max``, at some level, both as the scan above left them. That
    is exact: a skipped pair's floor is at or above that ``es_min``,
    which is at or above the final one, so none of its rays can do more
    than tie it, and so for ceilings.
    """
    levels = _levels(alphas)
    found = [[math.inf, -math.inf] * (2 if es else 1) for _ in levels]
    i, k, lo, hi = ranges
    # A pair's middle range holds every ray on it, so an adjacent middle
    # index is tried where the range reaches it (once if k = i + 2).
    outer = (i == 0) & (k == spec.d)
    after = (lo == i + 1) & ~outer
    before = (hi == k - 1) & (k > i + 2) & ~outer
    family = np.concatenate([ranges[:, outer],
                             ranges[:, after][[0, 1, 2, 2]],
                             ranges[:, before][[0, 1, 3, 3]]], axis=1)
    _scan(found, RaySet._owning(spec, *rays_corr._matching_mean_rays(spec)),
          levels)
    for rows in rays_corr._solved(spec, *family):
        _scan(found, RaySet._owning(spec, *rows), levels)
    if es:
        pick, lo, hi = _pair_shortfall_bounds(spec, i, k, lo, hi, found,
                                              levels)
        for rows in rays_corr._solved(spec, i[pick], k[pick], lo[pick],
                                      hi[pick]):
            _scan(found, RaySet._owning(spec, *rows), levels)
    if any(best[0] == math.inf for best in found):
        raise EmptyRaySet("risk scan over an empty ray collection")
    return [tuple(best) for best in found]


# Slack of the outer-pair bounds, scaled by d**2 on a mass or a cdf and
# by d**3 on a shortfall. A mass of rays_corr._solve_triples is a Cramer
# numerator of at most 3*d**2 in magnitude, rounded in three operations
# (at most 7*u*d**2, u = 2**-53), divided by an exact integer and
# normalised by a correctly rounded sum within three such errors of one:
# within 34*u*d**2 of the exact mass, and a two-mass cdf within
# 69*u*d**2. The expressions of _outer_masses are within 13*u*d**2. A
# ray's shortfall (_tail_shortfalls) at column 1, where mass_i is below
# the threshold t = alpha - CDF_TIE_TOL, and the float value of
# (m - i*mass_i)/(1 - mass_i) are together within 148*u*d**3/room of
# its exact value, for room = 1 - t - slack. The slack, 512*u, is over
# twice each.
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


def _pair_shortfall_bounds(spec: ClassSpec, i, k, lo, hi, found, levels):
    """Which outer pairs ``(i, k)``, with middle indices in ``[lo,
    hi]``, can hold a ray whose ES beats an extremum of ``found`` (the
    running ``[var_min, var_max, es_min, es_max]`` per level of
    ``levels``), as a mask; and each range narrowed to the indices where
    ``mass_i`` and ``mass_k`` can both be positive.

    A pair is picked where, at some level, a floor under the ES of its
    rays is below ``es_min`` or a ceiling over it is above ``es_max``. A
    ray's VaR takes column 0 only if its ``mass_i`` can reach the
    level, column 2 only if its cdf ``1 - mass_k`` can fall short of it,
    and column 1 only on the indices where ``mass_i`` can stay below the
    level and the cdf can reach it, each within ``_PAIR_SLACK * d**2``.
    Its ES is then exactly the mean at column 0 and ``k`` at column 2,
    and ``(m - i*mass_i)/(1 - mass_i)`` at column 1 within
    ``_PAIR_SLACK * d**3 / room``, for the ``room`` a level leaves below
    one. That expression is monotone in ``mass_i``, and ``mass_i`` rises
    with ``j`` where ``C > 0`` (:func:`_outer_masses`), so each bound
    needs only the ends of an index range, which come from closed-form
    crossings (:func:`_first`, :func:`_last`). A pair no ray can lie on
    gets an empty range and is not picked. A pair with ``C <= 0``, whose
    middle mass is not positive in exact arithmetic, keeps its range and
    is always picked.
    """
    m = spec.mean_count
    d = float(spec.d)
    slack, es_slack = _PAIR_SLACK * d**2, _PAIR_SLACK * d**3
    c, mass_i, mass_k, at_i, at_k = _outer_masses(spec, i, k)
    rising = c > 0
    pick = ~rising
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
        for level, best in zip(levels, found):
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
            floor = np.minimum.reduce([
                np.where(reach[0], m, np.inf),
                np.where(reach[1], mid[0], np.inf),
                np.where(reach[2], k, np.inf)])
            ceiling = np.maximum.reduce([
                np.where(reach[0], m, -np.inf),
                np.where(reach[1], mid[1], -np.inf),
                np.where(reach[2], k, -np.inf)])
            pick |= (floor < best[2]) | (ceiling > best[3])
    return pick, lo, hi


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
