"""Brute-force oracles that share no code with the package.

Vertex enumeration solves an explicit linear system on every candidate
support, and the composition grid walks an entire discretized simplex.
Both are exponentially slow and only usable at small d, which is the
point: they are independent of the analytic formulas under test. The
all-triples sweep and the exact rational classifier check every index
triple of a correlated class, in O(d^3), against the interval sweep of
the package.
"""

import itertools
import math
from fractions import Fraction

import numpy as np


def vertex_pmfs(d, targets, tol=1e-9):
    """Extreme points of ``{x >= 0, sum x = 1, sum_j j**a x_j = t_a}``.

    ``targets`` maps each raw-moment order ``a`` to its value ``t_a``.
    A vertex of the polytope has at most rank-many strictly positive
    coordinates (here ``1 + len(targets)``), so solving the equality
    system on every support up to that size and keeping the strictly
    positive, exactly-solving candidates finds all of them.

    Returns a dict mapping support tuple to its mass array.
    """
    orders = sorted(targets)
    max_size = 1 + len(orders)
    rhs = np.array([1.0] + [targets[a] for a in orders])
    vertices = {}
    for size in range(1, max_size + 1):
        for support in itertools.combinations(range(d + 1), size):
            cols = np.array(support, dtype=float)
            system = np.vstack([np.ones(size)] + [cols**a for a in orders])
            if np.linalg.matrix_rank(system, tol=1e-12) < size:
                continue
            x, *_ = np.linalg.lstsq(system, rhs, rcond=None)
            if np.max(np.abs(system @ x - rhs)) > tol:
                continue
            if np.min(x) < tol:
                continue
            vertices[support] = x
    return vertices


def mean_grid_pmfs(d, mean_count, denominator):
    """Every pmf on ``{0..d}`` with masses in multiples of
    ``1/denominator`` and exact mean ``mean_count``.

    ``mean_count * denominator`` must be an integer so the mean
    constraint holds in integer arithmetic; membership is then exact,
    not approximate.
    """
    weighted = mean_count * denominator
    target = round(weighted)
    if abs(weighted - target) > 1e-9:
        raise ValueError("grid mean must be a multiple of 1/denominator")
    out = []
    for counts in _compositions(denominator, d + 1):
        if sum(j * c for j, c in enumerate(counts)) == target:
            out.append(np.array(counts, dtype=float) / denominator)
    return out


def _compositions(total, bins):
    if bins == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, bins - 1):
            yield (head,) + rest


def random_mixture(rng, rays, max_terms=40):
    """Random convex combination of a random subset of ``rays``.

    ``rays`` is a ``RaySet``. Returns ``(probs, weights, chosen)`` where
    ``probs`` is the dense mixture pmf on ``{0..d}``, summed term by
    term in the order the terms were drawn (padding adds zero mass).
    """
    take = int(min(len(rays), max_terms))
    chosen = rng.choice(len(rays), size=take, replace=False)
    weights = rng.dirichlet(np.ones(take))
    probs = np.zeros(rays.d + 1)
    np.add.at(probs, rays.support[chosen],
              weights[:, None] * rays.masses[chosen])
    return probs, weights, chosen


def all_triples_rays(spec, zero_tol=1e-12, match_scale=1e-12):
    """Reference enumeration of a correlated class by a sweep over every
    index triple, ``C(d + 1, 3)`` of them.

    The mean-class two-point rays whose second moment matches take
    precedence, then the point ray, then the first triple (in
    lexicographic order) per support set. A triple keeps every mass at
    or above ``-zero_tol`` and drops the points whose mass is at most
    ``zero_tol``. Returns ``(support, masses)`` pairs sorted by support.
    This dropped-point path is kept as the reference although the package
    takes its rays of fewer points from the mean class alone; the two
    differ on integer-mean lower edges from d = 89 on.
    """
    d = spec.d
    m = spec.mean_count
    big_m = spec.second_moment_target
    match_tol = match_scale * max(1.0, float(d * d))
    out = {}
    for j1 in range(spec.max_lower_index + 1):
        for j2 in range(spec.min_upper_index, d + 1):
            if abs((j1 + j2) * m - j1 * j2 - big_m) <= match_tol:
                gap = j2 - j1
                masses = ((j2 - m) / gap, (m - j1) / gap)
                total = math.fsum(masses)
                out[j1, j2] = tuple(x / total for x in masses)
    if spec.integer_mean and abs(m * m - big_m) <= match_tol:
        out[round(m),] = (1.0,)
    idx = np.array(list(itertools.combinations(range(d + 1), 3)))
    i, j, k = idx.T.astype(float)
    raw = np.column_stack((
        (j * k - (j + k) * m + big_m) / ((j - i) * (k - i)),
        -(i * k - (i + k) * m + big_m) / ((j - i) * (k - j)),
        (i * j - (i + j) * m + big_m) / ((k - i) * (k - j)),
    ))
    keep = (raw >= -zero_tol).all(axis=1)
    for row, masses in zip(idx[keep].tolist(), raw[keep].tolist()):
        support = tuple(s for s, x in zip(row, masses) if x > zero_tol)
        if support not in out:
            kept = [x for x in masses if x > zero_tol]
            total = math.fsum(kept)
            out[support] = tuple(x / total for x in kept)
    return sorted(out.items())


def exact_ray_supports(spec):
    """Support sets of a correlated class's rays, classified in exact
    rational arithmetic.

    The float targets ``d*p`` and ``M`` are taken as exact rationals
    over a common denominator ``q``. Each of the three masses of a
    triple has a positive denominator, so its sign is the sign of an
    integer numerator: a triple carries a ray when no numerator is
    negative, on the points whose numerator is positive.
    """
    m = Fraction(spec.mean_count)
    big_m = Fraction(spec.second_moment_target)
    q = math.lcm(m.denominator, big_m.denominator)
    a = m.numerator * (q // m.denominator)
    b = big_m.numerator * (q // big_m.denominator)
    supports = set()
    for i, j, k in itertools.combinations(range(spec.d + 1), 3):
        nums = (
            j * k * q - (j + k) * a + b,
            -(i * k * q - (i + k) * a + b),
            i * j * q - (i + j) * a + b,
        )
        if min(nums) >= 0:
            supports.add(tuple(s for s, x in zip((i, j, k), nums) if x > 0))
    return supports


def scan_vars(support, masses, alpha, tie_tol=1e-12):
    """Per-row lower quantile of padded ray rows at one level, from the
    compensated two-point cdf of the dense evaluation, all computed
    afresh for that level."""
    threshold = alpha - tie_tol
    m0, m1 = masses[:, 0], masses[:, 1]
    t = m0 + m1
    comp = np.where(
        np.abs(m0) >= np.abs(m1), (m0 - t) + m1, (m1 - t) + m0
    )
    cdf2 = t + comp
    return np.where(
        m0 >= threshold,
        support[:, 0],
        np.where(cdf2 >= threshold, support[:, 1], support[:, 2]),
    )


def _lexsort_smallest(rays, where):
    rows = np.flatnonzero(where)
    s = rays.support[rows]
    t = rows[np.lexsort((s[:, 2], s[:, 1], s[:, 0]))[0]]
    return tuple(rays.support[t, : rays.sizes[t]].tolist())


def tail_shortfalls(rays, values):
    """Per-row expected shortfall of padded ray rows whose quantiles are
    ``values``: the class mean where the quantile is the first point,
    the point itself where the tail holds one point of the ray, and
    otherwise the masked row sums' ratio.

    ``rays`` holds ``support``, ``masses`` and ``sizes`` arrays and a
    ``spec`` with the class mean.
    """
    tail = rays.support >= values[:, None]
    num = np.sum(rays.support * rays.masses * tail, axis=1)
    den = np.sum(rays.masses * tail, axis=1)
    points = np.sum(tail & (np.arange(3) < rays.sizes[:, None]), axis=1)
    return np.where(values == rays.support[:, 0], rays.spec.mean_count,
                    np.where(points == 1, values, num / den))


def per_level_fold(blocks, alphas, es=True, tie_tol=1e-12):
    """Reference for the streamed risk scan: every level redoes the
    quantiles, the tail mask and the masked row sums of every block, and
    ties go to a lexsort of the attaining rows.

    ``blocks`` hold ``support``, ``masses`` and ``sizes`` arrays and a
    ``spec`` with the class mean (:func:`tail_shortfalls`). Returns
    one ``[var_min, var_max, es_min, es_max, argmin, argmax]`` per level,
    with the ES entries infinite when ``es`` is false.
    """
    found = [[math.inf, -math.inf, math.inf, -math.inf, None, None]
             for _ in alphas]
    for rays in blocks:
        if not len(rays.support):
            continue
        for alpha, best in zip(alphas, found):
            values = scan_vars(rays.support, rays.masses, alpha, tie_tol)
            lo, hi = int(values.min()), int(values.max())
            if lo <= best[0]:
                arg = _lexsort_smallest(rays, values == lo)
                best[4] = arg if lo < best[0] else min(best[4], arg)
                best[0] = lo
            if hi >= best[1]:
                arg = _lexsort_smallest(rays, values == hi)
                best[5] = arg if hi > best[1] else min(best[5], arg)
                best[1] = hi
            if es:
                shortfall = tail_shortfalls(rays, values)
                best[2] = min(best[2], float(shortfall.min()))
                best[3] = max(best[3], float(shortfall.max()))
    return found


def exact_rays(d, m, big_m):
    """Every ray of the class on ``{0..d}``, ``d >= 2``, with mean count
    ``m`` and raw second moment ``big_m``, both :class:`Fraction`, as a
    dict from support to exact masses.

    Each mass of a triple is an integer numerator over a positive
    integer, as in :func:`exact_ray_supports`. A ray of fewer than three
    points solves every triple that holds its support, with zero mass on
    the other points, so the triples alone find every ray.
    """
    q = math.lcm(m.denominator, big_m.denominator)
    a, b = int(m * q), int(big_m * q)
    rays = {}
    for i, j, k in itertools.combinations(range(d + 1), 3):
        nums = (
            j * k * q - (j + k) * a + b,
            -(i * k * q - (i + k) * a + b),
            i * j * q - (i + j) * a + b,
        )
        if min(nums) >= 0:
            dens = (q * (j - i) * (k - i), q * (j - i) * (k - j),
                    q * (k - i) * (k - j))
            rays[tuple(s for s, x in zip((i, j, k), nums) if x > 0)] = tuple(
                Fraction(x, y) for x, y in zip(nums, dens) if x > 0)
    return rays


def adjacent_pair_family(support, d):
    """Whether a ray's support is one the VaR extrema of a correlated
    class are taken from: fewer than three points, two adjacent indices,
    or the ends 0 and d."""
    if len(support) < 3:
        return True
    i, j, k = support
    return j == i + 1 or k == j + 1 or (i == 0 and k == d)


def _exact_quantile_points(rays):
    """The levels of :func:`exact_var_extrema` for ``rays``, a dict from
    support to exact masses, and per ray and level the number of the
    ray's point that is its lower quantile there.

    The levels are each distinct cdf a ray takes below one, a level
    between each two neighbouring ones and one past each end, so every
    level in (0, 1) orders against every ray cdf as one of them does.
    A ray's quantile at a level is its first point whose cdf covers it.
    """
    cdfs = [list(itertools.accumulate(masses[:-1]))
            for masses in rays.values()]
    ties = sorted({c for cdf in cdfs for c in cdf})
    edges = [Fraction(0), *ties, Fraction(1)]
    levels = sorted([*ties, *((x + y) / 2 for x, y in zip(edges, edges[1:]))])
    rank = {level: t for t, level in enumerate(levels)}
    # A ray's quantile at level t is its point number n, for the n of its
    # cdfs below the level: those whose rank is below t.
    t = np.arange(len(levels))
    return levels, np.array([np.searchsorted([rank[c] for c in cdf], t)
                             for cdf in cdfs])


def exact_var_extrema(d, m, big_m):
    """Exact lower-quantile extrema over every ray of a class and over
    the rays :func:`adjacent_pair_family` admits, at every level in
    (0, 1) up to ties (:func:`_exact_quantile_points`).

    Returns the levels and, per level, ``(min, max)`` over all rays and
    over the family.
    """
    rays = exact_rays(d, m, big_m)
    levels, points = _exact_quantile_points(rays)
    values = np.array([np.array(support)[n]
                       for support, n in zip(rays, points)])
    chosen = values[[adjacent_pair_family(support, d) for support in rays]]
    return (levels, list(zip(values.min(0), values.max(0))),
            list(zip(chosen.min(0), chosen.max(0))))


def exact_es_extrema(d, m, big_m):
    """Exact expected-shortfall extrema over every ray of a class at the
    levels of :func:`exact_var_extrema`, in rational arithmetic.

    A ray's ES at a level is the mass-weighted mean of its points at or
    above its quantile there. Returns the levels and, per level,
    ``(min, max)`` as :class:`Fraction`.
    """
    rays = exact_rays(d, m, big_m)
    levels, points = _exact_quantile_points(rays)
    shortfalls = [[sum(s * x for s, x in zip(support[n:], masses[n:]))
                   / sum(masses[n:]) for n in range(len(support))]
                  for support, masses in rays.items()]
    # Extrema over ranks of the distinct shortfalls, not over Fractions.
    distinct = sorted({es for row in shortfalls for es in row})
    rank = {es: r for r, es in enumerate(distinct)}
    ranks = np.array([[rank[es] for es in row] + [0] * (3 - len(row))
                      for row in shortfalls])
    values = np.take_along_axis(ranks, points, axis=1)
    return levels, [(distinct[lo], distinct[hi])
                    for lo, hi in zip(values.min(0), values.max(0))]
