"""Extremal rays of the default-count class with a fixed mean.

The admissible pmfs on ``{0, ..., d}`` with mean ``d*p`` form a convex
polytope whose extreme points all have at most two support points: one
strictly below the mean and one strictly above, with masses fixed by the
mean constraint, plus the degenerate point mass when ``d*p`` is itself
an integer. This module enumerates those rays, decomposes any admissible
pmf into a convex combination of them, and names the rays attaining the
cross-moment bounds, whose values ``spec`` gives in closed form. It also
holds :class:`RaySet` and :class:`RayDensity`, the ray types of both
classes: each carries the :class:`ClassSpec` its rays are extremal for,
and one validator checks the rows of either class against it.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import pmf as pmf_mod
from . import spec as spec_mod
from .errors import (
    ClassTooLarge,
    EmptyRaySet,
    IndexOutOfRange,
    InvalidSpec,
    LengthMismatch,
    MeanMismatch,
    NonIntegerMean,
    NotNormalized,
)
from .pmf import DefaultCountPmf
from .spec import ClassSpec

# Most index triples one correlated enumeration may examine, and most
# two-point rays a mean-class enumeration may build. By tracemalloc peak
# a candidate holds about 89 bytes of working arrays and a mean-class
# ray about 104 (2,081,837 candidates of (400, 0.266, 1/6): 175 MiB;
# 6,929,716 of (600, 0.266, 1/6): 589 MiB; 1,000,001 rays of
# (2000, 0.5): 99 MiB), so at the cap either enumeration peaks near
# 0.8 GiB.
MAX_CANDIDATES = 2**23

# The one block size of the library: about this many outer pairs in a
# chunk of the correlated sweep, and triples solved at once
# (rays_corr._parts), so a block's arrays take a few MiB. Every user
# reads it here, as rays_mean._BLOCK_ROWS.
_BLOCK_ROWS = 2**14

# Ray checks shared by RayDensity and RaySet: the masses sum to one
# within _SUM_TOL, the mean is within _MEAN_SCALE * d of d*p, but at
# least INTEGER_MEAN_TOL, the slack of a snapped integer mean, and, for
# the correlated class, the raw second moment is within
# pmf.SECOND_MOMENT_RESIDUAL_SCALE * d**2 of its target.
_SUM_TOL = 1e-12
_MEAN_SCALE = 1e-10


@dataclass(frozen=True)
class RayDensity:
    """An extremal pmf of an admissible class, stored sparsely.

    Parameters
    ----------
    spec : ClassSpec
        The class the ray is extremal for; support indices live in
        ``{0, ..., spec.d}``.
    support : tuple of int
        One to three strictly increasing indices.
    masses : tuple of float
        Positive masses aligned with ``support``, summing to one.
    """

    spec: ClassSpec
    support: tuple[int, ...]
    masses: tuple[float, ...]

    def __post_init__(self):
        sup = tuple(int(s) for s in self.support)
        mas = tuple(float(m) for m in self.masses)
        object.__setattr__(self, "support", sup)
        object.__setattr__(self, "masses", mas)
        if len(sup) != len(mas):
            raise LengthMismatch(
                f"{len(sup)} support points vs {len(mas)} masses"
            )
        if not 1 <= len(sup) <= 3:
            raise IndexOutOfRange(
                f"a ray carries 1 to 3 support points, got {len(sup)}"
            )
        support, masses = (np.array([row]) for row in _padded(sup, mas))
        _check_rows(self.spec, support, masses, len(sup))

    @classmethod
    def _trusted(cls, *fields) -> "RayDensity":
        """A ray from a row that has passed :func:`_check_rows` already."""
        ray = object.__new__(cls)
        ray.__dict__.update(zip(cls.__dataclass_fields__, fields))
        return ray

    def to_pmf(self) -> DefaultCountPmf:
        """Densify into a full default-count pmf."""
        probs = np.zeros(self.spec.d + 1)
        for s, m in zip(self.support, self.masses):
            probs[s] = m
        return DefaultCountPmf(self.spec.d, probs)


def _padded(support: tuple, masses: tuple) -> tuple[tuple, tuple]:
    """A ray's support and masses as one row of three columns."""
    pad = 3 - len(support)
    return support + support[-1:] * pad, masses + (0.0,) * pad


def _check_rows(
    spec: ClassSpec, support: np.ndarray, masses: np.ndarray,
    count: int | None = None,
) -> np.ndarray:
    """Check padded rows at once; return the point count of each row.

    A later column that repeats its predecessor with zero mass is
    padding, which must be trailing; a ray's own row gives its ``count``
    instead. The checks run in order (range, order, positivity, sum,
    mean, second moment): a bad row raises the class of its first fail.
    Each check runs a column at a time.
    """
    if support.shape != masses.shape:
        raise LengthMismatch(
            f"support shape {support.shape} vs masses shape {masses.shape}"
        )
    if support.ndim != 2 or support.shape[1] != 3:
        raise IndexOutOfRange(
            f"a ray carries 1 to 3 support points, got rows of shape "
            f"{support.shape[1:]}"
        )
    # Whether columns 1 and 2 hold a point of the ray; column 0 always does.
    s0, s1, s2 = support.T
    x0, x1, x2 = masses.T
    if count is None:
        live1 = (s1 != s0) | (x1 != 0.0)
        live2 = (s2 != s1) | (x2 != 0.0)
    else:
        live1, live2 = (np.full(len(support), c < count) for c in (1, 2))
    sizes = np.add(live1, live2, dtype=np.int64)
    sizes += 1

    def fail(error, bad, what):
        t = int(np.flatnonzero(bad)[0])
        k = int(sizes[t])
        raise error(
            f"ray {t} (support {tuple(support[t, :k].tolist())}, masses "
            f"{tuple(masses[t, :k].tolist())}) {what}"
        )

    d = spec.d
    bad = (s0 < 0) | (s2 > d)
    if bad.any():
        fail(IndexOutOfRange, bad, f"escapes 0..{d}")
    bad = (live1 & (s1 <= s0)) | (live2 & ((s2 <= s1) | ~live1))
    if bad.any():
        fail(IndexOutOfRange, bad, "is not strictly increasing")
    bad = ~(x0 > 0.0) | (live1 & ~(x1 > 0.0)) | (live2 & ~(x2 > 0.0))
    if bad.any():
        fail(NotNormalized, bad, "has a non-positive mass")
    # Each sum adds a row's terms left to right, as sum(1) does.
    bad = np.abs(x0 + x1 + x2 - 1.0) > _SUM_TOL
    if bad.any():
        fail(NotNormalized, bad, "has masses that do not sum to 1")
    mean = spec.mean_count
    tol = max(_MEAN_SCALE * d, spec_mod.INTEGER_MEAN_TOL)
    bad = np.abs(s0 * x0 + s1 * x1 + s2 * x2 - mean) > tol
    if bad.any():
        fail(MeanMismatch, bad, f"misses the mean {mean}")
    target = spec.second_moment_target
    if target is not None:
        second = (np.square(s0, dtype=float) * x0
                  + np.square(s1, dtype=float) * x1
                  + np.square(s2, dtype=float) * x2)
        tol = pmf_mod.SECOND_MOMENT_RESIDUAL_SCALE * d**2
        bad = np.abs(second - target) > tol
        if bad.any():
            fail(MeanMismatch, bad, f"misses the second moment {target}")
    return sizes


class RaySet(Sequence):
    """The extremal rays of one class, held as arrays.

    ``support`` is an ``(n, 3)`` int64 array and ``masses`` an
    ``(n, 3)`` float64 array; a ray with fewer than three points repeats
    its last point with zero mass, and ``sizes`` holds each ray's point
    count, and ``spec`` the class every ray is extremal for. Every row
    passes the ray checks against ``spec``, which :class:`RayDensity`
    shares, once on construction, and the arrays are read-only: the
    constructor copies what it is given, so a caller's arrays are never
    frozen, while the sets the library builds take over their freshly
    built arrays (:meth:`_owning`). The set is a
    ``Sequence[RayDensity]``: indexing and iteration build rays on
    demand from their rows without checking them again, and slicing
    gives a RaySet.
    """

    def __init__(self, spec: ClassSpec, support, masses):
        self._own(spec, np.array(support, dtype=np.int64),
                  np.array(masses, dtype=np.float64))

    @classmethod
    def _owning(cls, spec: ClassSpec, support: np.ndarray,
                masses: np.ndarray) -> "RaySet":
        """A set that takes over int64 ``support`` and float64 ``masses``
        arrays the library has just built and holds nowhere else: they
        are checked and frozen, not copied."""
        rays = cls.__new__(cls)
        rays._own(spec, support, masses)
        return rays

    def _own(self, spec: ClassSpec, support: np.ndarray,
             masses: np.ndarray) -> None:
        sizes = _check_rows(spec, support, masses)
        for array in (support, masses, sizes):
            array.setflags(write=False)
        self.spec = spec
        self.d = spec.d
        self.support = support
        self.masses = masses
        self.sizes = sizes

    @classmethod
    def of(cls, rays: Sequence[RayDensity]) -> "RaySet":
        """``rays`` itself if it is a RaySet, else its rays packed once.

        A plain sequence must be non-empty and hold rays of one class.
        """
        if isinstance(rays, RaySet):
            return rays
        if len(rays) == 0:
            raise EmptyRaySet("no rays to pack")
        spec = rays[0].spec
        if any(ray.spec != spec for ray in rays):
            raise InvalidSpec("rays mix different classes")
        support, masses = zip(*(_padded(ray.support, ray.masses)
                                 for ray in rays))
        return cls(spec, support, masses)

    def __len__(self) -> int:
        return len(self.support)

    def __iter__(self):
        rows = zip(self.support.tolist(), self.masses.tolist(),
                   self.sizes.tolist())
        for support, masses, k in rows:
            yield RayDensity._trusted(
                self.spec, tuple(support[:k]), tuple(masses[:k])
            )

    def __getitem__(self, index):
        if isinstance(index, slice):
            return RaySet(self.spec, self.support[index], self.masses[index])
        t = operator.index(index)
        k = self.sizes[t]
        return RayDensity._trusted(
            self.spec,
            tuple(self.support[t, :k].tolist()),
            tuple(self.masses[t, :k].tolist()),
        )

    def __repr__(self) -> str:
        return f"RaySet(spec={self.spec!r}, n={len(self)})"


class MomentBounds(NamedTuple):
    """Sharp range of a cross moment over a class, with attaining rays."""

    lower: float
    upper: float
    argmin: RayDensity
    argmax: RayDensity


def _mean_rows(
    spec: ClassSpec, j1, j2, point: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Padded support and mass rows of the two-point rays on ``(j1, j2)``,
    then of the point ray at the integer mean if ``point``."""
    j1, j2 = np.asarray(j1, np.int64), np.asarray(j2, np.int64)
    low, high = spec_mod._two_point_masses(spec.mean_count, j1, j2)
    support = np.column_stack((j1, j2, j2))
    masses = np.column_stack((low, high, np.zeros(len(j1))))
    if point:
        k = int(round(spec.mean_count))
        support = np.vstack((support, [k, k, k]))
        masses = np.vstack((masses, [1.0, 0.0, 0.0]))
    return support, masses


def _mean_rays(spec: ClassSpec, j1, j2, point: bool = False) -> RaySet:
    """The rows of :func:`_mean_rows` as a ray set of the mean class
    ``(spec.d, spec.p)``, whatever correlation ``spec`` names."""
    rows = _mean_rows(spec, j1, j2, point)
    return RaySet._owning(ClassSpec(spec.d, spec.p), *rows)


def two_point_ray(spec: ClassSpec, j1: int, j2: int) -> RayDensity:
    """Extremal ray supported on ``{j1, j2}`` straddling the mean.

    Masses are ``(j2 - pd)/(j2 - j1)`` at ``j1`` and
    ``(pd - j1)/(j2 - j1)`` at ``j2``; both are positive exactly when
    ``j1 < pd < j2``.
    """
    j1, j2 = int(j1), int(j2)
    if not 0 <= j1 <= spec.max_lower_index:
        raise IndexOutOfRange(
            f"j1 must lie in 0..{spec.max_lower_index}, got {j1}"
        )
    if not spec.min_upper_index <= j2 <= spec.d:
        raise IndexOutOfRange(
            f"j2 must lie in {spec.min_upper_index}..{spec.d}, got {j2}"
        )
    return _mean_rays(spec, [j1], [j2])[0]


def point_ray(spec: ClassSpec) -> RayDensity:
    """Point mass at the integer mean count."""
    if not spec.integer_mean:
        raise NonIntegerMean(
            f"mean count {spec.mean_count} is not an integer"
        )
    return _mean_rays(spec, [], [], point=True)[0]


def enumerate_rays(spec: ClassSpec) -> RaySet:
    """All extremal rays of the mean-constrained class.

    Two-point rays in lexicographic ``(j1, j2)`` order, the point ray
    (present iff ``d*p`` is an integer) last. The count is
    ``(j1M + 1) * (d - j2m + 1)`` plus one for the point ray, where
    ``j1M``/``j2m`` are the extreme support indices adjacent to the mean.
    A class with more two-point rays than ``MAX_CANDIDATES`` raises
    :class:`ClassTooLarge` before any array is built, and a class with
    none builds no index array.
    """
    spec_mod._require_mean_only(spec, "enumerate_rays")
    count = (spec.max_lower_index + 1) * (spec.d - spec.min_upper_index + 1)
    if count > MAX_CANDIDATES:
        raise ClassTooLarge(
            f"class (d={spec.d}, p={spec.p:g}) has {count} two-point rays, "
            f"more than {MAX_CANDIDATES}"
        )
    lower = upper = np.arange(0)
    if count:
        lower = np.arange(spec.max_lower_index + 1)
        upper = np.arange(spec.min_upper_index, spec.d + 1)
    return _mean_rays(spec, np.repeat(lower, len(upper)),
                      np.tile(upper, len(lower)), point=spec.integer_mean)


def decompose(
    pmf: DefaultCountPmf, spec: ClassSpec
) -> list[tuple[RayDensity, float]]:
    """Write an admissible pmf as a convex combination of extremal rays.

    A two-point ray on ``(j1, j2)`` takes equal deviation mass
    ``r_j * |j - d*p|`` from both sides of the mean. The point-ray mass
    is peeled first when the mean is an integer. Then each side's
    deviation masses are summed nearest the mean first (lower indices
    descending, upper ascending), and ``[0, min(total_low,
    total_high)]`` is cut at both sides' breakpoints. Each segment is
    one term: it pairs the two indices whose masses cover it, with
    weight ``width * (j2 - j1) / ((j2 - d*p) * (d*p - j1))``. So the
    indices next to the mean pair first, and the pmf mirrored by
    ``j -> d - j`` gives the mirrored terms of the class ``(d, 1 - p)``
    wherever both means are exact. Each segment ends at a breakpoint of
    a distinct index, so at most ``d + 1`` terms are produced; where
    two breakpoints agree in exact arithmetic but not in floats, a
    term's weight is at rounding level. The terms are checked once, as
    one :class:`RaySet`.

    Parameters
    ----------
    pmf : DefaultCountPmf
        Must have mean ``d*p`` within ``1e-9 * d``.
    spec : ClassSpec
        Mean-only class specification.

    Returns
    -------
    list of (RayDensity, float)
        Weights are positive and sum to one; mixing the rays with these
        weights reconstructs ``pmf`` entry by entry.
    """
    spec_mod._require_mean_only(spec, "decompose")
    if pmf.d != spec.d:
        raise LengthMismatch(f"pmf has d={pmf.d}, spec has d={spec.d}")
    got = pmf_mod.mean(pmf)
    mean = spec.mean_count
    if abs(got - mean) > pmf_mod.MEAN_RESIDUAL_SCALE * spec.d:
        raise MeanMismatch(
            f"pmf mean {got} differs from class mean {mean}"
        )
    probs = pmf.probs
    k = round(mean)
    peeled = [float(probs[k])] if spec.integer_mean and probs[k] > 0.0 else []
    lower = np.arange(spec.max_lower_index, -1, -1)
    upper = np.arange(spec.min_upper_index, spec.d + 1)
    # Each side's deviation mass, summed from 0 nearest the mean first.
    low = np.cumsum(np.append(0.0, probs[lower] * (mean - lower)))
    high = np.cumsum(np.append(0.0, probs[upper] * (upper - mean)))
    cuts = np.union1d(low, high)
    cuts = cuts[cuts <= min(low[-1], high[-1])]
    starts, widths = cuts[:-1], np.diff(cuts)
    j1 = lower[np.searchsorted(low, starts, "right") - 1]
    j2 = upper[np.searchsorted(high, starts, "right") - 1]
    weights = widths * (j2 - j1) / ((j2 - mean) * (mean - j1))
    rays = list(_mean_rays(spec, j1, j2, point=bool(peeled)))
    # The point ray is the last row and the first term.
    return list(zip(rays[-1:] + rays[:-1] if peeled else rays,
                    peeled + weights.tolist()))


def moment_bounds(spec: ClassSpec, order: int) -> MomentBounds:
    """Sharp bounds on the order-``order`` cross moment over the class.

    No order enumerates the class. A ray's cross moment is the chord of
    ``(s)_order / (d)_order`` at the mean; that ratio is zero below
    ``order`` and discretely convex, so the ray on ``{0, d}`` attains
    the maximum and the ray hugging the mean (the point ray at an
    integer mean) the minimum. When the ratio vanishes at ``j2m``, the
    minimum is zero and ``(0, j2m)`` is its lexicographically first ray.
    The values come from the numpy-free ``spec`` module. Any correlation
    target on ``spec`` is ignored: the bounds describe the
    mean-constrained class.
    """
    lower, upper, floor = spec_mod._moment_range(spec, order)
    # Row 0 spans {0, d}; row 1 is the lowest chord at the mean.
    point = len(floor) == 1
    rays = _mean_rays(spec, [0, *floor[:-1]], [spec.d, *floor[1:]], point)
    return MomentBounds(lower, upper, rays[0 if order == 1 else 1], rays[0])


# The mean class's correlation range, defined without numpy, is found
# here too.
correlation_bounds = spec_mod.correlation_bounds
