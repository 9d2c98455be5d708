"""The class descriptor and the mean class's closed forms, without numpy.

The extremal points of the class with a fixed mean are two-point laws
(and the point mass at an integer mean), so its moment, correlation and
VaR/ES extrema are scalar closed forms in (d, p, alpha), computed here
in float arithmetic with the bits of a scan over the rays. Only the
standard library is imported, so a mean class's ``bounds`` and
``moments`` start without numpy.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral

from .errors import InvalidSpec, OrderOutOfRange

# A cdf value within this distance below alpha still covers the quantile.
# Two-point extremal densities routinely put mass exactly alpha at their
# lower support point, so quantile ties must resolve downward.
CDF_TIE_TOL = 1e-12

# d*p within this distance of an integer is treated as an integer mean.
INTEGER_MEAN_TOL = 1e-9


def _check_d(d) -> int:
    # Integral holds numpy's integer types too.
    if not isinstance(d, Integral) or d < 1:
        raise InvalidSpec(f"d must be a positive integer, got {d}")
    # Support indices are int64 throughout.
    if d > 2**63 - 1:
        raise InvalidSpec(f"d must be at most 2**63 - 1, got {d}")
    return int(d)


def _check_open_unit(x, name: str) -> float:
    """``x`` as a float strictly inside (0, 1); NaN and infinities fail
    the comparison too."""
    x = float(x)
    if not 0.0 < x < 1.0:
        raise InvalidSpec(f"{name} must lie strictly inside (0, 1), got {x}")
    return x


@dataclass(frozen=True)
class ClassSpec:
    """Specification of a class of exchangeable Bernoulli laws.

    ``ClassSpec(d, p)`` fixes only the marginal default probability;
    ``ClassSpec(d, p, rho)`` additionally fixes the pairwise
    equicorrelation. Derived quantities used throughout the ray
    machinery are exposed as read-only properties.
    """

    d: int
    p: float
    rho: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "d", _check_d(self.d))
        object.__setattr__(self, "p", _check_open_unit(self.p, "p"))
        if self.rho is not None:
            rho = float(self.rho)
            if not -1.0 < rho <= 1.0:
                raise InvalidSpec(f"rho must lie in (-1, 1], got {rho}")
            if self.d < 2:
                raise InvalidSpec("a correlation target requires d >= 2")
            object.__setattr__(self, "rho", rho)

    @property
    def mean_count(self) -> float:
        """Target mean of the default count, ``d * p``."""
        return self.d * self.p

    @property
    def integer_mean(self) -> bool:
        """Whether ``d * p`` is an integer within ``1e-9``."""
        pd = self.mean_count
        return abs(pd - round(pd)) <= INTEGER_MEAN_TOL

    @property
    def max_lower_index(self) -> int:
        """Largest support index strictly below the mean count."""
        pd = self.mean_count
        if self.integer_mean:
            return int(round(pd)) - 1
        return int(math.floor(pd))

    @property
    def min_upper_index(self) -> int:
        """Smallest support index strictly above the mean count."""
        return self.max_lower_index + 1 + self.integer_mean

    @property
    def pair_moment_target(self) -> float | None:
        """Target second cross moment ``E[X_i X_j]``, or None."""
        if self.rho is None:
            return None
        return self.rho * self.p * (1.0 - self.p) + self.p * self.p

    @property
    def second_moment_target(self) -> float | None:
        """Target raw second moment of the count, or None.

        Equals ``d*p + d*(d-1) * pair_moment_target``; the count-level
        counterpart of the pair moment.
        """
        mu2 = self.pair_moment_target
        if mu2 is None:
            return None
        return self.mean_count + self.d * (self.d - 1) * mu2


def _require_mean_only(spec: ClassSpec, op: str) -> None:
    if spec.rho is not None:
        raise InvalidSpec(
            f"{op} applies to the mean-constrained class; "
            "got a spec with a correlation target"
        )


def _two_point_masses(pd: float, j1, j2):
    """Masses at ``j1`` and ``j2`` of the two-point rays on ``(j1, j2)``,
    for scalar or array indices alike."""
    gap = j2 - j1
    low = (j2 - pd) / gap
    high = (pd - j1) / gap
    total = low + high
    return low / total, high / total


def _falling_ratio(s, d: int, order: int):
    """``(s)_order / (d)_order`` of a float ``s``, or of each entry of a
    float array.

    The ratio is a product of per-step ratios ``(s-t)/(d-t)``, each in
    ``[0, 1]``, so no overflow is possible at any ``d``. It is zero for
    ``s < order``, where adding ``0.0`` clears the sign the factors after
    the zero one may give it.
    """
    out = 1.0
    for t in range(order):
        out = out * ((s - t) / (d - t))
    return out + 0.0


def _moment_range(spec: ClassSpec, order: int):
    """``(lower, upper, floor)`` of :func:`rays_mean.moment_bounds`:
    its values, and ``floor``, the support of its ``argmin`` other than
    at order 1. Above order 2 the upper value is the mass at ``d`` of the
    ray on ``{0, d}``, and a two-point ray's moment is ``r1*high +
    r0*low`` for the falling ratios ``r`` of its points, rounded once
    after the second product (a fused multiply-add, exact in
    ``Fraction``)."""
    if not 1 <= order <= spec.d:
        raise OrderOutOfRange(f"order must lie in 1..{spec.d}, got {order}")
    j2 = spec.min_upper_index
    if j2 < order:
        floor = 0, j2
    elif spec.integer_mean:
        floor = (j2 - 1,)
    else:
        floor = spec.max_lower_index, j2
    if order <= 2:
        lower = spec.p if order == 1 else _pair_moment_floor(spec)
        return lower, spec.p, floor
    ratios = [_falling_ratio(float(j), spec.d, order) for j in floor]
    lower = ratios[0]
    if len(floor) == 2:
        low, high = _two_point_masses(spec.mean_count, *floor)
        lower = float(Fraction(ratios[1]) * Fraction(high)
                      + Fraction(ratios[0] * low))
    return lower, _two_point_masses(spec.mean_count, 0, spec.d)[1], floor


def _pair_moment_floor(spec: ClassSpec) -> float:
    """The least order-2 cross moment over the class, in closed form:
    that of the point ray at an integer mean, else of the ray on
    ``(j1M, j1M + 1)``. ``spec.d`` is at least 2."""
    d, pd = spec.d, spec.mean_count
    if spec.integer_mean:
        return spec.p * (pd - 1.0) / (d - 1.0)
    j = spec.max_lower_index
    return (-j * (j + 1.0) + 2.0 * j * pd) / (d * (d - 1.0))


def correlation_bounds(spec: ClassSpec) -> tuple[float, float]:
    """Sharp correlation range of the mean-constrained class.

    The maximum is 1 (comonotonic margins are always admissible); the
    minimum maps the order-2 moment minimum through
    ``rho = (mu2 - p^2) / (p(1-p))``. A pair of names needs ``d >= 2``.
    """
    if spec.d < 2:
        raise InvalidSpec("a correlation range requires d >= 2")
    rho_min = _pair_correlation(_pair_moment_floor(spec), spec.p)
    return max(-1.0, rho_min), 1.0


def _pair_correlation(mu2: float, p: float) -> float:
    """The correlation of two names with pair moment ``mu2`` and
    marginal ``p``, ``(mu2 - p^2) / (p(1-p))``."""
    return (mu2 - p * p) / (p * (1.0 - p))


def var_bounds_mean_closed_form(
    spec: ClassSpec, alpha: float
) -> tuple[int, int]:
    """Closed-form VaR extrema over the mean-constrained class, those of
    a scan over its rays.

    A two-point ray ``(j1, j2)`` has VaR ``j1`` where its cdf at ``j1``,
    ``(j2 - pd)/(j2 - j1)``, covers the level, else ``j2``; that cdf
    rises with either index. So the minimum is the first ``j1`` whose
    ray to ``d`` covers the level, near ``d - (d - pd)/alpha``, or
    ``j1M + 1`` (the integer mean, if any) where none does; the maximum
    is the last ``j2`` whose ray from 0 does not, near
    ``pd/(1 - alpha)``, or ``j2m - 1`` where all do. A mean that rounds to
    0 or ``d`` leaves the point ray alone. Each crossing is settled on
    the rays next to its estimate by the scan's own test, a float mass
    against ``alpha - CDF_TIE_TOL``, so ties resolve as in the scan.
    """
    _require_mean_only(spec, "var_bounds_mean_closed_form")
    alpha = _check_open_unit(alpha, "alpha")
    d, pd = spec.d, spec.mean_count
    lower, upper = spec.max_lower_index, spec.min_upper_index
    if lower < 0 or upper > d:
        return lower + 1, lower + 1
    threshold = alpha - CDF_TIE_TOL

    def covers(j1, j2):
        return _two_point_masses(pd, j1, j2)[0] >= threshold

    start = d - (d - pd) / threshold if threshold > 0 else 0.0
    var_min = min(math.ceil(max(start, 0.0)), lower + 1)
    while var_min > 0 and covers(var_min - 1, d):
        var_min -= 1
    while var_min <= lower and not covers(var_min, d):
        var_min += 1
    var_max = min(max(math.ceil(pd / (1.0 - threshold)), upper), d + 1) - 1
    while var_max < d and not covers(0, var_max + 1):
        var_max += 1
    while var_max >= upper and covers(0, var_max):
        var_max -= 1
    return var_min, var_max


def _mean_extrema(
    spec: ClassSpec, alphas: Sequence[float]
) -> list[tuple[int, int, float, float]]:
    """``(var_min, var_max, es_min, es_max)`` of the mean class per
    level, the values of ``risk._fold`` over its rays in closed form. A
    ray's ES is the mean where its VaR is below ``j2m``, the least index
    above the mean (a two-point ray's lower point, or the point ray),
    and its VaR elsewhere. The test is on indices: the float mean can
    fall an ulp short of the point ray."""
    upper, mean = spec.min_upper_index, spec.mean_count
    return [(lo, hi, mean if lo < upper else float(lo),
             float(hi) if hi >= upper else mean)
            for lo, hi in (var_bounds_mean_closed_form(spec, alpha)
                           for alpha in alphas)]
