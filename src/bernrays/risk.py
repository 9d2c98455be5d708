"""Sharp risk bounds on the default count over an admissible class.

Value-at-risk extrema over a class are attained on its extremal rays,
so a scan over the enumeration is exact. For the mean-constrained class
the scan collapses to a closed form in (d, p, alpha). Expected-shortfall
scans report the extrema over rays; the proved class-wide envelope
[min VaR, d] is exposed separately because the two differ in meaning:
ray extrema reproduce the bundled reference tables, the envelope is the bound
established for every class member.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence, Union

import numpy as np

from .errors import EmptyRaySet
from .pmf import CDF_TIE_TOL, ClassSpec, _check_open_unit
from .rays_corr import enumerate_rays as enumerate_corr_rays
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


def _scan_vars(
    support: np.ndarray, masses: np.ndarray, alpha: float
) -> np.ndarray:
    """Per-ray lower quantile, replicating the compensated cdf of the
    dense evaluation so scan and pointwise var never disagree."""
    threshold = alpha - CDF_TIE_TOL
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


def _lex_smallest(rays: RaySet, where: np.ndarray) -> tuple[int, ...]:
    """The lexicographically smallest support among the rows ``where``
    selects."""
    rows = np.flatnonzero(where)
    s = rays.support[rows]
    t = rows[np.lexsort((s[:, 2], s[:, 1], s[:, 0]))[0]]
    return tuple(rays.support[t, : rays.sizes[t]].tolist())


def _scan(
    rays: Sequence[RayDensity], alpha: float
) -> tuple[float, RaySet, np.ndarray]:
    """The checked level, the rays as a set and each ray's VaR."""
    alpha = _check_open_unit(alpha, "alpha")
    if len(rays) == 0:
        raise EmptyRaySet("risk scan over an empty ray collection")
    rays = RaySet.of(rays)
    return alpha, rays, _scan_vars(rays.support, rays.masses, alpha)


def _extrema(
    alpha: float, rays: RaySet, values: np.ndarray, es: np.ndarray | None
) -> RiskBounds:
    lo = int(values.min())
    hi = int(values.max())
    return RiskBounds(
        alpha=alpha,
        var_min=lo,
        var_max=hi,
        es_min=None if es is None else float(es.min()),
        es_max=None if es is None else float(es.max()),
        argmin_ray=_lex_smallest(rays, values == lo),
        argmax_ray=_lex_smallest(rays, values == hi),
    )


def var_bounds_scan(rays: Sequence[RayDensity], alpha: float) -> RiskBounds:
    """Exact VaR extrema over ``rays``.

    Ties among attaining rays resolve to the lexicographically smallest
    support, independent of the input order.
    """
    return _extrema(*_scan(rays, alpha), None)


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
    alpha, rays, values = _scan(rays, alpha)
    tail = rays.support >= values[:, None]
    num = np.sum(rays.support * rays.masses * tail, axis=1)
    den = np.sum(rays.masses * tail, axis=1)
    return _extrema(alpha, rays, values, num / den)


def es_envelope(
    source: Union[ClassSpec, Sequence[RayDensity]], alpha: float
) -> EsEnvelope:
    """Proved class-wide expected-shortfall envelope ``[min VaR, d]``.

    ``source`` is either a ClassSpec (mean-only specs use the closed
    form; correlation specs enumerate their rays) or an already
    enumerated ray sequence. The upper bound ``d`` is attained exactly
    when the source's VaR maximum is ``d``: a member's ES is ``d`` exactly
    when its VaR is, and ``P(S = d)`` is linear in the pmf.
    """
    alpha = _check_open_unit(alpha, "alpha")
    if isinstance(source, ClassSpec) and source.rho is None:
        spec = source
        var_min, var_max = var_bounds_mean_closed_form(spec, alpha)
    else:
        if isinstance(source, ClassSpec):
            source = enumerate_corr_rays(source)
        _, rays, values = _scan(source, alpha)
        spec, var_min, var_max = rays.spec, values.min(), values.max()
    return EsEnvelope(float(var_min), float(spec.d), bool(var_max == spec.d))
