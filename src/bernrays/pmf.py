"""Core types and operations for exchangeable default-count models.

Two equivalent representations are supported: the pmf of the default
count on ``{0, ..., d}``, and the per-level weight vector of the
underlying exchangeable Bernoulli joint law. The bijection between them
is binomial reweighting, evaluated with log-gamma differences so that
dimensions in the thousands neither overflow nor lose the small masses;
one function reweights in either direction, and both forms share one
validator, the level weights checked through their reweighted total.

The tolerances of pmfs and their membership checks live here, but for
``CDF_TIE_TOL``, which the quantile shares with the mean class's closed
forms in ``spec``; the ray modules and ``risk`` define their own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spec as spec_mod
from .errors import (
    DegenerateMarginal,
    EmptyTail,
    LengthMismatch,
    NegativeMass,
    NotNormalized,
    OrderOutOfRange,
    Overflow,
)
from .spec import CDF_TIE_TOL, _check_d, _check_open_unit, _falling_ratio

# The class descriptor, defined without numpy, is found here too.
ClassSpec = spec_mod.ClassSpec

# Entries may dip this far below zero before they count as negative mass;
# anything in [-NEG_MASS_TOL, 0) is clamped to exact zero on construction.
NEG_MASS_TOL = 1e-12

# Probability vectors must total one within this absolute tolerance.
NORM_TOL = 1e-10

# Residual tolerances for membership checks, scaled by d and d**2.
MEAN_RESIDUAL_SCALE = 1e-9
SECOND_MOMENT_RESIDUAL_SCALE = 1e-9


def _clean_probs(values, d: int, levels: bool = False) -> np.ndarray:
    """The ``d + 1`` probabilities of a count pmf, or with ``levels`` the
    level weights of a law, checked and read-only.

    Entries must be finite and at least ``-NEG_MASS_TOL``; those below
    zero become zero. The probabilities, or the level weights times
    ``binom(d, j)``, must total one within ``NORM_TOL``.
    """
    what = "level weights" if levels else "probabilities"
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.shape[0] != d + 1:
        raise LengthMismatch(
            f"expected {d + 1} {what} for d={d}, got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise Overflow(f"{what} must be finite")
    low = float(arr.min(initial=0.0))
    if low < -NEG_MASS_TOL:
        raise NegativeMass(f"mass {low} below -{NEG_MASS_TOL}")
    arr = np.where(arr < 0.0, 0.0, arr)
    total = math.fsum((_reweighted(d, arr, 1) if levels else arr).tolist())
    if abs(total - 1.0) > NORM_TOL:
        raise NotNormalized(f"{what} sum to {total}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class DefaultCountPmf:
    """Pmf of the number of defaults among ``d`` exchangeable names.

    Parameters
    ----------
    d : int
        Number of names; the support is ``{0, ..., d}``.
    probs : array_like
        ``d + 1`` probabilities. Entries in ``[-1e-12, 0)`` are clamped
        to zero; the vector must sum to one within ``1e-10``.
    """

    d: int
    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "d", _check_d(self.d))
        object.__setattr__(self, "probs", _clean_probs(self.probs, self.d))


@dataclass(frozen=True)
class ExchangeablePmfSummary:
    """Level weights of an exchangeable Bernoulli joint law.

    ``f[j]`` is the probability of any single outcome with exactly ``j``
    ones; the ``binom(d, j)`` outcomes at level ``j`` share it, so the
    weights must satisfy ``sum_j binom(d, j) * f[j] == 1``.
    """

    d: int
    f: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "d", _check_d(self.d))
        object.__setattr__(self, "f", _clean_probs(self.f, self.d, True))


def log_binomial(d: int) -> np.ndarray:
    """Vector of ``log binom(d, j)`` for ``j = 0..d`` via log-gamma."""
    log_factorial = np.array([math.lgamma(k + 1.0) for k in range(d + 1)])
    return log_factorial[d] - log_factorial - log_factorial[::-1]


def _reweighted(d: int, x: np.ndarray, power: int) -> np.ndarray:
    """Terms ``binom(d, j)**power * x[j]`` for ``power`` of 1 or -1,
    as ``exp(log x + power * log binom)``, so the binomial factor never
    materialises; zero entries stay exactly zero. An overflowing term
    raises :class:`Overflow` rather than warning."""
    out = np.zeros(d + 1)
    pos = x > 0.0
    if np.any(pos):
        with np.errstate(over="ignore"):
            out[pos] = np.exp(np.log(x[pos]) + power * log_binomial(d)[pos])
    if not np.all(np.isfinite(out)):
        raise Overflow("binomial reweighting overflowed")
    return out


def to_count_pmf(summary: ExchangeablePmfSummary) -> DefaultCountPmf:
    """Map level weights to the default-count pmf,
    ``probs[j] = binom(d, j) * f[j]``."""
    return DefaultCountPmf(summary.d, _reweighted(summary.d, summary.f, 1))


def from_count_pmf(pmf: DefaultCountPmf) -> ExchangeablePmfSummary:
    """Inverse of :func:`to_count_pmf`; zero masses stay exactly zero."""
    return ExchangeablePmfSummary(pmf.d, _reweighted(pmf.d, pmf.probs, -1))


def mean(pmf: DefaultCountPmf) -> float:
    """Mean of the default count."""
    return math.fsum((j * x for j, x in enumerate(pmf.probs.tolist())))


def cross_moment(pmf: DefaultCountPmf, order: int) -> float:
    """Cross moment ``E[X_1 * ... * X_order]`` of the Bernoulli margins.

    For an exchangeable law with count pmf ``p`` this equals the
    normalised falling-factorial moment
    ``sum_k (k)_order / (d)_order * p[k]``, with the ratio from
    :func:`_falling_ratio`.

    Parameters
    ----------
    pmf : DefaultCountPmf
    order : int
        Moment order, between 1 and ``d``.

    Returns
    -------
    float
        The cross moment, a value in ``[0, 1]``.
    """
    if not 1 <= order <= pmf.d:
        raise OrderOutOfRange(f"order must lie in 1..{pmf.d}, got {order}")
    ratio = _falling_ratio(np.arange(pmf.d + 1, dtype=float), pmf.d, order)
    return math.fsum((ratio * pmf.probs).tolist())


def correlation(pmf: DefaultCountPmf, p: float) -> float:
    """Pairwise correlation implied by ``pmf`` for marginal ``p``.

    ``rho = (mu2 - p^2) / (p * (1 - p))`` with ``mu2`` the order-2 cross
    moment. Clamped to ``[-1, 1]`` against roundoff.
    """
    if not (0.0 < p < 1.0):
        raise DegenerateMarginal(f"correlation undefined for p={p}")
    rho = spec_mod._pair_correlation(cross_moment(pmf, 2), p)
    return min(1.0, max(-1.0, rho))


def var(pmf: DefaultCountPmf, alpha: float) -> int:
    """Lower ``alpha``-quantile of the count.

    Smallest ``k`` with ``P(Y <= k) >= alpha``. The cdf is accumulated
    with Neumaier compensation and compared against
    ``alpha - CDF_TIE_TOL``, so a cdf value equal to ``alpha`` up to
    roundoff covers the quantile.
    """
    alpha = _check_open_unit(alpha, "alpha")
    threshold = alpha - CDF_TIE_TOL
    acc = 0.0
    comp = 0.0
    for k, mass in enumerate(pmf.probs.tolist()):
        t = acc + mass
        if abs(acc) >= abs(mass):
            comp += (acc - t) + mass
        else:
            comp += (mass - t) + acc
        acc = t
        if acc + comp >= threshold:
            return k
    return pmf.d


def es(pmf: DefaultCountPmf, alpha: float) -> float:
    """Expected shortfall ``E[Y | Y >= var(Y, alpha)]``.

    The conditional tail expectation at the lower quantile; on discrete
    distributions this is the definition the risk tables use.
    """
    v = var(pmf, alpha)
    tail = pmf.probs[v:].tolist()
    tail_mass = math.fsum(tail)
    if tail_mass <= 0.0:
        raise EmptyTail(f"no mass at or above the {alpha}-quantile")
    num = math.fsum(((v + i) * x for i, x in enumerate(tail)))
    return num / tail_mass
