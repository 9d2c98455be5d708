"""Moment-matched beta-binomial benchmark model.

Mixing i.i.d. Bernoulli margins over a Beta(a, b) mixing law yields an
exchangeable model whose default count is beta-binomial. Matching a
marginal probability p and equicorrelation rho fixes (a, b) uniquely:
the correlation of the mixture is 1/(a + b + 1), so
``a + b = 1/rho - 1`` and ``a = p * (a + b)``. The model covers only
``rho`` strictly between 0 and 1; outside that range no Beta mixture
matches, which is exactly why it serves as a narrow benchmark against
the full admissible class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import pmf as pmf_mod
from .errors import InadmissibleCorrelation, InvalidSpec
from .pmf import DefaultCountPmf


@dataclass(frozen=True)
class BetaMixParams:
    """Parameters of the Beta mixing law, with implied (p, rho)."""

    a: float
    b: float

    def __post_init__(self):
        a, b = float(self.a), float(self.b)
        if not (math.isfinite(a) and math.isfinite(b)) or a <= 0 or b <= 0:
            raise InvalidSpec(f"Beta parameters must be positive, got {self}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def implied_p(self) -> float:
        """Marginal default probability of the mixture, ``a/(a+b)``."""
        return self.a / (self.a + self.b)

    @property
    def implied_rho(self) -> float:
        """Pairwise correlation of the mixture, ``1/(a+b+1)``."""
        return 1.0 / (self.a + self.b + 1.0)


def calibrate(p: float, rho: float) -> BetaMixParams:
    """Match a Beta mixture to marginal ``p`` and correlation ``rho``.

    Raises
    ------
    InadmissibleCorrelation
        If ``rho`` is not strictly inside (0, 1); the mixture family
        cannot represent zero, negative, or perfect correlation.
    """
    p = pmf_mod._check_open_unit(p, "p")
    rho = float(rho)
    if not (0.0 < rho < 1.0):
        raise InadmissibleCorrelation(
            f"Beta mixture requires 0 < rho < 1, got {rho}"
        )
    scale = 1.0 / rho - 1.0
    return BetaMixParams(p * scale, (1.0 - p) * scale)


def pmf(params: BetaMixParams, d: int) -> DefaultCountPmf:
    """Beta-binomial count pmf on ``{0, ..., d}``.

    ``probs[j] = binom(d, j) * B(a+j, b+d-j) / B(a, b)``, evaluated in
    log space from ``probs[0] = prod_{k<d} (b+k)/(a+b+k)`` and the
    ratios ``probs[j+1]/probs[j] = (d-j)/(j+1) * (a+j)/(b+(d-1-j))``.
    Each factor is a ratio of sums of positive terms, so nothing
    cancels even near ``p = 1``, where ``b`` is tiny: ``1 - a/(a+b+k)``
    would cancel there and ``b+d-1-j`` would lose ``b``. A difference of
    log-beta values would lose about ``(a+b) * eps`` to rounding, which
    breaks normalisation once ``rho`` is near 1e-6. With calibrated
    ``a`` as small as a few 1e-4 the gamma function itself is far
    outside floating range while these logs stay tame.
    """
    d = pmf_mod._check_d(d)
    a, b = params.a, params.b
    log_first = math.fsum(math.log((b + k) / (a + b + k)) for k in range(d))
    j = np.arange(d, dtype=float)
    steps = np.log((d - j) / (j + 1.0)) + np.log((a + j) / (b + (d - 1.0 - j)))
    log_probs = np.concatenate(([0.0], np.cumsum(steps))) + log_first
    return DefaultCountPmf(d, np.exp(log_probs))


def var(params: BetaMixParams, d: int, alpha: float) -> int:
    """Lower ``alpha``-quantile of the beta-binomial count."""
    return pmf_mod.var(pmf(params, d), alpha)


def es(params: BetaMixParams, d: int, alpha: float) -> float:
    """Expected shortfall of the beta-binomial count.

    Companion output to :func:`var`; reported alongside the class
    envelopes as a single-model reference point, not a bound.
    """
    return pmf_mod.es(pmf(params, d), alpha)
