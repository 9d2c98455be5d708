"""Extremal-ray analysis of exchangeable Bernoulli default counts.

The admissible default-count laws with a fixed marginal probability,
and optionally a fixed pairwise correlation, form convex polytopes
whose extreme points are analytically enumerable. This package
enumerates them, decomposes admissible pmfs over them, and turns the
enumeration into sharp bounds on moments, value at risk, and expected
shortfall, with a moment-matched beta-binomial as the single-model
benchmark.
"""

from . import betamix, pmf, rays_corr, rays_mean, risk
from .betamix import BetaMixParams
from .errors import BernraysError
from .pmf import ClassSpec, DefaultCountPmf, ExchangeablePmfSummary
from .rays_corr import MembershipResult
from .rays_mean import MomentBounds, RayDensity, RaySet
from .risk import EsEnvelope, RiskBounds

__version__ = "0.1.0"


def enumerate_rays(spec: ClassSpec) -> RaySet:
    """Enumerate the extremal rays of the class ``spec`` describes.

    The result is a :class:`RaySet`, a ``Sequence[RayDensity]`` backed
    by ``support`` and ``masses`` arrays. Dispatches on whether a
    correlation target is present; see :func:`rays_mean.enumerate_rays`
    and :func:`rays_corr.enumerate_rays`.
    """
    if spec.rho is None:
        return rays_mean.enumerate_rays(spec)
    return rays_corr.enumerate_rays(spec)


__all__ = [
    "BernraysError",
    "BetaMixParams",
    "ClassSpec",
    "DefaultCountPmf",
    "EsEnvelope",
    "ExchangeablePmfSummary",
    "MembershipResult",
    "MomentBounds",
    "RayDensity",
    "RaySet",
    "RiskBounds",
    "__version__",
    "betamix",
    "enumerate_rays",
    "pmf",
    "rays_corr",
    "rays_mean",
    "risk",
]
