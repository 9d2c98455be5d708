"""Extremal-ray analysis of exchangeable Bernoulli default counts.

The admissible default-count laws with a fixed marginal probability,
and optionally a fixed pairwise correlation, form convex polytopes
whose extreme points are analytically enumerable. This package
enumerates them, decomposes admissible pmfs over them, and turns the
enumeration into sharp bounds on moments, value at risk, and expected
shortfall, with a moment-matched beta-binomial as the single-model
benchmark.

Importing the package loads no submodule and so no numpy: each public
name is imported from its submodule on first access (PEP 562). This
lets the command line set up the process before numpy loads.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .rays_mean import RaySet
    from .spec import ClassSpec

__version__ = "0.1.0"

# Each public name and the submodule that defines it; a submodule maps
# to itself.
_SUBMODULE = {
    "BernraysError": "errors",
    "BetaMixParams": "betamix",
    "ClassSpec": "spec",
    "DefaultCountPmf": "pmf",
    "EsEnvelope": "risk",
    "ExchangeablePmfSummary": "pmf",
    "MembershipResult": "rays_corr",
    "MomentBounds": "rays_mean",
    "RayDensity": "rays_mean",
    "RaySet": "rays_mean",
    "RiskBounds": "risk",
    "betamix": "betamix",
    "pmf": "pmf",
    "rays_corr": "rays_corr",
    "rays_mean": "rays_mean",
    "risk": "risk",
}


def __getattr__(name: str):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_SUBMODULE[name]}", __name__)
    value = module if name == _SUBMODULE[name] else getattr(module, name)
    globals()[name] = value
    return value


def enumerate_rays(spec: ClassSpec) -> RaySet:
    """Enumerate the extremal rays of the class ``spec`` describes.

    The result is a :class:`RaySet`, a ``Sequence[RayDensity]`` backed
    by ``support`` and ``masses`` arrays. Dispatches on whether a
    correlation target is present; see :func:`rays_mean.enumerate_rays`
    and :func:`rays_corr.enumerate_rays`.
    """
    if spec.rho is None:
        from . import rays_mean

        return rays_mean.enumerate_rays(spec)
    from . import rays_corr

    return rays_corr.enumerate_rays(spec)


__all__ = sorted([*_SUBMODULE, "__version__", "enumerate_rays"])
