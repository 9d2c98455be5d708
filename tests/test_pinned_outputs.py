"""Bit-level pins of the numeric core: decomposition, binomial
reweighting, the closed forms of the mean class and the VaR extrema of
the correlation sweep.

Each digest is the sha256 of little-endian int64 and float64 bytes
recorded from an earlier implementation, so a rewrite that moves a
single bit fails here. Inputs come from seeded generators and are mixed
in plain Python arithmetic, whose rounding is the same on every
platform.
"""

import hashlib
import math

import numpy as np
import pytest
from click.testing import CliRunner

from bernrays import (
    ClassSpec,
    DefaultCountPmf,
    betamix,
    cli,
    pmf,
    rays_mean,
    risk,
)
from bernrays.errors import InvalidSpec
from bernrays.spec import _mean_extrema


def sha256(*arrays):
    h = hashlib.sha256()
    for array in arrays:
        dtype = "<i8" if np.asarray(array).dtype.kind in "iu" else "<f8"
        h.update(np.asarray(array).astype(dtype).tobytes())
    return h.hexdigest()


def mean_classes(rng, count):
    """Seeded mean classes with d in 2..160; every third has an integer
    mean."""
    for t in range(count):
        d = int(rng.integers(2, 161))
        if t % 3 == 0:
            p = int(rng.integers(1, d)) / d
        else:
            p = float(rng.uniform(0.005, 0.995))
        yield ClassSpec(d, p)


def mixture(rng, rays, terms):
    """A random convex combination of ``terms`` rows of ``rays``, summed
    in plain Python."""
    rows = rng.integers(0, len(rays), size=terms).tolist()
    raw = rng.random(terms).tolist()
    total = math.fsum(raw)
    probs = [0.0] * (rays.d + 1)
    for row, w in zip(rows, raw):
        support = rays.support[row].tolist()
        masses = rays.masses[row].tolist()
        for s, m in zip(support, masses):
            probs[s] += (w / total) * m
    return probs


def test_decompose_terms_and_weights():
    rng = np.random.default_rng(20140)
    support, masses, weights = [], [], []
    for spec in mean_classes(rng, 90):
        rays = rays_mean.enumerate_rays(spec)
        for terms in (1, 2, 7, 40):
            probs = mixture(rng, rays, terms)
            for ray, weight in rays_mean.decompose(
                DefaultCountPmf(spec.d, probs), spec
            ):
                pad = 3 - len(ray.support)
                support.append(ray.support + ray.support[-1:] * pad)
                masses.append(ray.masses + (0.0,) * pad)
                weights.append(weight)
    assert len(weights) == 4932
    assert sha256(support, masses, weights) == (
        "9a74f401fb0798f1e469ff642e89aadc99b0a10548085352ab22062168859914"
    )


# numpy's exp and log are not correctly rounded, and the SIMD path they
# take depends on the CPU. The reweighting digests hold only where the
# two round as they did where the digests were recorded; the probe
# digest tells, and the bit-for-bit check against the formula holds
# everywhere.
_PROBE = np.linspace(-700.0, 700.0, 4099)
_PROBE_DIGEST = (
    "ca53ca80873cdfc5001fbe0a911a7e034de867b82575c96bde041318188324ca"
)


def count_pmfs(rng):
    """Seeded count pmfs with d from 1 to 1000, a fifth of the entries
    exactly zero."""
    for d in (1, 2, 3, 7, 40, 100, 160, 400, 1000):
        for _ in range(4):
            raw = rng.random(d + 1)
            raw[rng.random(d + 1) < 0.2] = 0.0
            raw[int(rng.integers(0, d + 1))] = 1.0
            total = math.fsum(raw.tolist())
            yield DefaultCountPmf(d, [x / total for x in raw.tolist()])


def test_reweighting_in_both_directions():
    levels, counts = [], []
    for y in count_pmfs(np.random.default_rng(31)):
        summary = pmf.from_count_pmf(y)
        back = pmf.to_count_pmf(summary)
        log_binom = pmf.log_binomial(y.d)
        for source, got, sign in ((y.probs, summary.f, -1.0),
                                  (summary.f, back.probs, 1.0)):
            pos = source > 0.0
            want = np.zeros(y.d + 1)
            want[pos] = np.exp(np.log(source[pos]) + sign * log_binom[pos])
            assert np.array_equal(got, want)
        levels.append(summary.f)
        counts.append(back.probs)
    if sha256(np.exp(_PROBE), np.log(np.exp(_PROBE))) != _PROBE_DIGEST:
        pytest.skip("numpy's exp or log rounds differently on this CPU")
    assert sha256(*levels) == (
        "79ba92519ddf4ff321532048dc5741d7dc171b1a406ed0868f6c786fb911bca8"
    )
    assert sha256(*counts) == (
        "3a5455e4feb829bb9ab3965d4457bdc5d9f37b050a0a72bcc8820701ce065016"
    )


def test_closed_form_var_on_a_seeded_grid():
    rng = np.random.default_rng(577)
    specs = [ClassSpec(100, p) for p in (0.003, 0.017, 0.266)]
    specs += list(mean_classes(rng, 150))
    bounds = []
    for spec in specs:
        alphas = [0.9, 0.95, 0.99, 1.0 - spec.p]
        alphas += rng.uniform(0.5, 0.999, size=4).tolist()
        for alpha in alphas:
            bounds.append(risk.var_bounds_mean_closed_form(spec, alpha))
    assert len(bounds) == 1224
    assert sha256(bounds) == (
        "c55d5da560563a152273e6ece2227e3935bb79772d11e819d5ffe5053d4b3ad7"
    )


def snapped_mean_classes(rng):
    """Seeded mean classes with d up to 400. Below d = 10, every integer
    mean, each also moved by up to 9e-10, within the 1e-9 that
    ``integer_mean`` snaps; above, a third each of integer means, means
    within 1e-9 of an integer (0 and d included) and uniform p."""
    for d in range(1, 10):
        for m in range(d + 1):
            for shift in (0.0, 4.5e-10, -4.5e-10, 9e-10, -9e-10):
                if 0.0 < m + shift < d:
                    yield ClassSpec(d, (m + shift) / d)
    for t in range(240):
        d = int(rng.integers(10, 401))
        if t % 3 == 0:
            yield ClassSpec(d, int(rng.integers(1, d)) / d)
        elif t % 3 == 1:
            m = int(rng.integers(0, d + 1))
            shift = float(rng.uniform(-9e-10, 9e-10))
            mean = min(max(m + shift, abs(shift)), d - abs(shift))
            yield ClassSpec(d, mean / d)
        else:
            yield ClassSpec(d, float(rng.uniform(0.001, 0.999)))


def test_mean_class_closed_forms_on_a_seeded_grid():
    # Every moment bound of orders 1 to min(d, 8) with its attaining
    # rays, the correlation range and the VaR/ES extrema at levels on
    # and next to two-point rays' cdfs, as float.hex. Recorded where the
    # order-3+ moments were a batched matmul of ratios and masses
    # (numpy 2.4.6, Intel Xeon, x86-64 Linux), with the ray check's mean
    # tolerance widened to 1e-9 below d = 10, where it refused the point
    # ray of the shifted classes.
    rng = np.random.default_rng(2026)
    lines = []
    for spec in snapped_mean_classes(rng):
        lines.append(f"{spec.d} {spec.p.hex()}")
        for order in range(1, min(spec.d, 8) + 1):
            bounds = rays_mean.moment_bounds(spec, order)
            lines.append(" ".join([
                bounds.lower.hex(), bounds.upper.hex(),
                *(f"{ray.support}{[m.hex() for m in ray.masses]}"
                  for ray in (bounds.argmin, bounds.argmax))]))
        if spec.d >= 2:
            lines.append(" ".join(
                x.hex() for x in rays_mean.correlation_bounds(spec)))
        alphas = [0.9, 0.95, 0.99, 1.0 - spec.p]
        alphas += rng.uniform(0.01, 0.999, size=2).tolist()
        lower, upper = spec.max_lower_index, spec.min_upper_index
        if 0 <= lower and upper <= spec.d:
            for _ in range(2):
                ray = rays_mean.two_point_ray(
                    spec, int(rng.integers(0, lower + 1)),
                    int(rng.integers(upper, spec.d + 1)))
                level = ray.masses[0] + pmf.CDF_TIE_TOL
                alphas += [level, math.nextafter(level, 0.0),
                           math.nextafter(level, 1.0)]
        alphas = [alpha for alpha in alphas if 0.0 < alpha < 1.0]
        for values in _mean_extrema(spec, alphas):
            lines.append(" ".join(str(x) if isinstance(x, int) else x.hex()
                                  for x in values))
    assert len(lines) == MEAN_CLASS_LINES
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == MEAN_CLASS_SHA256


MEAN_CLASS_LINES = 9408
MEAN_CLASS_SHA256 = (
    "0d6d400e24cbe9ab1fddd825fda3118db658308ad0b5d7e17332a99c04bbaa22"
)


# sha256 of the stdout of `sweep`, recorded from a fold over every ray of
# each grid class.
SWEEP_SHA256 = {
    ("--d", "400", "--scenario", "B"):
        "5ff23fe7f1684572a85165e7fbbb2ce70ccf48bc16749df6597ebd8ffe28bc1a",
    ("--d", "200", "--p", "0.266"):
        "27583b59a6a3c7e36571a2035345987b1246ac52f114833ae226d4d1c2c1d0d1",
}


@pytest.mark.parametrize("args", list(SWEEP_SHA256), ids=" ".join)
def test_sweep_output_bytes(args):
    result = CliRunner().invoke(cli.main, ["sweep", *args])
    assert result.exit_code == 0, result.stderr
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == (
        SWEEP_SHA256[args]
    )


@pytest.mark.parametrize(
    "value", [0.0, -0.0, 1.0, 1.5, -2.0, math.nan, math.inf, -math.inf]
)
@pytest.mark.parametrize(
    "name, check",
    [("p", lambda x: ClassSpec(10, x)),
     ("p", lambda x: betamix.calibrate(x, 0.5)),
     ("alpha", lambda x: risk.var_bounds_mean_closed_form(
         ClassSpec(10, 0.3), x)),
     ("alpha", lambda x: pmf.var(DefaultCountPmf(1, [0.5, 0.5]), x))],
    ids=["ClassSpec", "calibrate", "closed form", "var"],
)
def test_open_interval_checks(name, check, value):
    with pytest.raises(InvalidSpec) as caught:
        check(value)
    assert str(caught.value) == (
        f"{name} must lie strictly inside (0, 1), got {value}"
    )
