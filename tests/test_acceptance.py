"""End-to-end acceptance gate.

One test per shipping criterion, each ending in a single printed
verdict line (the terminal summary repeats them after the run). The
reference numbers are the frozen table values; tolerances are
pinned next to each check and never loosened at call sites.
"""

import hashlib
import json
import math
import time

import numpy as np
from click.testing import CliRunner

from bernrays import (
    ClassSpec,
    DefaultCountPmf,
    betamix,
    cli,
    pmf,
    rays_corr,
    rays_mean,
    risk,
)
from oracles import random_mixture, vertex_pmfs

ALPHAS = (0.90, 0.95, 0.99)
SCENARIOS = {"A": 0.003, "BBB": 0.017, "B": 0.266}
RHO_VALUES = {"1/6": 1 / 6, "1/2": 1 / 2, "5/6": 5 / 6}
# The manifest carries the sha256 and checked-cell count of every
# reproduced table, so its own digest pins every output byte.
MANIFEST_SHA256 = (
    "224fee8c0353524f808133bb0a53ca480932070054c92dd58ed1c48ca723cfb9"
)

# Reference quantile bounds of the mean-constrained classes.
MEAN_VAR = {
    "A": {0.90: (0, 2), 0.95: (0, 5), 0.99: (0, 29)},
    "BBB": {0.90: (0, 16), 0.95: (0, 33), 0.99: (1, 100)},
    "B": {0.90: (19, 100), 0.95: (23, 100), 0.99: (26, 100)},
}

# Reference shortfall extrema of the mean-constrained classes (1 dp).
MEAN_ES = {
    "A": {0.90: (0.3, 2.0), 0.95: (0.3, 5.0), 0.99: (0.3, 29.0)},
    "BBB": {0.90: (1.7, 16.0), 0.95: (1.7, 33.0), 0.99: (1.7, 100.0)},
    "B": {0.90: (26.6, 100.0), 0.95: (26.6, 100.0), 0.99: (26.6, 100.0)},
}

# Reference cross-moment bounds (3 dp), orders 2..4 plus correlation.
MOMENT_TABLE = {
    "A": {
        2: ("0.000", "0.003"),
        3: ("0.000", "0.003"),
        4: ("0.000", "0.003"),
        "rho": ("-0.003", "1.000"),
    },
    "BBB": {
        2: ("0.000", "0.017"),
        3: ("0.000", "0.017"),
        4: ("0.000", "0.017"),
        "rho": ("-0.009", "1.000"),
    },
    "B": {
        2: ("0.069", "0.266"),
        3: ("0.017", "0.266"),
        4: ("0.004", "0.266"),
        "rho": ("-0.010", "1.000"),
    },
}

# Reference quantile bounds of the correlation-constrained classes and
# the beta-binomial benchmark: (min, max, benchmark) per alpha.
CORR_VAR = {
    ("A", "1/6"): {0.90: (0, 2, 0), 0.95: (0, 5, 0), 0.99: (1, 22, 9)},
    ("A", "1/2"): {0.90: (0, 1, 0), 0.95: (0, 3, 0), 0.99: (0, 21, 4)},
    ("A", "5/6"): {0.90: (0, 0, 0), 0.95: (0, 1, 0), 0.99: (0, 7, 0)},
    ("BBB", "1/6"): {0.90: (0, 16, 5), 0.95: (1, 25, 11), 0.99: (2, 55, 29)},
    ("BBB", "1/2"): {0.90: (0, 9, 0), 0.95: (0, 25, 5), 0.99: (1, 93, 57)},
    ("BBB", "5/6"): {0.90: (0, 3, 0), 0.95: (0, 8, 0), 0.99: (61, 100, 94)},
    ("B", "1/6"): {
        0.90: (21, 82, 53), 0.95: (26, 100, 62), 0.99: (38, 100, 76),
    },
    ("B", "1/2"): {
        0.90: (42, 100, 82), 0.95: (56, 100, 93), 0.99: (63, 100, 100),
    },
    ("B", "5/6"): {
        0.90: (81, 100, 100), 0.95: (86, 100, 100), 0.99: (88, 100, 100),
    },
}


def test_criterion_1_ray_counts():
    """Exact ray counts at d=100, within the stated time budget:
    100 / 198 / 1998 for the mean classes in under 5 s each, 32372 for
    the correlated class at (26.6%, 1/6) in under 30 s."""
    counts = {}
    for name, p in SCENARIOS.items():
        start = time.perf_counter()
        rays = rays_mean.enumerate_rays(ClassSpec(100, p))
        elapsed = time.perf_counter() - start
        counts[name] = len(rays)
        assert elapsed < 5.0, f"mean enumeration took {elapsed:.1f} s"
    assert counts == {"A": 100, "BBB": 198, "B": 1998}

    start = time.perf_counter()
    corr = rays_corr.enumerate_rays(ClassSpec(100, 0.266, 1 / 6))
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"triple scan took {elapsed:.1f} s"
    assert len(corr) == 32372
    print(
        "CRITERION 1: PASS — counts 100/198/1998 and 32372 "
        f"(triple scan {elapsed:.2f} s)"
    )


def test_criterion_2_var_tables(mean_rays, corr_rays):
    """All nine mean-class quantile cells (closed form and ray scan)
    and all 27 correlated cells reproduced as exact integers."""
    for name, p in SCENARIOS.items():
        spec = ClassSpec(100, p)
        for alpha in ALPHAS:
            want = MEAN_VAR[name][alpha]
            closed = risk.var_bounds_mean_closed_form(spec, alpha)
            scan = risk.var_bounds_scan(mean_rays[name], alpha)
            assert closed == want, f"{name}/{alpha}: closed {closed}"
            assert (scan.var_min, scan.var_max) == want
    for (name, label), per_alpha in CORR_VAR.items():
        rays = corr_rays[name, label]
        for alpha, (lo, hi, _) in per_alpha.items():
            scan = risk.var_bounds_scan(rays, alpha)
            assert (scan.var_min, scan.var_max) == (lo, hi), (
                f"{name}/{label}/{alpha}: got "
                f"({scan.var_min}, {scan.var_max}), want ({lo}, {hi})"
            )
    print("CRITERION 2: PASS — 9 mean cells (both routes) + 27 "
          "correlated cells exact")


def test_criterion_3_es_tables(mean_rays):
    """Ray-scan shortfall extrema match the reference tables at one
    decimal place for every scenario and level."""
    for name in SCENARIOS:
        for alpha in ALPHAS:
            lo, hi = risk.es_bounds_scan(mean_rays[name], alpha)
            want_lo, want_hi = MEAN_ES[name][alpha]
            assert f"{lo:.1f}" == f"{want_lo:.1f}", f"{name}/{alpha} min"
            assert f"{hi:.1f}" == f"{want_hi:.1f}", f"{name}/{alpha} max"
    print("CRITERION 3: PASS — 9 shortfall cells match at 1 decimal")


def test_criterion_4_moment_tables():
    """Order 2..4 cross-moment bounds and the correlation range match
    the reference tables at three decimal places."""
    for name, p in SCENARIOS.items():
        spec = ClassSpec(100, p)
        for order in (2, 3, 4):
            bounds = rays_mean.moment_bounds(spec, order)
            want = MOMENT_TABLE[name][order]
            got = (f"{bounds.lower:.3f}", f"{bounds.upper:.3f}")
            assert got == want, f"{name}/order {order}: {got} != {want}"
        low, high = rays_mean.correlation_bounds(spec)
        got = (f"{low:.3f}", f"{high:.3f}")
        assert got == MOMENT_TABLE[name]["rho"], f"{name}/rho: {got}"
    print("CRITERION 4: PASS — 12 moment rows match at 3 decimals")


def test_criterion_5_benchmark_var_cells():
    """Every tabulated beta-binomial benchmark quantile reproduced
    exactly after moment-matched calibration."""
    checked = 0
    for (name, label), per_alpha in CORR_VAR.items():
        params = betamix.calibrate(SCENARIOS[name], RHO_VALUES[label])
        for alpha, (_, _, want) in per_alpha.items():
            got = betamix.var(params, 100, alpha)
            assert got == want, f"{name}/{label}/{alpha}: {got} != {want}"
            checked += 1
    print(f"CRITERION 5: PASS — {checked} benchmark quantiles exact")


def test_criterion_6_closed_form_vs_scan():
    """The closed-form quantile extrema equal the full ray scan on 500
    randomized (d <= 200, p, alpha) classes, with zero mismatches."""
    rng = np.random.default_rng(2024)
    mismatches = 0
    for _ in range(500):
        d = int(rng.integers(2, 201))
        p = float(rng.uniform(0.005, 0.995))
        alpha = float(rng.uniform(0.01, 0.99))
        spec = ClassSpec(d, p)
        closed = risk.var_bounds_mean_closed_form(spec, alpha)
        scan = risk.var_bounds_scan(rays_mean.enumerate_rays(spec), alpha)
        if closed != (scan.var_min, scan.var_max):
            mismatches += 1
    assert mismatches == 0
    print("CRITERION 6: PASS — closed form == scan on 500 random classes")


def test_criterion_7_oracle_equivalence():
    """Analytic ray sets equal brute-force polytope vertices within
    1e-9: every d <= 6 on the p-grid 0.1..0.9 for the mean constraint,
    plus 50 random feasible (p, rho) classes. Under 60 s total."""
    start = time.perf_counter()
    compared = 0
    for d in range(1, 7):
        for p in np.arange(0.1, 0.95, 0.1):
            spec = ClassSpec(d, float(p))
            rays = rays_mean.enumerate_rays(spec)
            expected = vertex_pmfs(d, {1: spec.mean_count})
            assert {r.support for r in rays} == set(expected), (
                f"mean class d={d} p={p:.1f}"
            )
            for ray in rays:
                np.testing.assert_allclose(
                    ray.masses, expected[ray.support], atol=1e-9
                )
            compared += 1
    rng = np.random.default_rng(4096)
    pairs = 0
    while pairs < 50:
        d = int(rng.integers(2, 7))
        p = float(rng.uniform(0.1, 0.9))
        low, high = rays_mean.correlation_bounds(ClassSpec(d, p))
        rho = float(rng.uniform(low + 0.05 * (high - low), high))
        spec = ClassSpec(d, p, rho)
        rays = rays_corr.enumerate_rays(spec)
        expected = vertex_pmfs(
            d, {1: spec.mean_count, 2: spec.second_moment_target}
        )
        assert {r.support for r in rays} == set(expected), (
            f"corr class d={d} p={p:.3f} rho={rho:.3f}"
        )
        for ray in rays:
            np.testing.assert_allclose(
                ray.masses, expected[ray.support], atol=1e-9
            )
        pairs += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"oracle comparison took {elapsed:.1f} s"
    print(
        f"CRITERION 7: PASS — {compared} grid classes + {pairs} random "
        f"correlated classes match the vertex oracle ({elapsed:.1f} s)"
    )


def test_criterion_8_mixture_properties(mean_rays, corr_rays):
    """1000 random convex mixtures per class conserve the targeted
    moments, keep VaR inside the scan bounds, keep ES at or below d,
    and reconstruct from their decomposition to under 1e-10."""
    rng = np.random.default_rng(8080)
    d = 100

    def check_class(rays, spec, n=1000):
        base = ClassSpec(d, spec.p)
        bounds = {a: risk.var_bounds_scan(rays, a) for a in ALPHAS}
        for i in range(n):
            probs, _, _ = random_mixture(rng, rays)
            y = DefaultCountPmf(d, probs)
            assert abs(pmf.mean(y) - spec.mean_count) <= 1e-9 * d
            if spec.rho is not None:
                mu2 = pmf.cross_moment(y, 2)
                assert abs(mu2 - spec.pair_moment_target) <= 2e-9
            alpha = ALPHAS[i % 3]
            value = pmf.var(y, alpha)
            assert bounds[alpha].var_min <= value <= bounds[alpha].var_max
            assert pmf.es(y, alpha) <= d + 1e-9
            terms = rays_mean.decompose(y, base)
            # np.add.at adds the terms in order, as a loop over them would.
            rebuilt = np.zeros(d + 1)
            np.add.at(
                rebuilt,
                [point for ray, _ in terms for point in ray.support],
                [weight * mass for ray, weight in terms
                 for mass in ray.masses],
            )
            assert np.max(np.abs(rebuilt - probs)) < 1e-10

    total = 0
    for name, p in SCENARIOS.items():
        check_class(mean_rays[name], ClassSpec(d, p))
        total += 1000
    for (name, label), rays in corr_rays.items():
        check_class(rays, ClassSpec(d, SCENARIOS[name], RHO_VALUES[label]))
        total += 1000
    print(f"CRITERION 8: PASS — {total} mixtures across 12 classes")


def test_criterion_9_full_reproduction(tmp_path):
    """The reproduce command regenerates every reference table with
    zero cell diffs, exits 0, and finishes in under two minutes."""
    out = tmp_path / "tables"
    cache = tmp_path / "cache"
    start = time.perf_counter()
    result = CliRunner().invoke(
        cli.main,
        ["reproduce", "--out", str(out), "--cache", str(cache)],
    )
    elapsed = time.perf_counter() - start
    assert result.exit_code == 0, result.output
    assert elapsed < 120.0, f"reproduction took {elapsed:.1f} s"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "pass"
    tables = manifest["tables"]
    assert len(tables) == 21
    assert all(not t.get("mismatches") for t in tables.values())
    checked = sum(t["checked_cells"] for t in tables.values())
    assert checked > 200
    assert all((out / t["file"]).exists() for t in tables.values())
    manifest_sha = hashlib.sha256((out / "manifest.json").read_bytes())
    assert manifest_sha.hexdigest() == MANIFEST_SHA256
    print(
        f"CRITERION 9: PASS — {len(tables)} tables, {checked} checked "
        f"cells, 0 diffs, exit 0 in {elapsed:.1f} s"
    )
