"""Command-line front end.

Every numeric cell an output table carries comes from exactly one
library call; this layer only parses flags, routes ``rays`` through the
ray-set cache, applies display rounding (one rule per column, read by
both CSV and JSON), and serializes. Each command takes one path from
flags to bytes: ``_resolve`` turns the class flags into a
:class:`~bernrays.pmf.ClassSpec`, a row builder makes raw rows,
``_render`` serializes them and ``_emit`` or ``_write`` sends the text
to stdout or a file. Only ``rays`` holds a whole ray set, which
``_enumerate_cached`` gets by way of the cache. ``bounds`` folds a mean
class in streamed blocks and takes a correlated one's values from the
outer pairs that can hold an extremum (``risk._class_bounds``).
``sweep`` and ``reproduce``'s correlated tables carry only VaR, which
``risk._var_extrema`` finds from the O(d) rays whose support holds two
adjacent indices or spans ``{0, d}``, so no command but ``rays`` uses
``--cache``: the others accept it and leave it alone. Outputs are
byte-deterministic for a given invocation: fixed float formats, LF line
endings, sorted JSON keys, and no timestamps.

The module top loads only the standard library, click, ``errors`` and
``_reference_tables``; each library module, and numpy with it, loads at
the first call into it. So ``--version``, ``--help`` and a flag refused
before the class is built start without numpy. The first command a
process runs registers ``gc.freeze`` as an exit handler, so the
interpreter's collections at exit skip the objects those imports left;
code that runs commands in process keeps its collector as it was until
its own exit.

Exit codes: 0 success, 2 infeasible or invalid input or an output
directory, or the cache directory of ``rays``, that cannot be written,
3 reproduction mismatch.
"""

from __future__ import annotations

import atexit
import gc
import io
import os
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING

# The library's BLAS calls are a few tiny products, yet OpenBLAS starts
# a worker thread per core when numpy loads, and in a short command
# that thread burns CPU spinning. numpy loads at the command's first
# library call, after this line, so it runs BLAS on one thread; a value
# the user set wins, and numpy that is already loaded keeps what it has.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import click

from . import __version__, enumerate_rays
from . import _reference_tables as ref
from .errors import BernraysError, InadmissibleCorrelation, InvalidSpec

if TYPE_CHECKING:
    from .pmf import ClassSpec
    from .rays_mean import RaySet

EXIT_INFEASIBLE = 2
EXIT_MISMATCH = 3
SWEEP_GRID = 12


def _slug(spec: ClassSpec) -> str:
    """The class's tag in output and log file names."""
    tag = f"d{spec.d}_p{spec.p:g}"
    if spec.rho is not None:
        tag += f"_rho{spec.rho:g}"
    return tag


def parse_rho(text: str) -> float:
    """Parse a correlation given as a fraction or a decimal.

    Fractions like ``1/6`` go through exact rational arithmetic before
    the single final rounding to float, so ``1/6`` and ``0.1666...``
    typed to any precision never drift apart.
    """
    try:
        return float(Fraction(text))
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise InvalidSpec(f"not a decimal or a fraction: {text!r}") from exc


def _parse_alphas(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise InvalidSpec(f"alphas must be numbers, got {text!r}") from exc


def _enumerate_cached(spec: ClassSpec, cache: Path | None) -> RaySet:
    """Enumerate ``spec``, by way of the cache directory when one is
    given. Cache hits log their timing to stderr; stdout stays clean."""
    from .rayset_io import load_cached_rays, store_cached_rays

    if cache is not None:
        start = time.perf_counter()
        rays = load_cached_rays(cache, spec, __version__)
        if rays is not None:
            elapsed = (time.perf_counter() - start) * 1e3
            click.echo(
                f"cache: reused {len(rays)} rays for {_slug(spec)} "
                f"in {elapsed:.1f} ms",
                err=True,
            )
            return rays
    rays = enumerate_rays(spec)
    if cache is not None:
        store_cached_rays(cache, rays, __version__)
    return rays


# ---------------------------------------------------------------------------
# Table construction: raw rows first, display formatting second.

# Decimal places of the rounded columns. Such a cell shows
# round(x, n) + 0.0 in both formats, so a zero never carries a sign.
_DECIMALS = {"lower": 3, "upper": 3, "es_min": 1, "es_max": 1}

_FORMATTERS = {
    "order": str,
    "alpha": lambda a: f"{a:g}",
    "rho": lambda r: f"{r:.17g}",
    "var_min": lambda v: str(int(v)),
    "var_max": lambda v: str(int(v)),
    "beta_var": lambda v: "" if v is None else str(int(v)),
    **{key: (lambda x, n=n: f"{x:.{n}f}") for key, n in _DECIMALS.items()},
}


def _shown(rows: list[dict]) -> list[dict]:
    """``rows`` with every rounded column at the value its cell shows."""
    return [
        {key: round(value, _DECIMALS[key]) + 0.0 if key in _DECIMALS
         else value for key, value in row.items()}
        for row in rows
    ]


def _stringify(rows: list[dict]) -> list[dict]:
    return [
        {key: _FORMATTERS[key](value) for key, value in row.items()}
        for row in _shown(rows)
    ]


def _render(rows: list[dict], columns: tuple[str, ...], fmt: str) -> str:
    if fmt == "json":
        import json

        return json.dumps(_shown(rows), sort_keys=True, indent=2) + "\n"
    import csv

    buffer = io.StringIO()
    writer = csv.DictWriter(
        buffer, fieldnames=columns, lineterminator="\n", extrasaction="ignore"
    )
    writer.writeheader()
    writer.writerows(_stringify(rows))
    return buffer.getvalue()


MOMENTS_COLUMNS = ("order", "lower", "upper")
BOUNDS_COLUMNS = ("alpha", "var_min", "var_max", "es_min", "es_max")
BOUNDS_BETA_COLUMNS = BOUNDS_COLUMNS + ("beta_var",)
VAR_COLUMNS = ("alpha", "var_min", "var_max")
VAR_BETA_COLUMNS = ("alpha", "var_min", "var_max", "beta_var")
ES_COLUMNS = ("alpha", "es_min", "es_max")
SWEEP_COLUMNS = ("rho", "alpha", "var_min", "var_max", "beta_var")


def _moments_rows(spec: ClassSpec) -> list[dict]:
    from . import rays_mean

    rows = []
    for order in range(1, min(4, spec.d) + 1):
        bounds = rays_mean.moment_bounds(spec, order)
        rows.append(
            {"order": str(order), "lower": bounds.lower, "upper": bounds.upper}
        )
    low, high = rays_mean.correlation_bounds(spec)
    rows.append({"order": "rho", "lower": low, "upper": high})
    return rows


def _beta_vars(spec: ClassSpec, alphas: tuple[float, ...]) -> list:
    """The beta-binomial benchmark's VaR at each level, all from one pmf;
    None at every level when no Beta mixture matches ``spec.rho``."""
    from . import betamix, pmf

    try:
        params = betamix.calibrate(spec.p, spec.rho)
    except InadmissibleCorrelation:
        return [None] * len(alphas)
    law = betamix.pmf(params, spec.d)
    return [pmf.var(law, alpha) for alpha in alphas]


def _bounds_rows(spec: ClassSpec, alphas: tuple[float, ...]) -> list[dict]:
    """One row per level of the risk bounds over the rays of ``spec``,
    with the benchmark's VaR for a correlated class. A mean class is
    folded in streamed blocks; a correlated one solves only the outer
    pairs that can hold an extremum (``risk._class_bounds``)."""
    from . import pmf, rays_corr, rays_mean, risk

    # A refused class fails here, before any level is checked.
    if spec.rho is None:
        blocks = rays_mean._ray_blocks(spec)
        return [dict(zip(BOUNDS_COLUMNS, (alpha, bounds.var_min,
                                          bounds.var_max, bounds.es_min,
                                          bounds.es_max)))
                for alpha, bounds in zip(alphas, risk._fold(blocks, alphas))]
    ranges = rays_corr._capped_ranges(spec)
    # Faults surface level by level: the first level's range, then the
    # benchmark's, then the other levels'.
    pmf._check_open_unit(alphas[0], "alpha")
    betas = _beta_vars(spec, alphas)
    found = risk._class_bounds(spec, ranges, alphas)
    return [dict(zip(BOUNDS_BETA_COLUMNS, (alpha, *values, beta)))
            for alpha, values, beta in zip(alphas, found, betas)]


def _sweep_grid(n: int) -> list[float]:
    """``n`` equispaced correlations from 0 to 11/12 inclusive, built
    rationally so grid points coincide bit-for-bit with parsed
    fractions like 1/6."""
    top = Fraction(11, 12)
    return [float(top * Fraction(k, n - 1)) for k in range(n)]


def _sweep_rows(
    spec: ClassSpec, alphas: tuple[float, ...], grid: int
) -> list[dict]:
    """One row per grid correlation and level. Each class's VaR extrema
    come from the rays whose support holds two adjacent indices or spans
    ``{0, d}``, so no class is enumerated or cached."""
    from . import risk
    from .pmf import ClassSpec

    rows = []
    for rho in _sweep_grid(grid):
        at_rho = ClassSpec(spec.d, spec.p, rho)
        found = risk._var_extrema(at_rho, alphas)
        for alpha, (var_min, var_max), beta in zip(
            alphas, found, _beta_vars(at_rho, alphas)
        ):
            rows.append(
                {
                    "rho": rho,
                    "alpha": alpha,
                    "var_min": var_min,
                    "var_max": var_max,
                    "beta_var": beta,
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Reproduction gate.


def _reference_rows(columns: tuple[str, ...], table: dict, *prefix):
    """A reference table (row key -> cells) as rows under ``columns``;
    ``prefix`` holds leading cells shared by every row."""
    return [
        dict(zip(columns, (*prefix, key, *cells)))
        for key, cells in table.items()
    ]


def _scenario_tables(scenario: str, p: float):
    """The seven tables of one scenario, each as ``(name, columns, rows,
    checked rows, expected rows)``.

    Every table is a column projection of one of three row sets: the
    moment bounds, the mean-class risk bounds and the correlation sweep.
    The sweep grid holds each reference correlation bit for bit, so a
    per-rho table is the sweep rows at its rho and every class is
    solved once.
    """
    from .pmf import ClassSpec

    spec = ClassSpec(ref.DEFAULT_D, p)
    moments = _moments_rows(spec)
    mean = _bounds_rows(spec, ref.DEFAULT_ALPHAS)
    sweep = _sweep_rows(spec, ref.DEFAULT_ALPHAS, SWEEP_GRID)
    tables = [
        (f"{kind}_{scenario}", columns, rows, rows,
         _reference_rows(columns, table[scenario]))
        for kind, columns, rows, table in (
            ("moments", MOMENTS_COLUMNS, moments, ref.MOMENTS),
            ("var", VAR_COLUMNS, mean, ref.VAR_MEAN),
            ("es", ES_COLUMNS, mean, ref.ES_MEAN),
        )
    ]
    checked, expected = [], []
    for label in ref.RHO_LABELS:
        rho = parse_rho(label)
        at_rho = [row for row in sweep if row["rho"] == rho]
        reference = ref.VAR_CORR[(scenario, label)]
        tables.append((
            f"var_{scenario}_rho_{label.replace('/', '_')}",
            VAR_BETA_COLUMNS,
            at_rho,
            at_rho,
            _reference_rows(VAR_BETA_COLUMNS, reference),
        ))
        checked += at_rho
        expected += _reference_rows(SWEEP_COLUMNS, reference, rho)
    tables.append(
        (f"sweep_{scenario}", SWEEP_COLUMNS, sweep, checked, expected)
    )
    return tables


def _diff_rows(
    got: list[dict], expected: list[dict], table: str
) -> list[dict]:
    diffs = []
    for index, (grow, erow) in enumerate(zip(got, expected)):
        for key, expected_value in erow.items():
            if grow.get(key) != expected_value:
                diffs.append(
                    {
                        "table": table,
                        "row": index,
                        "column": key,
                        "got": grow.get(key),
                        "expected": expected_value,
                    }
                )
    if len(got) != len(expected):
        diffs.append(
            {
                "table": table,
                "row": min(len(got), len(expected)),
                "column": "<row count>",
                "got": str(len(got)),
                "expected": str(len(expected)),
            }
        )
    return diffs


def cmd_reproduce(out_dir: Path) -> int:
    """Regenerate every reference table and the sweep datasets.

    Writes one CSV per table plus ``manifest.json`` into ``out_dir``;
    returns the number of mismatched cells (0 means the full set of
    reference values was reproduced). Cells are compared as the emitted
    display strings.
    """
    import hashlib
    import json

    manifest: dict = {"version": __version__, "tables": {}}
    total_diffs = 0
    for scenario, p in ref.SCENARIOS.items():
        start = time.perf_counter()
        for name, columns, rows, checked, expected in _scenario_tables(
            scenario, p
        ):
            text = _render(rows, columns, "csv")
            path = _write(out_dir, f"{name}.csv", text)
            diffs = _diff_rows(_stringify(checked), _stringify(expected), name)
            total_diffs += len(diffs)
            manifest["tables"][name] = {
                "file": path.name,
                "sha256": hashlib.sha256(text.encode()).hexdigest(),
                "checked_cells": len(checked) * len(columns),
                "mismatches": diffs,
            }
            status = "OK" if not diffs else f"{len(diffs)} MISMATCHES"
            click.echo(f"{name}: {status}")
        elapsed = time.perf_counter() - start
        click.echo(f"scenario {scenario}: {elapsed:.1f} s", err=True)

    manifest["status"] = "pass" if total_diffs == 0 else "fail"
    manifest_text = json.dumps(manifest, sort_keys=True, indent=2) + "\n"
    _write(out_dir, "manifest.json", manifest_text)
    click.echo(
        f"manifest: {manifest['status']} "
        f"({len(manifest['tables'])} tables, {total_diffs} mismatches)"
    )
    return total_diffs


# ---------------------------------------------------------------------------
# Click wiring. Each command resolves its flags, builds its rows and
# writes them out itself; the group turns a usage or library error, or
# a directory that cannot be written, into one ``error:`` line, exit 2.


def _resolve(
    d: int,
    p: float | None,
    scenario: str | None,
    rho_text: str | None,
    alpha_text: str | None = None,
) -> tuple[ClassSpec, tuple[float, ...]]:
    """The class the flags name and the confidence levels, if any.

    The first fault wins, checked in this order: the usage check, then
    ``--rho``, then ``--alpha``, then the class's checks of d, p and rho.
    """
    if (p is None) == (scenario is None):
        raise click.UsageError("provide exactly one of --p or --scenario")
    rho = parse_rho(rho_text) if rho_text is not None else None
    alphas = _parse_alphas(alpha_text) if alpha_text is not None else ()
    p = p if p is not None else ref.SCENARIOS[scenario]
    # Imported after the flag checks: a refused flag loads no numpy.
    from .pmf import ClassSpec

    return ClassSpec(d, p, rho), alphas


def _write(directory: Path, name: str, text: str) -> Path:
    """Write ``text`` to ``directory / name``, creating the directory."""
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / name
    path.write_text(text, encoding="utf-8")
    return path


def _emit(out: Path | None, name: str, text: str) -> None:
    """Print ``text``, or write it to ``out / name`` and print the path."""
    if out is None:
        click.echo(text, nl=False)
    else:
        click.echo(str(_write(out, name, text)))


class _Commands(click.Group):
    _exit_hooked = False

    def main(self, *args, **kwargs):
        # At exit the interpreter's collections walk every object numpy,
        # click and the library left; frozen first, they walk none. An
        # exit handler, unlike os._exit, lets a caller's ``finally`` and
        # the other handlers run. Registered by the first command, not at
        # import, so code that only imports this module exits as before.
        if not _Commands._exit_hooked:
            _Commands._exit_hooked = True
            atexit.register(gc.freeze)
        return super().main(*args, **kwargs)

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.NoSuchOption as exc:
            # Without click's closest-match guess, which for an option
            # the command lacks names an unrelated one.
            click.echo(f"error: {exc.message}", err=True)
        except click.UsageError as exc:
            click.echo(f"error: {exc.format_message()}", err=True)
        except (BernraysError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_INFEASIBLE)


_cache_option = click.option(
    "--cache",
    type=click.Path(file_okay=False, path_type=Path),
    default=None,
    help="Directory for the ray-set cache; only rays uses it.",
)

_format_option = click.option(
    "--format",
    "fmt",
    type=click.Choice(("csv", "json")),
    default="csv",
    show_default=True,
    help="Output serialization.",
)

_rho_option = click.option(
    "--rho", "rho_text", default=None,
    help="Pairwise correlation target; accepts fractions like 1/6.",
)

_alpha_option = click.option(
    "--alpha",
    "alpha_text",
    default="0.90,0.95,0.99",
    show_default=True,
    help="Comma-separated confidence levels.",
)


def _class_options(fn):
    fn = _cache_option(fn)
    fn = click.option(
        "--out",
        type=click.Path(file_okay=False, path_type=Path),
        default=None,
        help="Write output into this directory instead of stdout.",
    )(fn)
    fn = click.option(
        "--scenario",
        type=click.Choice(sorted(ref.SCENARIOS)),
        default=None,
        help="Named rating scenario fixing p at d=100 defaults.",
    )(fn)
    fn = click.option(
        "--p", "p", type=float, default=None,
        help="Marginal default probability.",
    )(fn)
    fn = click.option(
        "--d", "d", type=int, default=ref.DEFAULT_D,
        show_default=True, help="Portfolio size.",
    )(fn)
    return fn


@click.group(cls=_Commands)
@click.version_option(__version__, prog_name="bernrays")
def main():
    """Extremal rays and sharp risk bounds for exchangeable defaults."""


@main.command("rays")
@_class_options
@_rho_option
def rays_command(d, p, scenario, rho_text, out, cache):
    """Enumerate extremal rays and emit the sparse ray-set file."""
    from .rayset_io import format_ray_set

    spec, _ = _resolve(d, p, scenario, rho_text)
    rays = _enumerate_cached(spec, cache)
    if out is not None:
        # Refused before the set is formatted, which takes ten times as
        # long as enumerating it.
        out.mkdir(parents=True, exist_ok=True)
    text = format_ray_set(rays)
    if out is None:
        click.echo(f"{len(rays)} rays", err=True)
        click.echo(text, nl=False)
    else:
        path = _write(out, f"rays_{_slug(spec)}.txt", text)
        click.echo(f"{len(rays)} rays -> {path}")


@main.command("bounds")
@_class_options
@_rho_option
@_alpha_option
@_format_option
def bounds_command(d, p, scenario, rho_text, alpha_text, fmt, out, cache):
    """Sharp VaR/ES bounds per confidence level."""
    spec, alphas = _resolve(d, p, scenario, rho_text, alpha_text)
    rows = _bounds_rows(spec, alphas)
    columns = BOUNDS_BETA_COLUMNS if spec.rho is not None else BOUNDS_COLUMNS
    _emit(out, f"bounds_{_slug(spec)}.{fmt}", _render(rows, columns, fmt))


@main.command("moments")
@_class_options
@_format_option
def moments_command(d, p, scenario, fmt, out, cache):
    """Sharp cross-moment and correlation bounds (orders 1 to min(4, d))."""
    spec, _ = _resolve(d, p, scenario, None)
    rows = _moments_rows(spec)
    _emit(out, f"moments_{_slug(spec)}.{fmt}",
          _render(rows, MOMENTS_COLUMNS, fmt))


@main.command("sweep")
@_class_options
@_alpha_option
@_format_option
@click.option(
    "--grid",
    type=click.IntRange(min=2),
    default=SWEEP_GRID,
    show_default=True,
    help="Number of equispaced correlation grid points in [0, 11/12].",
)
def sweep_command(d, p, scenario, alpha_text, fmt, grid, out, cache):
    """Bounds across a correlation grid, long format for plotting."""
    spec, alphas = _resolve(d, p, scenario, None, alpha_text)
    _emit(out, f"sweep_{_slug(spec)}.{fmt}",
          _render(_sweep_rows(spec, alphas, grid), SWEEP_COLUMNS, fmt))


@main.command("reproduce")
@click.option(
    "--out",
    type=click.Path(file_okay=False, path_type=Path),
    default=Path("reproduction"),
    show_default=True,
    help="Output directory for tables and manifest.",
)
@_cache_option
def reproduce_command(out, cache):
    """Regenerate all reference tables and verify every cell."""
    if cmd_reproduce(out):
        sys.exit(EXIT_MISMATCH)


if __name__ == "__main__":
    main()
