"""Run the bernrays CLI with timing wrappers around each layer.

Usage: ``PERFBENCH_TRACE=<file> python3 traced_cli.py <cli args...>``

The wrappers are installed from outside the package: each wrapped
function is rebound under every name a ``bernrays`` module holds it by,
so callers that imported it with ``from ... import`` see the wrapper
too. Constructors are traced through their ``__post_init__`` hook. When
the command exits, per-layer call counts, sizes, busy time (outermost
calls only) and self time (busy time minus wrapped children) are
written as JSON to the file named by ``PERFBENCH_TRACE``. stdout and
every file the command writes are the same as without the wrappers.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time

_start = time.perf_counter()
import bernrays.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _start


def _rays_out(stats, args, result):
    stats["size"] += len(result)


def _rays_in(stats, args, result):
    stats["size"] += len(args[0])


def _bytes_out(stats, args, result):
    stats["size"] += len(result.encode())


def _bytes_in(stats, args, result):
    stats["size"] += len(args[0].encode())


def _file_out(stats, args, result):
    stats["size"] += os.path.getsize(result)


def _hit_or_miss(stats, args, result):
    stats["misses" if result is None else "hits"] += 1


# (layer, module, attribute path, measure). Several attributes may feed
# one layer; a measure adds a size or an outcome to the layer's stats.
WRAPS = (
    ("cli", "bernrays.cli", "main", None),
    ("rays_mean.enumerate_rays", "bernrays.rays_mean", "enumerate_rays",
     _rays_out),
    ("rays_mean.moment_bounds", "bernrays.rays_mean", "moment_bounds", None),
    ("rays_mean.RayDensity", "bernrays.rays_mean",
     "RayDensity.__post_init__", None),
    ("rays_corr.enumerate_rays", "bernrays.rays_corr", "enumerate_rays",
     _rays_out),
    ("risk.scan", "bernrays.risk", "risk_bounds", _rays_in),
    ("risk.scan", "bernrays.risk", "var_bounds_scan", _rays_in),
    ("risk.scan", "bernrays.risk", "es_bounds_scan", _rays_in),
    ("rayset_io.format_ray_set", "bernrays.rayset_io", "format_ray_set",
     _bytes_out),
    ("rayset_io.parse_ray_set", "bernrays.rayset_io", "parse_ray_set",
     _bytes_in),
    ("rayset_io.store_cached_rays", "bernrays.rayset_io",
     "store_cached_rays", _file_out),
    ("rayset_io.load_cached_rays", "bernrays.rayset_io", "load_cached_rays",
     _hit_or_miss),
    ("betamix.var", "bernrays.betamix", "var", None),
    ("cli.render", "bernrays.cli", "_render", _bytes_out),
)

# Counted without timing: ClassSpec is built once per validated
# correlated ray, and a timed wrapper there would double the overhead.
COUNTS = (("pmf.ClassSpec", "bernrays.pmf", "ClassSpec.__post_init__"),)

# The CLI's per-class entry point; its argument names the class asked for.
REQUESTS = ("cli.class_requests", "bernrays.cli", "_enumerate_cached")


class Recorder:
    """Per-layer stats and the stack of wrapped calls in progress."""

    def __init__(self):
        self.stats: dict[str, dict] = {}
        self.stack: list[list] = []
        self.requests: list[list] = []
        self.missing: list[str] = []

    def layer(self, name: str) -> dict:
        return self.stats.setdefault(
            name,
            {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "size": 0,
             "hits": 0, "misses": 0},
        )

    def timed(self, name, fn, measure):
        stats = self.layer(name)
        stack = self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            outer = all(frame[0] != name for frame in stack)
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                stats["calls"] += 1
                stats["self_s"] += elapsed - frame[1]
                if outer:
                    stats["busy_s"] += elapsed
            if measure is not None:
                measure(stats, args, result)
            return result

        return wrapper

    def counted(self, name, fn):
        stats = self.layer(name)

        def wrapper(*args, **kwargs):
            stats["calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def requested(self, name, fn):
        seen = set()
        requests = self.requests
        timed = self.timed(name, fn, None)
        stats = self.layer(name)
        stats["repeats"] = 0

        def wrapper(config, *args, **kwargs):
            key = (config.d, config.p, config.rho)
            if key in seen:
                stats["repeats"] += 1
            seen.add(key)
            rays = timed(config, *args, **kwargs)
            requests.append([config.d, config.p, config.rho, len(rays)])
            return rays

        return wrapper


def _lookup(module_name: str, path: str):
    """Return (owner, attribute name, original) or None if absent."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = getattr(owner, attr, None)
    if original is None:
        return None
    return owner, attr, original


def _rebind(owner, attr, original, wrapped) -> None:
    """Install ``wrapped`` wherever a bernrays module binds ``original``."""
    if isinstance(owner, type):
        setattr(owner, attr, wrapped)
        return
    for name, module in list(sys.modules.items()):
        if module is None or name.split(".")[0] != "bernrays":
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapped)


def install(recorder: Recorder) -> None:
    plans = [(layer, module, path, "timed", measure)
             for layer, module, path, measure in WRAPS]
    plans += [(layer, module, path, "counted", None)
              for layer, module, path in COUNTS]
    plans.append((*REQUESTS, "requested", None))
    for layer, module, path, kind, measure in plans:
        found = _lookup(module, path)
        if found is None:
            recorder.missing.append(f"{module}.{path}")
            continue
        owner, attr, original = found
        if kind == "timed":
            wrapped = recorder.timed(layer, original, measure)
        elif kind == "counted":
            wrapped = recorder.counted(layer, original)
        else:
            wrapped = recorder.requested(layer, original)
        _rebind(owner, attr, original, wrapped)


def main() -> None:
    out_path = os.environ["PERFBENCH_TRACE"]
    recorder = Recorder()
    install(recorder)
    try:
        bernrays.cli.main(prog_name="bernrays")
    finally:
        record = {
            "import_s": IMPORT_S,
            "missing": recorder.missing,
            "layers": recorder.stats,
            "requests": recorder.requests,
        }
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(record, handle)


if __name__ == "__main__":
    main()
