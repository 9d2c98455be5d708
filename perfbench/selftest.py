#!/usr/bin/env python3
"""Self-test of the benchmark.

Usage: ``python3 perfbench/selftest.py`` (about three minutes on two
cores).

Runs every workload once at minimal length, with tracing off and on,
and checks that:

- each run is correct and emits every metric ``BENCHMARK.json`` names
  for its mode, with the unit named there;
- the layer counts predicted for the current code come out exactly;
- nothing in the checkout changed, because every ``--out`` and
  ``--cache`` goes to a work directory under ``.bench_build/`` that the
  run removes;
- a directory holding only ``BENCHMARK.json`` and the benchmark's files
  makes the benchmark exit nonzero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD = ROOT / ".bench_build"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

RAYSET_COUNTS = (
    "rayset_io.format_ray_set.calls",
    "rayset_io.format_ray_set.bytes",
    "rayset_io.store_cached_rays.calls",
    "rayset_io.store_cached_rays.bytes",
    "rayset_io.parse_ray_set.calls",
    "rayset_io.parse_ray_set.bytes",
    "rayset_io.load_cached_rays.hits",
    "rayset_io.load_cached_rays.misses",
)

# Counts the traced run must report exactly, per workload.
EXPECTED_COUNTS = {
    "reproduce_cold": {
        "rays_corr.enumerate_rays.calls": 36,
        "rayset_io.store_cached_rays.calls": 39,
        "rayset_io.load_cached_rays.hits": 9,
        "rayset_io.load_cached_rays.misses": 39,
        "cli.class_requests": 48,
        "cli.class_requests.repeats": 9,
    },
    "reproduce_warm": {
        "rays_corr.enumerate_rays.calls": 0,
        "rayset_io.store_cached_rays.calls": 0,
        "rayset_io.load_cached_rays.hits": 48,
        "rayset_io.load_cached_rays.misses": 0,
        "cli.class_requests": 48,
        "cli.class_requests.repeats": 9,
    },
    "large_d": {name: 0 for name in RAYSET_COUNTS},
}


def snapshot() -> dict[str, tuple[int, int]]:
    """Size and mtime of every file in the checkout outside .git and the
    benchmark's own build directory."""
    files = {}
    for path in ROOT.rglob("*"):
        rel = path.relative_to(ROOT)
        if rel.parts[0] in (".git", ".bench_build") or not path.is_file():
            continue
        stat = path.stat()
        files[str(rel)] = (stat.st_size, stat.st_mtime_ns)
    return files


def run_bench(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "0", "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def check_run(workload: str, trace: int) -> list[str]:
    done = run_bench(ROOT, workload, trace)
    if done.returncode != 0:
        return [f"exit code {done.returncode}: {done.stderr[-500:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"run not correct: {done.stderr[-500:]}")
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    metrics = result["metrics"]
    for metric in wanted:
        got = metrics.get(metric["name"])
        if got is None:
            problems.append(f"{metric['name']} missing")
        elif got["unit"] != metric["unit"]:
            problems.append(f"{metric['name']} has unit {got['unit']}")
        elif not isinstance(got["value"], (int, float)):
            problems.append(f"{metric['name']} is not a number")
    extra = set(metrics) - {metric["name"] for metric in wanted}
    if extra:
        problems.append(f"metrics not in BENCHMARK.json: {sorted(extra)}")
    if trace:
        for name, want in EXPECTED_COUNTS[workload].items():
            value = metrics.get(name, {}).get("value")
            if value != want:
                problems.append(f"{name} = {value}, expected {want}")
    return problems


def check_bare_directory() -> list[str]:
    BUILD.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=BUILD))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path)
        done = run_bench(bare, SPEC["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        return ["a bare benchmark directory did not fail without a result"]
    return []


def main() -> int:
    before = snapshot()
    failures = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            problems = check_run(workload, trace)
            label = f"{workload} --trace {trace}"
            print(f"{'FAIL' if problems else 'ok  '} {label}", flush=True)
            failures += [f"{label}: {problem}" for problem in problems]
    problems = check_bare_directory()
    print(f"{'FAIL' if problems else 'ok  '} bare directory", flush=True)
    failures += problems
    after = snapshot()
    changed = sorted(set(before.items()) ^ set(after.items()))
    if changed:
        failures.append(f"checkout changed: {sorted({c[0] for c in changed})}")
    leftovers = sorted(p.name for p in BUILD.iterdir()) if BUILD.exists() else []
    if leftovers:
        failures.append(f"left behind in .bench_build: {leftovers}")
    for failure in failures:
        print(f"  {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
