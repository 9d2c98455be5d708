#!/usr/bin/env python3
"""Benchmark of the ``bernrays`` command line tool.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each CLI command runs in a fresh child process of the checkout's
``src/`` tree, one child at a time: a closed loop with a single client.
An iteration is the workload's list of commands; iterations repeat
until the next one would end after ``--seconds``. Every output is
checked, against digests recorded in ``golden.json`` and against
oracles that hold for any seed. The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it carries provenance, the classes drawn and the raw samples.

With ``--trace 0`` the metrics are the end-to-end ones. With
``--trace 1`` each iteration is run twice, plain and then through
``traced_cli.py``, and the metrics are per layer. Workloads and
metrics are listed in the repository's ``BENCHMARK.json`` and explained
in ``README.md`` next to this file.

``--record-golden`` re-records ``golden.json`` from the current code.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.metadata
import io
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
GOLDEN = BENCH_DIR / "golden.json"
TRACED_CLI = BENCH_DIR / "traced_cli.py"

# What the installed ``bernrays`` console script runs.
ENTRY = "import sys; from bernrays.cli import main; sys.exit(main())"

WORKLOADS = ("reproduce_cold", "reproduce_warm", "large_d")
SETUP_LAUNCHES = 7
# Children still running this long after the start are killed, so a hung
# command fails the run instead of outliving its time limit.
RUN_LIMIT_S = 170.0
DEFAULT_SEED = 0
GOLDEN_ITERATIONS = 6

# large_d strata: the seed draws each class from these ranges.
DENSE = {"d": 200, "p": (0.2, 0.3), "rho": (0.1, 0.2)}
SPARSE = {"d": 200, "p": (0.01, 0.03), "rho": (0.7, 0.9)}
MEAN_D = 400
MEAN_P = (0.2, 0.3)

ALPHA_LABELS = ("0.9", "0.95", "0.99")
MOMENT_ORDERS = ("1", "2", "3", "4", "rho")

MIB = 1024 * 1024

# Per-layer metrics: layer -> {metric suffix: field of the traced stats}.
LAYER_FIELDS = {
    "rays_corr.enumerate_rays": {"calls": "calls", "rays": "size",
                                 "busy_s": "busy_s", "self_s": "self_s"},
    "rays_mean.enumerate_rays": {"calls": "calls", "rays": "size",
                                 "busy_s": "busy_s"},
    "rays_mean.moment_bounds": {"calls": "calls", "busy_s": "busy_s"},
    "rays_mean.RayDensity": {"built": "calls", "busy_s": "busy_s"},
    "pmf.ClassSpec": {"built": "calls"},
    "risk.scan": {"calls": "calls", "rays": "size", "busy_s": "busy_s"},
    "rayset_io.format_ray_set": {"calls": "calls", "bytes": "size",
                                 "busy_s": "busy_s"},
    "rayset_io.store_cached_rays": {"calls": "calls", "bytes": "size",
                                    "busy_s": "busy_s"},
    "rayset_io.parse_ray_set": {"calls": "calls", "bytes": "size",
                                "busy_s": "busy_s", "self_s": "self_s"},
    "rayset_io.load_cached_rays": {"hits": "hits", "misses": "misses",
                                   "busy_s": "busy_s"},
    "cli.class_requests": {"": "calls", "repeats": "repeats"},
    "cli.render": {"calls": "calls", "bytes": "size", "busy_s": "busy_s"},
    "cli": {"self_s": "self_s"},
    "betamix.var": {"calls": "calls", "busy_s": "busy_s"},
}


def unit_of(metric: str) -> str:
    suffix = metric.rsplit(".", 1)[-1]
    if suffix.endswith("_s"):
        return "s"
    if suffix == "bytes":
        return "bytes"
    if suffix.endswith("_mb"):
        return "MiB"
    return "count"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def tree_bytes(path: Path) -> int:
    if not path.exists():
        return 0
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def reset_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)


# ---------------------------------------------------------------------------
# Launching and checking CLI commands.


@dataclass
class Launch:
    args: list[str]
    rc: int
    wall_s: float
    cpu_s: float
    rss_mib: float
    stdout: bytes
    stderr: bytes
    trace: dict | None = None


@dataclass
class Command:
    args: list[str]
    check: Callable[[Launch], list[str]]


class Runner:
    """Launches children one at a time and tallies checked outcomes."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(SRC)
        # Bytecode is never written, so the checkout stays as it was and
        # every launch compiles the package the same way.
        self.env["PYTHONDONTWRITEBYTECODE"] = "1"
        self.env.pop("PYTHONPYCACHEPREFIX", None)
        self.env.pop("PERFBENCH_TRACE", None)

    def launch(self, args: list[str], traced: bool = False) -> Launch:
        out_path = self.work / "stdout"
        err_path = self.work / "stderr"
        trace_path = self.work / "trace.json"
        env = self.env
        if traced:
            argv = [sys.executable, str(TRACED_CLI), *args]
            env = dict(env, PERFBENCH_TRACE=str(trace_path))
            trace_path.unlink(missing_ok=True)
        else:
            argv = [sys.executable, "-c", ENTRY, *args]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env,
                                    cwd=self.work)
            limit = max(1.0, self.deadline - time.monotonic())
            killer = threading.Timer(limit, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        trace = None
        if traced and trace_path.exists():
            trace = json.loads(trace_path.read_text(encoding="utf-8"))
        return Launch(
            args=args,
            rc=proc.returncode,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mib=usage.ru_maxrss * 1024 / MIB,
            stdout=out_path.read_bytes(),
            stderr=err_path.read_bytes(),
            trace=trace,
        )

    def run(self, command: Command, traced: bool = False) -> Launch:
        launch = self.launch(command.args, traced)
        problems = []
        if launch.rc != 0:
            problems.append(f"exit code {launch.rc}")
        if b"Traceback" in launch.stderr:
            problems.append("traceback on stderr")
        if traced and launch.trace is None:
            problems.append("no trace written")
        if not problems:
            try:
                problems = command.check(launch)
            except Exception as exc:  # malformed output fails the command
                problems = [f"check raised {exc!r}"]
        self.attempted += 1
        if problems:
            self.failed += 1
            shown = " ".join(a for a in command.args if "/" not in a)
            self.errors.append(f"{shown}: {'; '.join(problems)}")
        return launch


def load_golden() -> dict:
    if not GOLDEN.exists():
        return {"reproduce": None, "commands": {}}
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def parse_csv(text: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text.decode())))


# ---------------------------------------------------------------------------
# Workloads.


class Reproduce:
    """``bernrays reproduce`` into a fresh output directory.

    Cold empties the cache before every iteration (a user's first run);
    warm primes it once during set-up and only reads it afterwards.
    """

    def __init__(self, work: Path, warm: bool, golden: dict):
        self.out = work / "out"
        self.cache = work / "cache"
        self.warm = warm
        self.golden = golden["reproduce"]

    def setup(self, runner: Runner) -> None:
        reset_dir(self.cache)
        if self.warm:
            self.prepare(0)
            for command in self.commands(0):
                runner.run(command)

    def prepare(self, k: int) -> None:
        reset_dir(self.out)
        if not self.warm:
            reset_dir(self.cache)

    def commands(self, k: int) -> list[Command]:
        args = ["reproduce", "--out", str(self.out), "--cache", str(self.cache)]
        return [Command(args, self.check)]

    def classes(self, k: int) -> list[dict]:
        return []

    def cache_mb(self) -> float:
        return tree_bytes(self.cache) / MIB

    def outputs(self, launch: Launch) -> dict:
        files = {p.name: sha256(p.read_bytes())
                 for p in sorted(self.out.iterdir())}
        return {"stdout": sha256(launch.stdout), "files": files}

    def check(self, launch: Launch) -> list[str]:
        problems = []
        manifest_path = self.out / "manifest.json"
        if not manifest_path.exists():
            return ["no manifest.json"]
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        if manifest.get("status") != "pass":
            problems.append(f"manifest status {manifest.get('status')!r}")
        if self.golden is None:
            return problems + ["no recorded digests"]
        got = self.outputs(launch)
        if got["stdout"] != self.golden["stdout"]:
            problems.append("stdout digest differs")
        if sorted(got["files"]) != sorted(self.golden["files"]):
            problems.append("set of table files differs")
        changed = [name for name, digest in got["files"].items()
                   if self.golden["files"].get(name, digest) != digest]
        if changed:
            problems.append(f"digests differ: {', '.join(changed)}")
        return problems


def _draw(u: float, bounds: tuple[float, float], places: int) -> str:
    low, high = bounds
    return f"{low + u * (high - low):.{places}f}"


class LargeD:
    """Seeded d=200 correlated and d=400 mean-class queries, no cache.

    Iteration ``k`` draws a dense and a sparse correlated class and one
    mean class from the strata above, so the inputs depend on the seed
    alone and successive iterations spread over the strata. Iterations
    come in antithetic pairs: the odd one mirrors each uniform draw
    ``u`` of the even one to ``1 - u``. Work grows with p and rho, so a
    pair's mean work varies far less between seeds than one draw's.
    """

    def __init__(self, seed: int, golden: dict):
        self.seed = seed
        self.golden = golden["commands"]
        self._oracle = None

    def setup(self, runner: Runner) -> None:
        pass

    def prepare(self, k: int) -> None:
        pass

    def cache_mb(self) -> float:
        return 0.0

    def classes(self, k: int) -> list[dict]:
        rng = random.Random(f"large_d:{self.seed}:{k // 2}")
        u = [rng.random() for _ in range(5)]
        if k % 2:
            u = [1.0 - x for x in u]
        dense = {"d": DENSE["d"], "p": _draw(u[0], DENSE["p"], 3),
                 "rho": _draw(u[1], DENSE["rho"], 3)}
        sparse = {"d": SPARSE["d"], "p": _draw(u[2], SPARSE["p"], 4),
                  "rho": _draw(u[3], SPARSE["rho"], 3)}
        mean = {"d": MEAN_D, "p": _draw(u[4], MEAN_P, 3), "rho": None}
        return [dense, sparse, mean]

    def commands(self, k: int) -> list[Command]:
        commands = []
        for cls in self.classes(k):
            args = ["--d", str(cls["d"]), "--p", cls["p"]]
            if cls["rho"] is None:
                commands.append(Command(["bounds", *args], self.check_mean))
                commands.append(Command(["moments", *args], self.check_moments))
            else:
                args += ["--rho", cls["rho"]]
                commands.append(Command(["bounds", *args], self.check_corr))
        return commands

    def digest_problems(self, launch: Launch) -> list[str]:
        want = self.golden.get(" ".join(launch.args))
        if want is not None and want != sha256(launch.stdout):
            return ["stdout digest differs"]
        return []

    def closed_form(self, d: int, p: float, alpha: float) -> tuple[int, int]:
        if self._oracle is None:
            sys.path.insert(0, str(SRC))
            from bernrays.pmf import ClassSpec
            from bernrays.risk import var_bounds_mean_closed_form

            self._oracle = (ClassSpec, var_bounds_mean_closed_form)
        spec_type, closed_form = self._oracle
        return closed_form(spec_type(d, p), alpha)

    def bounds_rows(self, launch: Launch, columns: list[str]):
        rows = parse_csv(launch.stdout)
        if not rows or list(rows[0]) != columns:
            return None, [f"columns are not {columns}"]
        if [row["alpha"] for row in rows] != list(ALPHA_LABELS):
            return None, ["unexpected alpha rows"]
        return rows, []

    def check_mean(self, launch: Launch) -> list[str]:
        columns = ["alpha", "var_min", "var_max", "es_min", "es_max"]
        rows, problems = self.bounds_rows(launch, columns)
        if rows is None:
            return problems
        d, p = int(launch.args[2]), float(launch.args[4])
        for row in rows:
            want = self.closed_form(d, p, float(row["alpha"]))
            got = (int(row["var_min"]), int(row["var_max"]))
            if got != tuple(want):
                problems.append(
                    f"alpha {row['alpha']}: VaR {got} != closed form {want}")
        return problems + self.digest_problems(launch)

    def check_corr(self, launch: Launch) -> list[str]:
        columns = ["alpha", "var_min", "var_max", "es_min", "es_max",
                   "beta_var"]
        rows, problems = self.bounds_rows(launch, columns)
        if rows is None:
            return problems
        for row in rows:
            low, high = int(row["var_min"]), int(row["var_max"])
            beta = row["beta_var"]
            if not beta or not low <= int(beta) <= high:
                problems.append(
                    f"alpha {row['alpha']}: beta_var {beta!r} outside "
                    f"[{low}, {high}]")
        return problems + self.digest_problems(launch)

    def check_moments(self, launch: Launch) -> list[str]:
        rows = parse_csv(launch.stdout)
        if [row.get("order") for row in rows] != list(MOMENT_ORDERS):
            return ["unexpected moment rows"]
        problems = [f"order {row['order']}: lower above upper"
                    for row in rows if float(row["lower"]) > float(row["upper"])]
        return problems + self.digest_problems(launch)


def make_workload(name: str, work: Path, seed: int, golden: dict):
    if name == "large_d":
        return LargeD(seed, golden)
    return Reproduce(work, warm=name == "reproduce_warm", golden=golden)


# ---------------------------------------------------------------------------
# Measurement.


@dataclass(frozen=True)
class _ProbeRay:
    support: tuple[int, ...]
    masses: tuple[float, ...]

    def __post_init__(self):
        if math.fsum(self.masses) > 1.0 + 1e-12 or self.support[0] < 0:
            raise ValueError("probe ray out of range")


def host_probe_s() -> float:
    """Median time of a fixed task that mixes the program's kinds of work
    (arithmetic on arrays of a few MB, small validated dataclasses, text
    formatting and parsing) without running any program code."""

    def once() -> float:
        start = time.perf_counter()
        values = np.arange(400_000, dtype=float)
        for _ in range(8):
            values = (values * 1.5 + 2.0) / (values + 1.0)
        rays = [_ProbeRay((i, i + 1), (0.25, 0.75)) for i in range(15_000)]
        text = "\n".join(
            ";".join(f"{s}:{m:.17g}" for s, m in zip(ray.support, ray.masses))
            for ray in rays)
        parsed = [[float(pair.split(":")[1]) for pair in line.split(";")]
                  for line in text.split("\n")]
        elapsed = time.perf_counter() - start
        if len(parsed) != len(rays) or not np.isfinite(values).all():
            raise RuntimeError("host probe computed a wrong result")
        return elapsed

    return statistics.median(once() for _ in range(3))


class HostClock:
    """Scales launch times to a host of reference speed.

    On small shared machines the same command can take 1.8x longer from
    one minute to the next, with the load average unchanged, because
    neighbours compete for the cores and caches. The probe slows down
    with them. Each iteration and each set-up launch is timed between
    two probes, and its times are multiplied by ``PROBE_REF_S`` over
    the mean of those probes: seconds on a host where the probe takes
    ``PROBE_REF_S``. The probe runs no program code, so no change to
    the program can move it. Raw times are kept in the record next to
    the scale factors.
    """

    PROBE_REF_S = 0.07

    def __init__(self):
        self.probes = [host_probe_s()]

    def scale(self) -> float:
        """Probe again and return the factor for the span since the last
        probe."""
        self.probes.append(host_probe_s())
        return self.PROBE_REF_S / statistics.mean(self.probes[-2:])


@dataclass
class Iteration:
    wall_s: float
    cpu_s: float
    rss_mib: float
    scale: float
    traces: list[dict] = field(default_factory=list)
    cache_mb: float = 0.0

    @property
    def scaled_wall_s(self) -> float:
        return self.wall_s * self.scale


def run_iteration(runner: Runner, clock: HostClock, workload, k: int,
                  traced: bool) -> Iteration:
    workload.prepare(k)
    launches = [runner.run(command, traced) for command in workload.commands(k)]
    return Iteration(
        wall_s=sum(launch.wall_s for launch in launches),
        cpu_s=sum(launch.cpu_s for launch in launches),
        rss_mib=max(launch.rss_mib for launch in launches),
        scale=clock.scale(),
        traces=[launch.trace for launch in launches if launch.trace],
        cache_mb=workload.cache_mb(),
    )


def measure_setup(runner: Runner, clock: HostClock) -> list[tuple[float, float]]:
    """(raw wall, scale) of each fresh ``--version`` launch."""

    def check(launch: Launch) -> list[str]:
        if not launch.stdout.startswith(b"bernrays, version "):
            return ["unexpected --version output"]
        return []

    version = Command(["--version"], check)
    return [(runner.run(version).wall_s, clock.scale())
            for _ in range(SETUP_LAUNCHES)]


def measure(runner: Runner, clock: HostClock, workload, seconds: float,
            traced: bool):
    """Run iterations (plain, or plain then traced) until the next one
    would end after ``seconds``. Returns (plain, traced) iterations."""
    plain: list[Iteration] = []
    with_trace: list[Iteration] = []
    start = time.perf_counter()
    k = 0
    while True:
        plain.append(run_iteration(runner, clock, workload, k, traced=False))
        if traced:
            with_trace.append(
                run_iteration(runner, clock, workload, k, traced=True))
        k += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / k > seconds:
            return plain, with_trace


def sum_layers(traces: list[dict]) -> dict:
    """Add up per-layer stats over the commands of one iteration."""
    totals: dict[str, dict] = {}
    for trace in traces:
        for layer, stats in trace["layers"].items():
            into = totals.setdefault(layer, {})
            for key, value in stats.items():
                into[key] = into.get(key, 0) + value
    return totals


def layer_metrics(plain: list[Iteration], traced: list[Iteration]):
    """Counts come from the first traced iteration, so they depend on the
    seed alone; layer times are raw medians over the traced iterations,
    and the tracing overhead compares scaled iteration times."""
    first = sum_layers(traced[0].traces)
    per_iteration = [sum_layers(it.traces) for it in traced]
    missing = sorted({m for t in traced[0].traces for m in t["missing"]})
    metrics = {}
    for layer, fields in LAYER_FIELDS.items():
        if layer not in first:
            continue
        for suffix, key in fields.items():
            name = f"{layer}.{suffix}" if suffix else layer
            if unit_of(name) == "s":
                value = statistics.median(
                    t.get(layer, {}).get(key, 0.0) for t in per_iteration)
            else:
                value = first[layer][key]
            metrics[name] = value
    imports = [t["import_s"] for it in traced for t in it.traces]
    if imports:
        metrics["cli.import_s"] = statistics.median(imports)
    metrics["trace.overhead_s"] = statistics.median(
        t.scaled_wall_s - p.scaled_wall_s for p, t in zip(plain, traced))
    metrics["cache_mb"] = traced[0].cache_mb
    return metrics, missing


def end_to_end_metrics(plain: list[Iteration], setup) -> dict:
    """Times are medians scaled to the reference host (see HostClock)."""
    return {
        "wall_s": statistics.median(it.scaled_wall_s for it in plain),
        "cpu_s": statistics.median(it.cpu_s * it.scale for it in plain),
        "peak_rss_mb": max(it.rss_mib for it in plain),
        "setup_s": statistics.median(wall * scale for wall, scale in setup),
    }


# ---------------------------------------------------------------------------
# Provenance.


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def src_digest() -> str:
    """Digest of every file under ``src/``: names the code measured when
    the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(seed: int) -> dict:
    versions = {}
    for package in ("numpy", "scipy", "click"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        **versions,
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Entry points.


def run(args: argparse.Namespace) -> int:
    deadline = time.monotonic() + RUN_LIMIT_S
    record = {"workload": args.workload, "provenance": provenance(args.seed),
              "load_before": os.getloadavg()[0]}
    BUILD.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=BUILD))
    try:
        runner = Runner(work, deadline)
        workload = make_workload(args.workload, work, args.seed, load_golden())
        clock = HostClock()
        setup = measure_setup(runner, clock)
        workload.setup(runner)
        clock.scale()
        plain, traced = measure(runner, clock, workload, args.seconds,
                                args.trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["load_after"] = os.getloadavg()[0]
    record["classes"] = [workload.classes(k) for k in range(len(plain))]
    record["samples"] = {
        "raw_setup_s": [wall for wall, _ in setup],
        "setup_scale": [scale for _, scale in setup],
        "raw_wall_s": [it.wall_s for it in plain],
        "raw_cpu_s": [it.cpu_s for it in plain],
        "scale": [it.scale for it in plain],
        "peak_rss_mb": [it.rss_mib for it in plain],
        "raw_traced_wall_s": [it.wall_s for it in traced],
        "traced_scale": [it.scale for it in traced],
        "host_probe_s": clock.probes,
    }
    if args.trace:
        metrics, record["missing_layers"] = layer_metrics(plain, traced)
        record["rays_per_class"] = [
            request for it in traced for t in it.traces
            for request in t["requests"]]
    else:
        metrics = end_to_end_metrics(plain, setup)
    record["errors"] = runner.errors
    for error in runner.errors:
        print(f"error: {error}", file=sys.stderr)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }
    if args.out is not None:
        args.out.write_text(json.dumps({**record, "result": result},
                                       indent=2) + "\n", encoding="utf-8")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


def record_golden() -> int:
    """Record output digests of the current code: ``reproduce`` and the
    first large_d iterations of the default seed. Oracles still apply."""
    BUILD.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=BUILD))
    empty = {"reproduce": None, "commands": {}}
    try:
        runner = Runner(work, time.monotonic() + 3600.0)
        cold = Reproduce(work, warm=False, golden=empty)
        cold.prepare(0)
        launch = runner.launch(cold.commands(0)[0].args)
        manifest = json.loads((cold.out / "manifest.json").read_text())
        if launch.rc != 0 or manifest["status"] != "pass":
            print("reproduce failed", file=sys.stderr)
            return 1
        golden = {"reproduce": cold.outputs(launch), "commands": {}}
        large = LargeD(DEFAULT_SEED, empty)
        for k in range(GOLDEN_ITERATIONS):
            for command in large.commands(k):
                launch = runner.run(command)
                golden["commands"][" ".join(command.args)] = sha256(
                    launch.stdout)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if runner.failed:
        print("\n".join(runner.errors), file=sys.stderr)
        return 1
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="also write the full record to this file")
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args()
    if not (SRC / "bernrays" / "cli.py").is_file():
        print(f"error: no bernrays sources under {SRC}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    if args.record_golden:
        return record_golden()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
