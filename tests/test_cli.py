"""Command-line surface: argument handling, serialization formats,
byte determinism, the ray-set cache, and exit codes."""

import csv
import gc
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import bernrays
from bernrays import (
    ClassSpec,
    RaySet,
    __version__,
    cli,
    rays_corr,
    rays_mean,
    rayset_io,
    risk,
)
from bernrays import _reference_tables as ref
from bernrays.errors import (
    IndexOutOfRange,
    InvalidSpec,
    LengthMismatch,
    MeanMismatch,
    NotNormalized,
)
from bernrays.rayset_io import (
    format_ray_set,
    load_cached_rays,
    parse_ray_set,
    store_cached_rays,
)


def run(*args):
    return CliRunner().invoke(cli.main, list(args), catch_exceptions=False)


# sha256 of the stdout of `rays`, recorded before ray sets became arrays.
RAYS_SHA256 = {
    ("--d", "100", "--p", "0.266", "--rho", "1/6"):
        "75c37d5cf1e134bbd8d1d69ff849f5b03a7b423408d05bbdf79b05dd4bbfc6c0",
    ("--d", "200", "--p", "0.0196", "--rho", "0.879"):
        "59793f3f85eb61bbeb91c733f856b4ddc22dad3294d8768903b20416367f94af",
    ("--d", "400", "--p", "0.282"):
        "590c41762e022255b17cd68ae255b753fae973d3c4ebefe7799d3b7910ccbacd",
}

# Cached (support, masses) rows that break one ray check each, for
# (d=4, p=0.5, rho=1/4), with the words of the check that rejects them.
# A short ray repeats its last point with zero mass, as RaySet pads.
BAD_RAY_ROWS = {
    "order": ([2, 0, 0], [0.5, 0.5, 0.0], "not strictly increasing"),
    "repeated point": ([1, 3, 3], [0.25, 0.375, 0.375],
                       "not strictly increasing"),
    "range": ([0, 5, 5], [0.6, 0.4, 0.0], "escapes"),
    "non-positive mass": ([0, 4, 4], [1.0, 0.0, 0.0], "non-positive mass"),
    "sum": ([0, 4, 4], [0.5, 0.6, 0.0], "do not sum to 1"),
    "mean": ([1, 3, 3], [0.40625, 0.59375, 0.0], "misses the mean"),
    "second moment": ([1, 3, 3], [0.5, 0.5, 0.0],
                      "misses the second moment"),
}

# Malformed ray lines under the header of (d=4, p=0.5, rho=1/4), with
# the error parse_ray_set raises for each.
BAD_RAY_LINES = {
    "0:1;0:0": IndexOutOfRange,
    "2:0.5;0:0.5": IndexOutOfRange,
    "0:0.6;5:0.4": IndexOutOfRange,
    "0:0.25;1:0.25;3:0.25;4:0.25": LengthMismatch,
    "0;1": LengthMismatch,
    "-1:0.5;3:0.5": LengthMismatch,
    "0:abc": LengthMismatch,
    "0:1;4:0": NotNormalized,
    "0:0.5;4:0.6": NotNormalized,
    "1:0.40625;3:0.59375": MeanMismatch,
    "1:0.5;3:0.5": MeanMismatch,
}

# rays is the only command that reads or writes the cache.
SMALL_CLASS = ("rays", "--d", "4", "--p", "0.5", "--rho", "1/4")
SMALL_SPEC = ClassSpec(4, 0.5, 0.25)

# For each table command: its arguments, then per format the name of the
# file `--out` writes and the sha256 of its bytes, which stdout carries
# too when `--out` is absent.
TABLE_OUTPUTS = {
    ("bounds", "--scenario", "B", "--rho", "1/6"): {
        "csv": (
            "bounds_d100_p0.266_rho0.166667.csv",
            "782f992261f984638d37fc789e4ba36192444ad7799847d01b25d3d40d2b52f2",
        ),
        "json": (
            "bounds_d100_p0.266_rho0.166667.json",
            "6cb985160a71f88ee5940d2ce05b6ab984502d2d6dd34e098c26521b06ba6e5c",
        ),
    },
    ("moments", "--scenario", "BBB"): {
        "csv": (
            "moments_d100_p0.017.csv",
            "f1f2bed2f1274000e1e8c26fbd98df4d273cce1cbfd58b47a66d8c45bfaa96d3",
        ),
        "json": (
            "moments_d100_p0.017.json",
            "3f8636181d971e5e895d7ed51c9935f342fecf3e430d9c37c6deb9603833f575",
        ),
    },
    ("sweep", "--d", "30", "--p", "0.266", "--grid", "4"): {
        "csv": (
            "sweep_d30_p0.266.csv",
            "11455194687232094ad007e8a974f9c0ef9c79daa8b08e06d0be90514c048645",
        ),
        "json": (
            "sweep_d30_p0.266.json",
            "5c69b3ad3a53d63de12206a4347bfffa8ec2797c70e8fbf493c3fcd5a6609969",
        ),
    },
}
TABLE_CASES = [
    (args, fmt) for args, formats in TABLE_OUTPUTS.items() for fmt in formats
]


def read_records(path):
    """The key, support and masses records of a cache file."""
    with path.open("rb") as handle:
        return [np.load(handle) for _ in range(3)]


def write_signed(path, data):
    """Overwrite a cache file with ``data`` and a matching sidecar."""
    path.write_bytes(data)
    path.with_suffix(".sha256").write_text(
        hashlib.sha256(data).hexdigest() + "\n"
    )


def write_entry(path, records):
    """Overwrite a cache file with ``records``, signed."""
    buffer = io.BytesIO()
    for array in records:
        np.save(buffer, array, allow_pickle=True)
    write_signed(path, buffer.getvalue())


def _flip_last_byte(path):
    data = path.read_bytes()
    path.write_bytes(data[:-1] + bytes([data[-1] ^ 1]))


def _stale_sidecar(path):
    path.with_suffix(".sha256").write_text("0" * 64 + "\n")


def _negative_shape(path):
    # The masses record announces shape (-1, 3) over the same bytes.
    key, support, masses = read_records(path)
    buffer = io.BytesIO()
    np.save(buffer, key)
    np.save(buffer, support)
    np.lib.format.write_array_header_1_0(
        buffer, {"descr": "<f8", "fortran_order": False, "shape": (-1, 3)}
    )
    write_signed(path, buffer.getvalue() + masses.tobytes())


def _npy_version_2(path):
    buffer = io.BytesIO()
    for array in read_records(path):
        np.lib.format.write_array(buffer, array, version=(2, 0))
    write_signed(path, buffer.getvalue())


def _with_record(slot, change):
    def mutate(path):
        records = read_records(path)
        records[slot] = change(records[slot])
        write_entry(path, records)
    return mutate


# Damage to a cached (d=4, p=0.5, rho=1/4) entry that must read as a
# miss; all but the first two come with a matching sidecar.
BAD_ENTRIES = {
    "flipped bytes": _flip_last_byte,
    "stale sidecar": _stale_sidecar,
    "truncated": lambda path: write_signed(path, path.read_bytes()[:-5]),
    "trailing bytes": lambda path: write_signed(
        path, path.read_bytes() + b"\0" * 8
    ),
    "float support": _with_record(1, lambda a: a.astype(np.float64)),
    "int32 support": _with_record(1, lambda a: a.astype(np.int32)),
    # Same bytes as the int64 record, so only the dtype tells.
    "uint64 support": _with_record(1, lambda a: a.astype(np.uint64)),
    "float32 masses": _with_record(2, lambda a: a.astype(np.float32)),
    "two columns": _with_record(1, lambda a: a[:, :2]),
    "short masses": _with_record(2, lambda a: a[:-1]),
    "flat support": _with_record(1, lambda a: a.ravel()),
    "long key": _with_record(0, lambda a: np.append(a, 0.0)),
    "key d": _with_record(0, lambda a: a + [1.0, 0.0, 0.0]),
    "key p": _with_record(0, lambda a: a * [1.0, 1.5, 1.0]),
    "key rho": _with_record(0, lambda a: a * [1.0, 1.0, 0.5]),
    "key without rho": _with_record(0, lambda a: a * [1.0, 1.0, np.nan]),
    "pickled masses": _with_record(2, lambda a: a.astype(object)),
    "negative shape": _negative_shape,
    "npy version 2.0": _npy_version_2,
}


# One mean-only and one correlated class, for the round trips.
ROUNDTRIP_SPECS = {
    "mean": ClassSpec(10, 0.31),
    "corr": ClassSpec(20, 0.266, 1 / 6),
}


class TestRaySetFormat:
    @pytest.mark.parametrize("name", list(ROUNDTRIP_SPECS))
    def test_roundtrip_is_exact(self, name):
        spec = ROUNDTRIP_SPECS[name]
        rays = bernrays.enumerate_rays(spec)
        text = format_ray_set(rays)
        parsed = parse_ray_set(text)
        assert parsed.spec == rays.spec == spec
        assert (parsed.d, parsed.spec.p, parsed.spec.rho) == (
            spec.d, spec.p, spec.rho
        )
        assert len(parsed) == len(rays)
        for got, want in zip(parsed, rays):
            assert got.support == want.support
            assert got.masses == want.masses

    def test_mean_only_header_has_an_empty_rho_field(self):
        rays = rays_mean.enumerate_rays(ClassSpec(10, 0.31))
        text = format_ray_set(rays)
        fields = text.splitlines()[0].split(",")
        assert fields[0] == "10"
        assert float(fields[1]) == 0.31
        assert fields[2] == ""
        assert fields[3] == str(len(rays))
        assert parse_ray_set(text).spec.rho is None

    def test_header_count_must_match(self):
        rays = rays_mean.enumerate_rays(ClassSpec(10, 0.31))
        text = format_ray_set(rays)
        clipped = "\n".join(text.splitlines()[:-1]) + "\n"
        with pytest.raises(LengthMismatch):
            parse_ray_set(clipped)

    @pytest.mark.parametrize("header", ["4,0.5,0.25", "4,0.5,0.25,1,1"])
    def test_a_header_of_other_than_four_fields_raises(self, header):
        with pytest.raises(LengthMismatch):
            parse_ray_set(f"{header}\n0:0.25;2:0.5;4:0.25\n")

    @pytest.mark.parametrize("line", list(BAD_RAY_LINES))
    def test_a_malformed_line_raises(self, line):
        with pytest.raises(ValueError) as caught:
            parse_ray_set(f"4,0.5,0.25,1\n{line}\n")
        assert type(caught.value) is BAD_RAY_LINES[line]

    @pytest.mark.parametrize("header", ["4,0,,1", "0,0.5,,1"])
    def test_a_header_naming_an_invalid_class_raises(self, header):
        # The point mass at 0 meets the mean 0 that either header implies.
        with pytest.raises(InvalidSpec):
            parse_ray_set(f"{header}\n0:1\n")

    @pytest.mark.parametrize(
        "header", ["abc,0.5,,0", "4.5,0.5,,0", "4,0.5,abc,0", "4,0.5,,x"])
    def test_a_header_field_that_is_no_number_raises(self, header):
        with pytest.raises(InvalidSpec, match="malformed ray-set header"):
            parse_ray_set(f"{header}\n")


class TestRaySetCache:
    def test_store_then_load(self, tmp_path):
        for name, spec in (("mean", ClassSpec(30, 0.21)),
                           ("corr", ROUNDTRIP_SPECS["corr"])):
            entry = tmp_path / name
            rays = bernrays.enumerate_rays(spec)
            store_cached_rays(entry, rays, __version__)
            assert len(list(entry.glob("rayset_*.bin"))) == 1
            assert len(list(entry.glob("rayset_*.sha256"))) == 1
            back = load_cached_rays(entry, spec, __version__)
            assert back is not None
            assert back.spec == rays.spec == spec
            assert [r.support for r in back] == [r.support for r in rays]
            assert np.array_equal(back.masses, rays.masses)

    def test_entry_is_three_npy_records(self, tmp_path):
        rays = rays_corr.enumerate_rays(ClassSpec(20, 0.266, 1 / 6))
        path = store_cached_rays(tmp_path, rays, __version__)
        key, support, masses = read_records(path)
        assert key.tolist() == [20.0, 0.266, 1 / 6]
        assert support.dtype == np.int64 and masses.dtype == np.float64
        assert np.array_equal(support, rays.support)
        assert np.array_equal(masses, rays.masses)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert path.with_suffix(".sha256").read_text() == digest + "\n"

    def test_mean_only_key_holds_nan_rho(self, tmp_path):
        rays = rays_mean.enumerate_rays(ClassSpec(30, 0.21))
        path = store_cached_rays(tmp_path, rays, __version__)
        key = read_records(path)[0]
        assert key[:2].tolist() == [30.0, 0.21] and np.isnan(key[2])
        assert load_cached_rays(tmp_path, ClassSpec(30, 0.21, 0.1),
                                __version__) is None

    def test_missing_key_is_a_miss(self, tmp_path):
        assert load_cached_rays(tmp_path, ClassSpec(30, 0.21),
                                __version__) is None

    def test_corruption_is_a_miss(self, tmp_path):
        rays = rays_mean.enumerate_rays(ClassSpec(30, 0.21))
        store_cached_rays(tmp_path, rays, __version__)
        victim = next(tmp_path.glob("rayset_*.bin"))
        data = bytearray(victim.read_bytes())
        data[len(data) // 2] ^= 0xFF
        victim.write_bytes(bytes(data))
        assert load_cached_rays(tmp_path, ClassSpec(30, 0.21),
                                __version__) is None

    def test_a_text_entry_is_never_read(self, tmp_path):
        rays = rays_mean.enumerate_rays(ClassSpec(30, 0.21))
        path = store_cached_rays(tmp_path, rays, __version__)
        text = format_ray_set(rays)
        path.unlink()
        path.with_suffix(".txt").write_text(text)
        path.with_suffix(".sha256").write_text(
            hashlib.sha256(text.encode()).hexdigest() + "\n"
        )
        assert load_cached_rays(tmp_path, ClassSpec(30, 0.21),
                                __version__) is None

    @pytest.mark.parametrize("damage", BAD_ENTRIES.values(),
                             ids=list(BAD_ENTRIES))
    def test_a_damaged_entry_is_a_miss(self, tmp_path, damage):
        plain = run(*SMALL_CLASS)
        run(*SMALL_CLASS, "--cache", str(tmp_path))
        damage(next(tmp_path.glob("rayset_*.bin")))
        assert load_cached_rays(tmp_path, SMALL_SPEC, __version__) is None
        cached = run(*SMALL_CLASS, "--cache", str(tmp_path))
        assert cached.stdout_bytes == plain.stdout_bytes

    def test_rewritten_records_are_still_a_hit(self, tmp_path):
        # The control for the damaged entries: rewriting the records
        # with write_entry alone keeps the entry valid.
        run(*SMALL_CLASS, "--cache", str(tmp_path))
        victim = next(tmp_path.glob("rayset_*.bin"))
        write_entry(victim, read_records(victim))
        assert load_cached_rays(tmp_path, SMALL_SPEC, __version__)

    @pytest.mark.parametrize(
        "row", BAD_RAY_ROWS.values(), ids=list(BAD_RAY_ROWS)
    )
    def test_invalid_rays_under_a_valid_sidecar_are_a_miss(
        self, tmp_path, row
    ):
        support_row, masses_row, check = row
        plain = run(*SMALL_CLASS)
        run(*SMALL_CLASS, "--cache", str(tmp_path))
        victim = next(tmp_path.glob("rayset_*.bin"))
        key, support, masses = read_records(victim)
        support[2], masses[2] = support_row, masses_row
        with pytest.raises(ValueError, match=check):
            RaySet(SMALL_SPEC, support, masses)
        write_entry(victim, (key, support, masses))
        assert load_cached_rays(tmp_path, SMALL_SPEC, __version__) is None
        cached = run(*SMALL_CLASS, "--cache", str(tmp_path))
        assert cached.stdout_bytes == plain.stdout_bytes

    def test_version_bump_is_a_miss(self, tmp_path):
        rays = rays_mean.enumerate_rays(ClassSpec(30, 0.21))
        store_cached_rays(tmp_path, rays, "0.0.0")
        assert load_cached_rays(tmp_path, ClassSpec(30, 0.21),
                                __version__) is None


class TestCommands:
    def test_rays_writes_the_serialized_set(self, tmp_path):
        result = run(
            "rays", "--d", "20", "--p", "0.25", "--out", str(tmp_path)
        )
        assert result.exit_code == 0
        path = next(tmp_path.glob("rays_*.txt"))
        rays = parse_ray_set(path.read_text())
        assert rays.spec == ClassSpec(20, 0.25)
        assert (rays.d, rays.spec.p, rays.spec.rho) == (20, 0.25, None)
        assert len(rays) == len(rays_mean.enumerate_rays(ClassSpec(20, 0.25)))

    def test_rays_streams_to_stdout(self):
        result = run("rays", "--d", "12", "--p", "0.25")
        assert result.exit_code == 0
        header = result.stdout.splitlines()[0]
        assert header.startswith("12,0.25")

    def test_bounds_csv_shape(self):
        result = run("bounds", "--scenario", "BBB")
        assert result.exit_code == 0
        lines = result.stdout.strip().split("\n")
        assert lines[0] == "alpha,var_min,var_max,es_min,es_max"
        assert lines[1] == "0.9,0,16,1.7,16.0"
        assert len(lines) == 4

    def test_bounds_with_correlation_appends_the_benchmark(self):
        result = run("bounds", "--scenario", "BBB", "--rho", "1/2")
        lines = result.stdout.strip().split("\n")
        assert lines[0] == "alpha,var_min,var_max,es_min,es_max,beta_var"
        cells = lines[3].split(",")
        assert cells[0] == "0.99"
        assert (cells[1], cells[2], cells[5]) == ("1", "93", "57")

    def test_moments_table(self):
        result = run("moments", "--scenario", "B")
        lines = result.stdout.strip().split("\n")
        assert lines[0] == "order,lower,upper"
        assert lines[1] == "1,0.266,0.266"
        assert lines[2] == "2,0.069,0.266"
        assert lines[3] == "3,0.017,0.266"
        assert lines[4] == "4,0.004,0.266"
        assert lines[5] == "rho,-0.010,1.000"

    @pytest.mark.parametrize("d", [2, 3])
    def test_moments_stop_at_order_d_for_small_d(self, d):
        result = run("moments", "--d", str(d), "--p", "0.3")
        assert result.exit_code == 0
        orders = [line.split(",")[0] for line in result.stdout.split()]
        assert orders == ["order", *map(str, range(1, d + 1)), "rho"]

    def test_moments_need_no_enumeration_past_the_cap(self):
        result = CliRunner().invoke(
            cli.main, ["moments", "--d", "6000", "--p", "0.5"]
        )
        assert result.exit_code == 0, result.output
        assert result.exception is None
        assert [line.split(",")[0] for line in result.stdout.split()] == [
            "order", "1", "2", "3", "4", "rho"
        ]
        # rho_min = -1/5999 rounds to zero from below and shows unsigned.
        assert result.stdout.split()[-1] == "rho,0.000,1.000"

    def test_moments_without_a_pair_moment_is_infeasible(self):
        result = CliRunner().invoke(
            cli.main, ["moments", "--d", "1", "--p", "0.3"]
        )
        assert result.exit_code == cli.EXIT_INFEASIBLE

    def test_moments_rejects_a_correlation_target(self):
        result = CliRunner().invoke(
            cli.main, ["moments", "--scenario", "B", "--rho", "1/6"]
        )
        assert result.exit_code == cli.EXIT_INFEASIBLE
        assert result.stderr.startswith("error: ")
        assert len(result.stderr.splitlines()) == 1
        assert "--rho" in result.stderr
        # Not click's closest-match guess, an unrelated option.
        assert "--out" not in result.stderr

    def test_json_output_parses_and_rounds(self):
        result = run("moments", "--scenario", "B", "--format", "json")
        rows = json.loads(result.stdout)
        assert rows[1] == {"order": "2", "lower": 0.069, "upper": 0.266}

    def test_bounds_at_a_tiny_correlation_has_a_benchmark(self):
        result = run("bounds", "--d", "30", "--p", "0.266", "--rho", "1e-6")
        assert result.exit_code == 0
        lines = result.stdout.strip().split("\n")
        assert lines[0] == "alpha,var_min,var_max,es_min,es_max,beta_var"
        assert all(line.split(",")[5] for line in lines[1:])

    @pytest.mark.parametrize(
        "args",
        [("sweep", "--p", "0.9999"),
         ("bounds", "--p", "0.99999", "--rho", "0.5")],
        ids=["sweep", "bounds"],
    )
    def test_a_benchmark_near_certain_default_is_computed(self, args):
        result = CliRunner().invoke(cli.main, list(args))
        assert result.exit_code == 0, result.output
        assert result.stderr == ""
        rows = result.stdout.strip().split("\n")[1:]
        # beta_var is blank at rho = 0 and d = 100 wherever 0 < rho < 1.
        cells = {row.rsplit(",", 1)[1] for row in rows}
        assert "100" in cells and cells <= {"", "100"}

    def test_sweep_covers_the_grid(self):
        result = run(
            "sweep", "--d", "12", "--p", "0.25",
            "--grid", "3", "--alpha", "0.9",
        )
        lines = result.stdout.strip().split("\n")
        assert lines[0] == "rho,alpha,var_min,var_max,beta_var"
        rhos = [line.split(",")[0] for line in lines[1:]]
        assert rhos == [format(v, ".17g") for v in (0.0, 11 / 24, 11 / 12)]
        # no benchmark column at zero correlation
        assert lines[1].split(",")[4] == ""

    def test_sweep_rejects_an_explicit_rho(self):
        result = CliRunner().invoke(
            cli.main, ["sweep", "--scenario", "A", "--rho", "1/6"]
        )
        assert result.exit_code == cli.EXIT_INFEASIBLE
        assert result.stderr.startswith("error: ")
        assert len(result.stderr.splitlines()) == 1
        assert "--rho" in result.stderr
        assert "--out" not in result.stderr

    @pytest.mark.parametrize("command", ["moments", "sweep"])
    def test_only_rays_and_bounds_declare_rho(self, command):
        assert "--rho" not in run(command, "--help").stdout

    def test_fraction_and_decimal_rho_agree(self):
        as_fraction = run("rays", "--d", "25", "--p", "0.2", "--rho", "1/6")
        as_decimal = run(
            "rays", "--d", "25", "--p", "0.2",
            "--rho", "0.16666666666666666",
        )
        assert as_fraction.stdout == as_decimal.stdout

    @pytest.mark.parametrize("args", list(RAYS_SHA256))
    def test_rays_output_bytes_are_pinned(self, args):
        result = run("rays", *args)
        digest = hashlib.sha256(result.stdout_bytes).hexdigest()
        assert digest == RAYS_SHA256[args]

    def test_output_is_byte_deterministic(self):
        first = run("bounds", "--scenario", "A", "--rho", "1/2")
        second = run("bounds", "--scenario", "A", "--rho", "1/2")
        assert first.stdout == second.stdout

    def test_cache_round_trip_preserves_output(self, tmp_path):
        args = ("rays", "--scenario", "A", "--rho", "1/2",
                "--cache", str(tmp_path))
        cold = run(*args)
        assert "cache: reused" not in cold.stderr
        assert list(tmp_path.glob("rayset_*.bin"))
        warm = run(*args)
        assert warm.stderr.startswith("cache: reused ")
        assert warm.stdout_bytes == cold.stdout_bytes


class TestOutputFiles:
    @pytest.mark.parametrize("args, fmt", TABLE_CASES)
    def test_out_writes_one_pinned_file_and_prints_its_path(
        self, tmp_path, args, fmt
    ):
        name, digest = TABLE_OUTPUTS[args][fmt]
        result = run(*args, "--format", fmt, "--out", str(tmp_path))
        assert result.exit_code == 0
        assert result.stdout == f"{tmp_path / name}\n"
        assert [path.name for path in tmp_path.iterdir()] == [name]
        data = (tmp_path / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest

    @pytest.mark.parametrize("args, fmt", TABLE_CASES)
    def test_stdout_carries_the_pinned_bytes(self, args, fmt):
        _, digest = TABLE_OUTPUTS[args][fmt]
        result = run(*args, "--format", fmt)
        assert hashlib.sha256(result.stdout_bytes).hexdigest() == digest

    def test_rays_out_prints_the_count_and_path(self, tmp_path):
        result = run("rays", "--d", "20", "--p", "0.25", "--out",
                     str(tmp_path))
        path = tmp_path / "rays_d20_p0.25.txt"
        assert result.stdout == f"76 rays -> {path}\n"


# Raw rows with every column at a rounding edge, and what each format
# shows for them: as binary floats 0.0125, 0.0005 and -0.0105 lie just
# past a half at 3 decimals, 2.25 on one (half to even) and 26.65 just
# short of one at 1 decimal. JSON payloads are compared as emitted
# text, so the sign of a zero counts: -0.0105 shows as an unsigned zero
# at 1 decimal.
DISPLAY_ROWS = {
    cli.MOMENTS_COLUMNS: [
        {"order": "1", "lower": 0.0125, "upper": 0.0005},
        {"order": "rho", "lower": -0.0105, "upper": 2.25},
    ],
    cli.BOUNDS_BETA_COLUMNS: [
        {"alpha": 0.9999995, "var_min": 0, "var_max": 26, "es_min": 2.25,
         "es_max": 26.65, "beta_var": None},
        {"alpha": 0.95, "var_min": 3, "var_max": 100, "es_min": 0.0125,
         "es_max": -0.0105, "beta_var": 7},
    ],
    cli.SWEEP_COLUMNS: [
        {"rho": 1 / 6, "alpha": 0.9999995, "var_min": 1, "var_max": 2,
         "beta_var": None},
        {"rho": 0.0, "alpha": 0.99, "var_min": 5, "var_max": 6,
         "beta_var": 5},
    ],
}
DISPLAY_CSV = {
    cli.MOMENTS_COLUMNS: "order,lower,upper\n1,0.013,0.001\nrho,-0.011,2.250\n",
    cli.BOUNDS_BETA_COLUMNS: (
        "alpha,var_min,var_max,es_min,es_max,beta_var\n"
        "1,0,26,2.2,26.6,\n"
        "0.95,3,100,0.0,0.0,7\n"
    ),
    cli.SWEEP_COLUMNS: (
        "rho,alpha,var_min,var_max,beta_var\n"
        "0.16666666666666666,1,1,2,\n"
        "0,0.99,5,6,5\n"
    ),
}
DISPLAY_JSON = {
    cli.MOMENTS_COLUMNS: [
        {"order": "1", "lower": 0.013, "upper": 0.001},
        {"order": "rho", "lower": -0.011, "upper": 2.25},
    ],
    cli.BOUNDS_BETA_COLUMNS: [
        {"alpha": 0.9999995, "var_min": 0, "var_max": 26, "es_min": 2.2,
         "es_max": 26.6, "beta_var": None},
        {"alpha": 0.95, "var_min": 3, "var_max": 100, "es_min": 0.0,
         "es_max": 0.0, "beta_var": 7},
    ],
    cli.SWEEP_COLUMNS: [
        {"rho": 1 / 6, "alpha": 0.9999995, "var_min": 1, "var_max": 2,
         "beta_var": None},
        {"rho": 0.0, "alpha": 0.99, "var_min": 5, "var_max": 6,
         "beta_var": 5},
    ],
}


class TestDisplayRules:
    @pytest.mark.parametrize("columns", list(DISPLAY_ROWS))
    def test_csv_cells_are_pinned(self, columns):
        text = cli._render(DISPLAY_ROWS[columns], columns, "csv")
        assert text == DISPLAY_CSV[columns]

    @pytest.mark.parametrize("columns", list(DISPLAY_ROWS))
    def test_json_values_are_pinned(self, columns):
        text = cli._render(DISPLAY_ROWS[columns], columns, "json")
        expected = json.dumps(DISPLAY_JSON[columns], sort_keys=True, indent=2)
        assert text == expected + "\n"


def fresh_python(code, threads=None):
    """stdout of ``code`` run by a fresh interpreter that finds this
    package first, with ``OPENBLAS_NUM_THREADS`` set only to
    ``threads``."""
    src = str(Path(bernrays.__file__).parents[1])
    env = {key: value for key, value in os.environ.items()
           if key != "OPENBLAS_NUM_THREADS"}
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    return subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r}); "
         + code],
        capture_output=True, text=True, check=True, env=env,
    ).stdout.strip()


# Child code that runs each argv of ``ARGVS`` through ``cli.main`` in
# process and prints a JSON list of [exit code, stderr lines], then the
# names ``LOADED`` holds that are in ``sys.modules``.
RUN_IN_PROCESS = """
import contextlib, io, json
from bernrays.cli import main
results = []
for argv in ARGVS:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()):
        with contextlib.redirect_stderr(err):
            try:
                main(argv)
                code = 0
            except SystemExit as exc:
                code = exc.code
    results.append([code, err.getvalue().splitlines()])
print(json.dumps(results))
print(json.dumps([name for name in LOADED if name in sys.modules]))
"""

LIBRARY_MODULES = ["bernrays." + name for name in (
    "pmf", "rays_mean", "rays_corr", "risk", "betamix", "rayset_io")]


def run_in_process(argvs, loaded):
    """Exit code and stderr lines of each argv run by one fresh child,
    and the names of ``loaded`` that the child then holds."""
    code = f"ARGVS = {argvs!r}; LOADED = {loaded!r}\n" + RUN_IN_PROCESS
    results, held = fresh_python(code).splitlines()
    return json.loads(results), json.loads(held)


class TestImport:
    def test_the_cli_does_not_import_scipy(self, tmp_path):
        # After one command of each kind, so every library module the
        # command line calls into has loaded.
        cache = str(tmp_path / "cache")
        results, held = run_in_process(
            [["bounds", "--d", "20", "--p", "0.3", "--rho", "0.2"],
             ["rays", "--d", "20", "--p", "0.3", "--rho", "0.2",
              "--cache", cache],
             ["sweep", "--d", "20", "--p", "0.3", "--grid", "2"],
             ["moments", "--d", "20", "--p", "0.3"]],
            ["scipy", *LIBRARY_MODULES],
        )
        assert [code for code, _ in results] == [0, 0, 0, 0]
        assert held == LIBRARY_MODULES

    def test_help_version_and_flag_refusals_load_no_numpy(self):
        results, held = run_in_process(
            [["--version"], ["--help"], ["bounds", "--help"],
             ["sweep", "--help"],
             ["bounds", "--p", "0.5", "--bogus"],
             ["bounds", "--format", "xml", "--p", "0.1"],
             ["sweep", "--p", "0.5", "--grid", "1"],
             ["bounds"], ["bounds", "--p", "0.1", "--scenario", "A"],
             ["bounds", "--p", "0.5", "--rho", "abc"],
             ["bounds", "--p", "0.5", "--alpha", "x"]],
            ["numpy", *LIBRARY_MODULES],
        )
        assert results[:4] == [[0, []]] * 4
        for code, err in results[4:]:
            assert code == cli.EXIT_INFEASIBLE
            assert len(err) == 1 and err[0].startswith("error: "), err
        assert held == []

    def test_mean_class_commands_load_no_benchmark_and_no_cache(self):
        results, held = run_in_process(
            [["bounds", "--d", "50", "--p", "0.3"],
             ["moments", "--d", "50", "--p", "0.3"]],
            ["bernrays.betamix", "bernrays.rayset_io"],
        )
        assert results == [[0, []], [0, []]]
        assert held == []

    def test_enumerate_rays_loads_only_the_module_it_dispatches_to(self):
        assert fresh_python(
            "from bernrays import ClassSpec, enumerate_rays; "
            "enumerate_rays(ClassSpec(10, 0.3)); "
            "print('bernrays.rays_corr' in sys.modules)") == "False"

    def test_the_package_root_loads_no_numpy(self):
        assert fresh_python(
            "import bernrays; print('numpy' in sys.modules)") == "False"

    def test_every_public_name_is_its_submodule_object(self):
        assert bernrays.__all__ == [
            "BernraysError", "BetaMixParams", "ClassSpec", "DefaultCountPmf",
            "EsEnvelope", "ExchangeablePmfSummary", "MembershipResult",
            "MomentBounds", "RayDensity", "RaySet", "RiskBounds",
            "__version__", "betamix", "enumerate_rays", "pmf", "rays_corr",
            "rays_mean", "risk",
        ]
        for name in bernrays.__all__:
            value = getattr(bernrays, name)
            if name == "__version__":
                assert value == "0.1.0"
            elif isinstance(value, type(bernrays)):
                assert value is sys.modules[f"bernrays.{name}"]
            else:
                assert value.__module__.split(".")[0] == "bernrays"
                assert value is getattr(sys.modules[value.__module__], name)
        star = {}
        exec("from bernrays import *", star)
        assert all(star[name] is getattr(bernrays, name)
                   for name in bernrays.__all__)
        with pytest.raises(AttributeError):
            bernrays.no_such_name

    def test_the_cli_runs_blas_on_one_thread(self):
        code = ("import os, bernrays.cli, numpy; "
                "print(os.environ['OPENBLAS_NUM_THREADS'])")
        if sys.platform.startswith("linux"):
            # numpy's OpenBLAS starts its worker threads when it loads.
            code += "; print(len(os.listdir('/proc/self/task')))"
            assert fresh_python(code).split() == ["1", "1"]
        else:
            assert fresh_python(code) == "1"

    def test_a_thread_count_the_user_set_wins(self):
        assert fresh_python(
            "import os, bernrays.cli; "
            "print(os.environ['OPENBLAS_NUM_THREADS'])", threads="2",
        ) == "2"


# The console script's entry, as perfbench launches it.
ENTRY = "import sys; from bernrays.cli import main; sys.exit(main())"
BOUNDS_ARGV = ["bounds", "--d", "100", "--p", "0.266", "--rho", "1/6"]


def launch(code, *argv):
    """A fresh interpreter that finds this package first runs ``code``
    with ``argv``; stdout and stderr are bytes."""
    src = str(Path(bernrays.__file__).parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, env=env)


class TestExitHook:
    """A command freezes the collector only at the interpreter's exit."""

    def test_an_invoke_leaves_the_collector_as_it_was(self, monkeypatch):
        registered = []
        monkeypatch.setattr(cli._Commands, "_exit_hooked", False)
        monkeypatch.setattr(cli.atexit, "register", registered.append)
        enabled, frozen = gc.isenabled(), gc.get_freeze_count()
        for _ in range(2):
            assert run(*BOUNDS_ARGV).exit_code == 0
            assert gc.isenabled() == enabled
            assert gc.get_freeze_count() == frozen
        assert registered == [gc.freeze]

    def test_launched_stdout_is_the_in_process_bytes(self):
        result = launch(ENTRY, *BOUNDS_ARGV)
        assert result.returncode == 0, result.stderr
        assert result.stderr == b""
        assert result.stdout == run(*BOUNDS_ARGV).stdout_bytes

    def test_launched_out_writes_the_file(self, tmp_path):
        result = launch(ENTRY, *BOUNDS_ARGV, "--out", str(tmp_path))
        path = tmp_path / "bounds_d100_p0.266_rho0.166667.csv"
        assert result.returncode == 0, result.stderr
        assert result.stdout == f"{path}\n".encode()
        assert path.read_bytes() == run(*BOUNDS_ARGV).stdout_bytes

    @pytest.mark.parametrize(
        "argv",
        [["bounds", "--d", "0", "--p", "0.5"],
         ["bounds", "--p", "0.5", "--bogus"]],
        ids=["infeasible", "usage"],
    )
    def test_a_launched_refusal_exits_2_with_one_error_line(self, argv):
        result = launch(ENTRY, *argv)
        assert result.returncode == cli.EXIT_INFEASIBLE
        assert result.stdout == b""
        err = result.stderr.decode().splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err

    def test_a_wrapper_still_runs_its_finally_and_exit_handlers(
        self, tmp_path
    ):
        # A handler registered before the command runs after the freeze,
        # as exit handlers run last in, first out.
        code = f"""
import atexit, gc, pathlib
from bernrays.cli import main
here = pathlib.Path({str(tmp_path)!r})
atexit.register(lambda: (here / "exit").write_text(
    str(gc.get_freeze_count() > 0)))
try:
    main({BOUNDS_ARGV!r})
finally:
    (here / "finally").write_text(str(gc.get_freeze_count()))
"""
        result = launch(code)
        assert result.returncode == 0, result.stderr
        assert result.stdout == run(*BOUNDS_ARGV).stdout_bytes
        assert (tmp_path / "finally").read_text() == "0"
        assert (tmp_path / "exit").read_text() == "True"


class TestLoading:
    """Loading the command line and running a command keep the caller's
    collector."""

    @pytest.mark.parametrize("enabled", [True, False])
    def test_a_command_keeps_the_callers_collector(self, monkeypatch,
                                                   enabled):
        seen = []
        rows = cli._bounds_rows

        def watched(*args):
            seen.append(gc.isenabled())
            return rows(*args)

        monkeypatch.setattr(cli, "_bounds_rows", watched)
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            assert run(*BOUNDS_ARGV).exit_code == 0
            assert gc.isenabled() == enabled
        finally:
            (gc.enable if was else gc.disable)()
        assert seen == [enabled]

    @pytest.mark.parametrize("enabled", [True, False])
    def test_importing_the_cli_keeps_the_callers_collector(self, enabled):
        code = f"""
import gc
gc.{"enable" if enabled else "disable"}()
import bernrays.cli
print(gc.isenabled())
"""
        result = launch(code)
        assert result.returncode == 0, result.stderr
        assert result.stdout == f"{enabled}\n".encode()


class TestExitCodes:
    def test_usage_error_without_a_class(self):
        result = CliRunner().invoke(cli.main, ["bounds"])
        assert result.exit_code != 0

    def test_usage_error_with_two_classes(self):
        result = CliRunner().invoke(
            cli.main, ["bounds", "--p", "0.1", "--scenario", "A"]
        )
        assert result.exit_code != 0

    def test_invalid_marginal_maps_to_the_infeasible_code(self):
        result = CliRunner().invoke(cli.main, ["bounds", "--p", "1.5"])
        assert result.exit_code == cli.EXIT_INFEASIBLE

    def test_unattainable_correlation_maps_to_the_infeasible_code(self):
        result = CliRunner().invoke(
            cli.main,
            ["bounds", "--d", "4", "--p", "0.5", "--rho", "-0.9"],
        )
        assert result.exit_code == cli.EXIT_INFEASIBLE

    @pytest.mark.parametrize(
        "flag, text",
        [("--alpha", "0.9,abc"), ("--alpha", ""), ("--rho", "abc"),
         ("--rho", "1/0")],
    )
    def test_malformed_numbers_map_to_the_infeasible_code(self, flag, text):
        result = CliRunner().invoke(
            cli.main, ["bounds", "--scenario", "A", flag, text]
        )
        assert result.exit_code == cli.EXIT_INFEASIBLE
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith("error: ")

    @pytest.mark.parametrize(
        "args, message",
        [(("--p", "2", "--rho", "abc"),
          "error: not a decimal or a fraction: 'abc'"),
         (("--p", "2", "--alpha", "abc"),
          "error: alphas must be numbers, got 'abc'"),
         (("--p", "0.5", "--d", "1", "--rho", "0.5", "--alpha", "x"),
          "error: alphas must be numbers, got 'x'"),
         (("--p", "0.5", "--d", "0", "--alpha", "x"),
          "error: alphas must be numbers, got 'x'"),
         (("--p", "0.5", "--d", "0"),
          "error: d must be a positive integer, got 0"),
         (("--rho", "abc", "--alpha", "abc"),
          "error: provide exactly one of --p or --scenario"),
         (("--d", "2", "--p", "5e-324", "--rho", "0.9999999999999999",
           "--alpha", "1.5,0.9"),
          "error: alpha must lie strictly inside (0, 1), got 1.5"),
         (("--d", "2", "--p", "5e-324", "--rho", "0.9999999999999999",
           "--alpha", "0.9,1.5"),
          "error: Beta parameters must be positive, got "
          "BetaMixParams(a=0.0, b=2.220446049250313e-16)")],
        ids=["rho before p", "alpha before p", "alpha before d",
             "alpha before d = 0", "d = 0 by the class",
             "usage before rho and alpha", "first alpha before the beta",
             "beta before a later alpha"],
    )
    def test_the_first_fault_in_check_order_wins(self, args, message):
        result = CliRunner().invoke(cli.main, ["bounds", *args])
        assert result.exit_code == 2
        assert result.stderr == message + "\n"

    # click's wording varies between releases; the line must name what
    # it refuses.
    @pytest.mark.parametrize(
        "argv, named",
        [(["bounds", "--d", "abc", "--p", "0.5"], "Invalid value for '--d'"),
         (["bounds", "--p", "abc"], "Invalid value for '--p'"),
         (["sweep", "--p", "0.5", "--grid", "1"],
          "Invalid value for '--grid'"),
         (["bounds", "--p", "0.5", "--format", "xml"],
          "Invalid value for '--format'"),
         (["bounds", "--p", "0.5", "--bogus"], "--bogus"),
         (["bounds", "--p", "0.5", "--alpha"], "--alpha"),
         (["bogus"], "bogus")],
        ids=["d", "p", "grid", "format", "unknown option", "no value",
             "unknown command"],
    )
    def test_a_parse_fault_is_one_error_line(self, argv, named):
        result = CliRunner().invoke(cli.main, argv)
        assert result.exit_code == cli.EXIT_INFEASIBLE
        assert result.stderr.startswith("error: ")
        assert len(result.stderr.splitlines()) == 1
        assert named in result.stderr

    @pytest.mark.parametrize("argv", [[], ["--bogus"]], ids=["bare", "flag"])
    def test_group_level_misuse_keeps_clicks_usage_text(self, argv):
        result = CliRunner().invoke(cli.main, argv)
        assert result.exit_code == 2
        assert result.stderr.startswith("Usage: ")

    def test_a_class_above_the_candidate_cap_exits_2(self, monkeypatch):
        monkeypatch.setattr(rays_corr, "MAX_CANDIDATES", 1000)
        result = CliRunner().invoke(
            cli.main,
            ["bounds", "--d", "100", "--p", "0.266", "--rho", "1/6"],
        )
        assert result.exit_code == cli.EXIT_INFEASIBLE
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith("error: ")
        assert "candidate triples" in result.stderr

    @pytest.mark.parametrize(
        "module, flags, named",
        [(rays_corr, ["--rho", "1/6"], "candidate triples"),
         (rays_mean, [], "two-point rays")],
        ids=["correlated", "mean"],
    )
    def test_streamed_bounds_keep_the_cap(self, monkeypatch, module, flags,
                                          named):
        monkeypatch.setattr(module, "MAX_CANDIDATES", 1000)
        result = CliRunner().invoke(
            cli.main, ["bounds", "--d", "100", "--p", "0.266", *flags]
        )
        assert result.exit_code == cli.EXIT_INFEASIBLE
        assert result.stdout == ""
        assert result.stderr.startswith("error: ")
        assert len(result.stderr.splitlines()) == 1
        assert named in result.stderr

    def test_a_huge_d_is_refused_before_any_per_index_array(self):
        # Under a 2 GiB address-space cap a d-sized int64 array is refused
        # outright, so an allocation before the cap check shows up as a
        # traceback and exit 1 without using real memory.
        resource = pytest.importorskip("resource")
        cap = 2 * 1024**3

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

        src = str(Path(bernrays.__file__).parents[1])
        code = (
            f"import sys; sys.path.insert(0, {src!r}); "
            "from bernrays.cli import main; main(prog_name='bernrays')"
        )
        result = subprocess.run(
            [sys.executable, "-c", code, "bounds", "--d", "1000000000",
             "--p", "0.5", "--rho", "0.5"],
            capture_output=True, text=True, preexec_fn=limit,
            env=dict(os.environ, OPENBLAS_NUM_THREADS="1",
                     OMP_NUM_THREADS="1"),
        )
        assert result.returncode == cli.EXIT_INFEASIBLE
        assert result.stderr.startswith("error: ")
        assert len(result.stderr.splitlines()) == 1
        assert "overflow int64" in result.stderr

    @pytest.mark.parametrize("command", ["rays", "bounds"])
    def test_a_mean_class_with_no_two_point_ray_builds_no_index_array(
        self, command
    ):
        # d * p rounds to the integer mean 0: the point ray is the whole
        # class, and a d-sized index array would need 7.5 GiB.
        resource = pytest.importorskip("resource")
        cap = 2 * 1024**3

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

        src = str(Path(bernrays.__file__).parents[1])
        code = (
            f"import sys; sys.path.insert(0, {src!r}); "
            "from bernrays.cli import main; main(prog_name='bernrays')"
        )
        result = subprocess.run(
            [sys.executable, "-c", code, command, "--d", "1000000000",
             "--p", "1e-300"],
            capture_output=True, text=True, preexec_fn=limit,
            env=dict(os.environ, OPENBLAS_NUM_THREADS="1",
                     OMP_NUM_THREADS="1"),
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] in ("0:1", "0.99,0,0,0.0,0.0")

    def test_readmes_huge_correlated_d_exits_2_at_once(self):
        # README's example: the d guard refuses the class before the
        # sweep builds any per-index array.
        start = time.perf_counter()
        result = CliRunner().invoke(
            cli.main, ["bounds", "--d", "1000000000", "--p", "0.5",
                       "--rho", "0.5"],
        )
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == cli.EXIT_INFEASIBLE
        assert result.stderr.startswith("error: ")
        assert len(result.stderr.splitlines()) == 1
        assert "overflow int64" in result.stderr

    @pytest.mark.parametrize(
        "command",
        [["moments"], ["bounds", "--rho", "0.5"], ["rays", "--rho", "0.5"],
         ["sweep"]],
        ids=["moments", "bounds", "rays", "sweep"],
    )
    def test_a_d_past_int64_exits_2(self, command):
        result = CliRunner().invoke(
            cli.main,
            [*command, "--d", "100000000000000000000", "--p", "0.5"],
        )
        assert result.exit_code == 2
        assert result.stderr == (
            "error: d must be at most 2**63 - 1, got 100000000000000000000\n"
        )

    def test_moments_of_one_name_exit_2_without_a_traceback(self):
        result = CliRunner().invoke(
            cli.main, ["moments", "--d", "1", "--p", "0.5"]
        )
        assert result.exit_code == 2
        assert result.stderr == (
            "error: a correlation range requires d >= 2\n"
        )
        assert "Traceback" not in result.output

    def test_the_largest_int64_d_still_gives_moments(self):
        result = CliRunner().invoke(
            cli.main, ["moments", "--d", str(2**63 - 1), "--p", "0.5"]
        )
        assert result.exit_code == 0, result.output

    def test_a_mean_class_above_the_cap_exits_2(self, tmp_path, monkeypatch):
        monkeypatch.setattr(rays_mean, "MAX_CANDIDATES", 1000)
        out = tmp_path / "out"
        result = CliRunner().invoke(
            cli.main, ["rays", "--d", "400", "--p", "0.282", "--out", str(out)]
        )
        assert result.exit_code == cli.EXIT_INFEASIBLE
        assert not out.exists()
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith("error: ")
        assert "two-point rays" in result.stderr

    @pytest.mark.parametrize(
        "args",
        [("bounds", "--scenario", "A", "--out"),
         ("rays", "--scenario", "A", "--out"),
         ("rays", "--scenario", "A", "--rho", "1/6", "--cache"),
         ("reproduce", "--out")],
        ids=["bounds --out", "rays --out", "rays --cache", "reproduce --out"],
    )
    def test_a_directory_that_cannot_be_made_exits_2(self, tmp_path, args):
        blocker = tmp_path / "f"
        blocker.touch()
        result = CliRunner().invoke(cli.main, [*args, str(blocker / "x")])
        assert result.exit_code == cli.EXIT_INFEASIBLE
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith("error: ")
        assert len(result.stderr.splitlines()) == 1

    def test_rays_refuses_its_out_directory_before_formatting(
        self, tmp_path, monkeypatch
    ):
        def unreachable(rays):
            raise AssertionError("the set was formatted")

        monkeypatch.setattr(rayset_io, "format_ray_set", unreachable)
        blocker = tmp_path / "f"
        blocker.touch()
        result = CliRunner().invoke(cli.main, [
            "rays", "--scenario", "A", "--rho", "1/6",
            "--out", str(blocker / "x"),
        ])
        assert result.exit_code == cli.EXIT_INFEASIBLE, result.exc_info
        assert result.stderr.startswith("error: ")
        assert len(result.stderr.splitlines()) == 1

    @pytest.mark.parametrize(
        "command",
        [["bounds", "--scenario", "A", "--rho", "1/6"],
         ["sweep", "--scenario", "A", "--grid", "2"],
         ["moments", "--scenario", "A"], ["reproduce", "--out", "OUT"]],
        ids=["bounds", "sweep", "moments", "reproduce"],
    )
    def test_commands_that_enumerate_no_class_ignore_the_cache(
        self, tmp_path, command
    ):
        # Only rays holds a whole ray set. Elsewhere a cache directory is
        # never made, so even one that cannot be made is no fault.
        blocker = tmp_path / "f"
        blocker.touch()
        command = [str(tmp_path / "out") if a == "OUT" else a
                   for a in command]
        plain = CliRunner().invoke(cli.main, command)
        for cache in (tmp_path / "cache", blocker / "x"):
            cached = CliRunner().invoke(
                cli.main, [*command, "--cache", str(cache)])
            assert plain.exit_code == cached.exit_code == 0, cached.stderr
            assert cached.stdout_bytes == plain.stdout_bytes
            assert not cache.exists()

    def test_reproduction_mismatch_has_its_own_code(self, tmp_path,
                                                    monkeypatch):
        monkeypatch.setattr(cli, "cmd_reproduce", lambda out, cache=None: 2)
        result = CliRunner().invoke(
            cli.main, ["reproduce", "--out", str(tmp_path)]
        )
        assert result.exit_code == cli.EXIT_MISMATCH


class TestDiffing:
    def test_mismatched_cells_are_reported(self):
        rows = [{"alpha": "0.9", "var_min": "0", "var_max": "2"}]
        expected = [{"alpha": "0.9", "var_min": "0", "var_max": "3"}]
        diffs = cli._diff_rows(rows, expected, "table")
        assert len(diffs) == 1
        assert diffs[0]["column"] == "var_max"
        assert (diffs[0]["got"], diffs[0]["expected"]) == ("2", "3")

    def test_equal_rows_produce_no_diffs(self):
        rows = [{"alpha": "0.9", "var_min": "0", "var_max": "2"}]
        assert cli._diff_rows(rows, list(rows), "table") == []

    def test_a_row_count_difference_is_reported(self):
        rows = [{"alpha": "0.9", "var_min": "0"}]
        assert cli._diff_rows(rows, rows * 2, "table") == [
            {"table": "table", "row": 1, "column": "<row count>",
             "got": "1", "expected": "2"}
        ]


class TestReproduce:
    def test_each_class_is_enumerated_once_and_every_check_reports(
        self, tmp_path, monkeypatch
    ):
        for scenario in ("BBB", "B"):
            monkeypatch.delitem(ref.SCENARIOS, scenario)
        planted = dict(ref.VAR_CORR[("A", "1/6")])
        low, high, beta = planted[0.99]
        planted[0.99] = (low, high + 1, beta)
        monkeypatch.setitem(ref.VAR_CORR, ("A", "1/6"), planted)
        requests = []

        def counting(module, name):
            source = getattr(module, name)

            def count(spec, *args):
                requests.append((spec.d, spec.p, spec.rho))
                return source(spec, *args)

            monkeypatch.setattr(module, name, count)

        counting(rays_mean, "_ray_blocks")
        counting(risk, "_class_bounds")
        counting(risk, "_var_extrema")
        result = CliRunner().invoke(
            cli.main, ["reproduce", "--out", str(tmp_path)]
        )
        assert result.exit_code == cli.EXIT_MISMATCH
        assert "var_A_rho_1_6: 1 MISMATCHES" in result.stdout.splitlines()
        assert "sweep_A: 1 MISMATCHES" in result.stdout.splitlines()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["status"] == "fail"
        assert manifest["tables"]["sweep_A"]["mismatches"][0]["column"] == (
            "var_max"
        )
        assert len(requests) == 13
        assert len(set(requests)) == 13


class TestSweepGrid:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 2**63 - 1), st.integers(2, 24), st.data())
    def test_every_grid_point_is_feasible(self, d, n, data):
        # rho = 0 gives the pair moment p**2, which the binomial law of
        # the mean class attains, so every grid point is feasible.
        if data.draw(st.booleans(), label="integer mean"):
            p = data.draw(st.integers(1, d - 1), label="d * p") / d
            assume(p < 1.0)
        else:
            p = data.draw(st.floats(0.0, 1.0, exclude_min=True,
                                    exclude_max=True), label="p")
        floor = (rays_mean.moment_bounds(ClassSpec(d, p), 2).lower
                 - rays_corr._FEASIBILITY_TOL)
        for rho in cli._sweep_grid(n):
            assert ClassSpec(d, p, rho).pair_moment_target >= floor


# Edge vocabularies for the CLI contract, including values that click's
# own parser refuses. "OUT", "CACHE", "BLOCKED" and "FILE" stand for two
# fresh directories, a path under a file and the file itself.
CONTRACT_FLAGS = {
    "--d": ["1", "2", "3", "4", "12", "30", "6000", "1000000000",
            str(2**63 - 1), str(2**63), "0", "-3", "abc"],
    "--p": ["0.5", "0.266", "0.003", "0.25", "1e-300",
            "0.9999999999999999", "0.99999", "0", "1", "-0.1", "1.5", "nan",
            "inf", "abc"],
    "--scenario": [*sorted(ref.SCENARIOS), "Z"],
    "--rho": ["0", "1/6", "1/2", "11/12", "1", "-1", "-1/5999", "1e-300",
              "1e-6", "0.999999", "nan", "abc", "1/0", ""],
    "--alpha": ["0.9", "0.5,0.99", "0.9999995", "0", "1", "-0.5", "nan",
                "1e-320", "", "0.9,", "abc"],
    "--grid": ["2", "3", "12", "1"],
    "--format": ["csv", "json", "xml"],
    "--out": ["OUT", "BLOCKED", "FILE"],
    "--cache": ["CACHE", "BLOCKED", "FILE"],
}
CONTRACT_COMMANDS = {
    "rays": ("--d", "--rho", "--out", "--cache"),
    "bounds": ("--d", "--rho", "--alpha", "--format", "--out", "--cache"),
    "moments": ("--d", "--rho", "--format", "--out", "--cache"),
    "sweep": ("--d", "--rho", "--alpha", "--grid", "--format", "--out",
              "--cache"),
}
# stderr lines that may come before an error: cache hits and reproduce's
# per-scenario timing.
LOG_LINE = re.compile(r"cache: reused |scenario \w+: ")
SIGNED_ZERO = re.compile(r"-0(\.0*)?")


@st.composite
def invocations(draw):
    """An argv of one command with edge values for its flags, and at
    times an unknown flag or a last flag with no value."""
    command = draw(st.sampled_from([*CONTRACT_COMMANDS, "reproduce"]))
    if command == "reproduce":
        out = draw(st.sampled_from(CONTRACT_FLAGS["--out"]))
        argv, flags = ["reproduce", "--out", out], ("--cache",)
    else:
        which = draw(st.sampled_from(["--p", "--scenario"]))
        argv = [command, which, draw(st.sampled_from(CONTRACT_FLAGS[which]))]
        flags = CONTRACT_COMMANDS[command]
    for flag in flags:
        value = draw(st.none() | st.sampled_from(CONTRACT_FLAGS[flag]))
        if value is not None:
            argv += [flag, value]
    extra = draw(st.none() | st.sampled_from(["--bogus", *flags]))
    return argv if extra is None else [*argv, extra]


def _invoke(argv, root):
    """Run ``argv`` with its placeholder paths under ``root``; return the
    result and the bytes of the files its ``--out`` holds."""
    out = root / "out"
    paths = {"OUT": str(out), "CACHE": str(root / "cache"),
             "BLOCKED": str(root / "file" / "x"), "FILE": str(root / "file")}
    result = CliRunner().invoke(cli.main, [paths.get(a, a) for a in argv])
    files = {}
    if out.is_dir():
        files = {path.name: path.read_bytes() for path in out.iterdir()}
    return result, files


def _table(result, files, fmt):
    """The text of a table in ``fmt``, from stdout or the ``--out`` file."""
    written = [data for name, data in files.items() if name.endswith(fmt)]
    return written[0].decode() if written else result.stdout


class TestContract:
    # Most draws hold a value that is refused, so the exit-0 checks below
    # need three times the examples to run as often.
    @settings(max_examples=300, deadline=None)
    @given(invocations())
    @example(["moments", "--p", "0.5", "--d", "6000"])
    @example(["moments", "--p", "0.5", "--d", "6000", "--format", "json"])
    def test_every_invocation_keeps_the_contract(self, argv):
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
            rays_mean, "MAX_CANDIDATES", 4096
        ), mock.patch.object(rays_corr, "MAX_CANDIDATES", 4096):
            root = Path(tmp)
            (root / "file").touch()
            result, files = _invoke(argv, root)
            codes = {0, 2, 3} if argv[0] == "reproduce" else {0, 2}
            assert result.exit_code in codes, result.exc_info
            assert "Traceback" not in result.output
            if result.exit_code == 2:
                *logs, last = result.stderr.splitlines()
                assert last.startswith("error: ")
                assert all(LOG_LINE.match(line) for line in logs), logs
            if result.exit_code != 0:
                return
            again, again_files = _invoke(argv, root)
            assert again.exit_code == 0
            assert again.stdout_bytes == result.stdout_bytes
            assert again_files == files
            if argv[0] not in ("bounds", "moments", "sweep"):
                return
            # A repeated --format takes the last value.
            fmt = "json" if "json" in argv else "csv"
            other = "csv" if fmt == "json" else "json"
            twin, twin_files = _invoke([*argv, "--format", other], root)
            assert twin.exit_code == 0
            texts = {fmt: _table(result, files, fmt),
                     other: _table(twin, twin_files, other)}
        csv_rows = list(csv.DictReader(io.StringIO(texts["csv"])))
        json_rows = json.loads(texts["json"])
        assert len(csv_rows) == len(json_rows)
        for csv_row, json_row in zip(csv_rows, json_rows):
            assert csv_row.keys() == json_row.keys()
            for key, cell in csv_row.items():
                assert cell == cli._FORMATTERS[key](json_row[key])
                assert not SIGNED_ZERO.fullmatch(cell)
                value = json_row[key]
                if isinstance(value, float) and value == 0.0:
                    assert math.copysign(1.0, value) == 1.0
