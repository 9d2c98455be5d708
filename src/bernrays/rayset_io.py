"""Sparse ray-set serialization and the on-disk ray-set cache.

Both forms record the class of the ray set's ``spec`` and rebuild the
set with that class when read, so a header or key and the rays under it
cannot name different classes.

Text format, written by :func:`format_ray_set` (the ``rays`` output)
and read by :func:`parse_ray_set`: one header line ``d,p,rho,count``
(the rho field is empty for mean-only classes), then one line per ray of
``;``-joined ``index:mass`` pairs with 17 significant digits, which
round-trips doubles exactly. The header must hold numbers that name a
valid :class:`ClassSpec`, or parsing raises :class:`InvalidSpec`; a ray
line that is not one to three ``index:mass`` pairs of numbers raises
:class:`LengthMismatch`.

The cache stores binary arrays instead: one ``rayset_<key digest>.bin``
file per (d, p, rho, package version) key holding three consecutive
``.npy`` records (version 1.0, written by ``np.save``): the float64 key
``[d, p, rho]`` with rho NaN for a mean-only class, then the ``(n, 3)``
int64 support and float64 masses of a :class:`RaySet`. A ``.sha256``
sidecar holds the digest of the file's bytes. Any doubt is a miss: a
missing file, a sidecar mismatch, a malformed, truncated or overlong
record sequence, another dtype or shape, a key that differs from the
request, or rays that fail validation.
"""

from __future__ import annotations

import hashlib
import io
import math
import re
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import IndexOutOfRange, InvalidSpec, LengthMismatch
from .rays_mean import RayDensity, RaySet
from .spec import ClassSpec

# Line templates by ray size; str.format ignores the unused trailing cells.
_LINE_FORMATS = {
    1: "{0}:{1:.17g}",
    2: "{0}:{1:.17g};{2}:{3:.17g}",
    3: "{0}:{1:.17g};{2}:{3:.17g};{4}:{5:.17g}",
}

# One ray line: one to three index:mass pairs. Indices of at most 18
# digits fit int64; masses are checked by float().
_PAIR = r"([0-9]{1,18}):([^;:\n]+)"
_RAY_LINE = re.compile(rf"^{_PAIR}(?:;{_PAIR})?(?:;{_PAIR})?$", re.MULTILINE)

# Characters of ray lines parsed at once.
_BLOCK_CHARS = 2**18


def format_ray_set(rays: Sequence[RayDensity]) -> str:
    """The text form of ``rays``, headed by the class of ``rays.spec``."""
    rays = RaySet.of(rays)
    spec = rays.spec
    rho_field = "" if spec.rho is None else format(spec.rho, ".17g")
    columns = []
    for c in range(3):
        columns += [rays.support[:, c].tolist(), rays.masses[:, c].tolist()]
    lines = [f"{spec.d},{spec.p:.17g},{rho_field},{len(rays)}"]
    lines += [_LINE_FORMATS[k].format(*row)
              for k, row in zip(rays.sizes.tolist(), zip(*columns))]
    return "\n".join(lines) + "\n"


def _read_rows(rows: list, support: np.ndarray, masses: np.ndarray) -> None:
    """Fill padded support and mass rows from regex rows of six cells.

    An absent pair reads as two empty cells; its index repeats the
    previous one and its mass stays zero, as RaySet pads short rays.
    """
    cells = list(zip(*rows)) or [()] * 6
    for c in range(3):
        indices, weights = cells[2 * c], cells[2 * c + 1]
        present = np.fromiter(map(bool, indices), bool, len(rows))
        support[present, c] = np.fromiter(map(int, filter(None, indices)),
                                          np.int64)
        try:
            masses[present, c] = np.fromiter(
                map(float, filter(None, weights)), np.float64)
        except ValueError:
            raise LengthMismatch("a ray line has a mass that is not a "
                                 "number") from None
        if c:
            # A written pair that repeats its predecessor would pass for
            # padding; RayDensity rejects a repeated point.
            if (present & (support[:, c] == support[:, c - 1])).any():
                raise IndexOutOfRange("a ray repeats a support point")
            support[~present, c] = support[~present, c - 1]


def parse_ray_set(text: str) -> RaySet:
    """The ray set of :func:`format_ray_set` text, of the header's class."""
    text = text.strip("\n")
    split = text.find("\n")
    header = text if split < 0 else text[:split]
    fields = header.split(",")
    if len(fields) != 4:
        raise LengthMismatch(f"malformed ray-set header: {header!r}")
    try:
        d, p, count = int(fields[0]), float(fields[1]), int(fields[3])
        rho = float(fields[2]) if fields[2] else None
    except ValueError:
        raise InvalidSpec(f"malformed ray-set header: {header!r}") from None
    spec = ClassSpec(d, p, rho)
    carried = text.count("\n")
    if carried != count:
        raise LengthMismatch(
            f"header announces {count} rays, file carries {carried}"
        )
    support = np.zeros((count, 3), np.int64)
    masses = np.zeros((count, 3))
    done = 0
    # Blocks of lines bound the per-cell strings alive at once.
    start = len(text) if split < 0 else split + 1
    while start < len(text):
        end = text.find("\n", start + _BLOCK_CHARS)
        end = len(text) if end < 0 else end
        rows = _RAY_LINE.findall(text, start, end)
        _read_rows(rows, support[done:done + len(rows)],
                   masses[done:done + len(rows)])
        done += len(rows)
        start = end + 1
    if done != count:
        raise LengthMismatch("a ray line is not 1 to 3 index:mass pairs")
    return RaySet._owning(spec, support, masses)


def _cache_file(cache_dir: Path, spec: ClassSpec, version: str) -> Path:
    key = f"{spec.d},{spec.p!r},{spec.rho!r},{version}"
    digest = hashlib.sha256(key.encode()).hexdigest()[:16]
    return Path(cache_dir) / f"rayset_{digest}.bin"


def _read_record(data: bytes, stream: io.BytesIO, dtype) -> np.ndarray:
    """Read the ``.npy`` record at the stream position, which must hold
    C-ordered ``dtype`` values. Only the header is parsed before the
    shape is checked against the bytes left, so a forged shape cannot
    make the reader allocate."""
    if np.lib.format.read_magic(stream) != (1, 0):
        raise ValueError("not a version 1.0 .npy record")
    shape, fortran_order, got = np.lib.format.read_array_header_1_0(stream)
    if fortran_order or got != np.dtype(dtype):
        raise ValueError(f"record of dtype {got}, expected {dtype}")
    if any(n < 0 for n in shape):
        raise ValueError(f"record of shape {shape}")
    start = stream.tell()
    array = np.frombuffer(data, dtype, math.prod(shape), start)
    stream.seek(start + array.nbytes)
    return array.reshape(shape)


def load_cached_rays(
    cache_dir: Path, spec: ClassSpec, version: str
) -> RaySet | None:
    """Return the cached enumeration of ``spec``, or None on any doubt."""
    path = _cache_file(cache_dir, spec, version)
    try:
        data = path.read_bytes()
        digest = path.with_suffix(".sha256").read_text(encoding="utf-8")
        if digest.strip() != hashlib.sha256(data).hexdigest():
            return None
        stream = io.BytesIO(data)
        key = _read_record(data, stream, np.float64)
        support = _read_record(data, stream, np.int64)
        masses = _read_record(data, stream, np.float64)
        if stream.tell() != len(data) or key.shape != (3,):
            return None
        rho = spec.rho
        same_rho = math.isnan(key[2]) if rho is None else key[2] == rho
        if key[0] != spec.d or key[1] != spec.p or not same_rho:
            return None
        # RaySet checks the shapes and validates every ray; the arrays
        # are read-only views of the bytes read, so the set can own them.
        return RaySet._owning(spec, support, masses)
    except (OSError, ValueError, ArithmeticError):
        return None


def store_cached_rays(
    cache_dir: Path, rays: Sequence[RayDensity], version: str
) -> Path:
    """Write ``rays`` as the cache entry of ``rays.spec``; return its path."""
    rays = RaySet.of(rays)
    spec = rays.spec
    path = _cache_file(cache_dir, spec, version)
    path.parent.mkdir(parents=True, exist_ok=True)
    rho = math.nan if spec.rho is None else spec.rho
    key = np.array([spec.d, spec.p, rho])
    buffer = io.BytesIO()
    for array in (key, rays.support, rays.masses):
        np.save(buffer, array, allow_pickle=False)
    data = buffer.getbuffer()
    path.write_bytes(data)
    digest = hashlib.sha256(data).hexdigest()
    path.with_suffix(".sha256").write_text(digest + "\n", encoding="utf-8")
    return path
