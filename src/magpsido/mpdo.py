"""Operator persistence in the MPDO1 binary format, and the atomic file
writer that every output of the package goes through.

Layout (little endian): magic "MPDO1\\0", u32 d, u32 n, f64 L, u32 flags
(bit 0: hermitized), then n^(2d) complex entries as interleaved f64 pairs in
row-major order. A file whose stored imaginary parts are all exactly 0.0
loads as float64 entries, any other as complex128.
"""
import contextlib
import hashlib
import os
import struct
import tempfile

import numpy as np

from .errors import BudgetError, ConfigError, FormatError
from .quantize import Grid, OperatorMatrix
from .spectral import HERMITIAN_TOL, hermiticity_defect

MAGIC = b"MPDO1\x00"
_HEADER = struct.Struct("<IId I")  # d, n, L, flags
LOAD_BUDGET_BYTES = 2 * 1024**3


@contextlib.contextmanager
def atomic_open(path, mode="w"):
    """Open a temporary file beside `path`, renamed over `path` when the block
    ends cleanly and removed otherwise; missing directories are created.

    Any OSError, from the directory to the rename, is raised as a ConfigError
    naming the path.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, mode, newline=None if "b" in mode else "") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc
        raise


def save_operator(op, path):
    """Write an operator matrix; the write is atomic (tmp file + rename)."""
    grid = op.grid
    flags = 1 if op.symmetrized else 0
    entries = np.ascontiguousarray(op.entries, dtype=np.complex128)
    interleaved = entries.view(np.float64).astype("<f8", copy=False)
    with atomic_open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(_HEADER.pack(grid.dimension, grid.n, grid.L, flags))
        interleaved.tofile(fh)
    return path


def load_operator(path):
    """Read an MPDO1 file back into an OperatorMatrix; bit-exact round trip.

    The entries are float64 when every stored imaginary part is 0.0, so a
    real operator stays real, and complex128 otherwise. Non-finite entries,
    and a file flagged hermitized whose payload is not Hermitian, raise
    FormatError.
    """
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise FormatError(f"cannot open operator file {path}: {exc.strerror}") from exc
    with fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise FormatError(f"bad magic {magic!r} in {path}")
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise FormatError("truncated header")
        d, n, L, flags = _HEADER.unpack(header)
        if d not in (1, 2) or n < 4 or n % 2 or not 0 < L < float("inf"):
            raise FormatError(f"invalid dimensions d={d} n={n} L={L}")
        size = n**d
        nbytes = 16 * size * size
        if nbytes > LOAD_BUDGET_BYTES:
            raise BudgetError(
                f"operator needs {nbytes / 1e9:.2f} GB, over the "
                f"{LOAD_BUDGET_BYTES / 1e9:.2f} GB load budget")
        # sized from the file before reading, so a forged header allocates nothing
        payload = os.fstat(fh.fileno()).st_size - fh.tell()
        if payload < nbytes:
            raise FormatError(f"truncated payload in {path}")
        if payload > nbytes:
            raise FormatError(f"trailing bytes in {path}")
        raw = np.fromfile(fh, dtype="<f8", count=2 * size * size)
        if raw.size != 2 * size * size:
            raise FormatError(f"truncated payload in {path}")
    if not np.isfinite(raw).all():
        raise FormatError(f"non-finite entries in {path}")
    pairs = raw.astype(np.float64).reshape(size, size, 2)
    if pairs[..., 1].any():
        entries = pairs.view(np.complex128)[..., 0]
    else:
        entries = np.ascontiguousarray(pairs[..., 0])
    symmetrized = bool(flags & 1)
    if symmetrized:
        defect = hermiticity_defect(entries)
        if defect > HERMITIAN_TOL:
            raise FormatError(
                f"{path} is flagged hermitized but its Hermiticity defect is {defect:.3e}")
    grid = Grid(d, L, n)
    return OperatorMatrix(entries, grid, symbol_id=os.path.basename(path),
                          symmetrized=symmetrized)


def file_hash(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
