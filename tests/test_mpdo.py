import struct

import numpy as np
import pytest

from magpsido.errors import BudgetError, FormatError
from magpsido.gauge import transversal_gauge, zero_field
from magpsido.mpdo import MAGIC, file_hash, load_operator, save_operator
from magpsido.quantize import Grid, OperatorMatrix, op_weyl
from magpsido.symbols import symbol_from_id


@pytest.fixture
def sample_op():
    grid = Grid(1, 5.0, 16)
    g = transversal_gauge(zero_field(1))
    return op_weyl(symbol_from_id("relativistic", 1), g, grid)


def test_round_trip_bit_exact(tmp_path, sample_op):
    path = tmp_path / "op.mpdo"
    save_operator(sample_op, str(path))
    back = load_operator(str(path))
    assert back.grid == sample_op.grid
    assert back.symmetrized == sample_op.symmetrized
    assert np.array_equal(back.entries, sample_op.entries)


def test_identity_round_trip(tmp_path):
    grid = Grid(1, 1.0, 8)
    op = OperatorMatrix(np.eye(8, dtype=complex), grid, symmetrized=True)
    path = tmp_path / "eye.mpdo"
    save_operator(op, str(path))
    raw1 = path.read_bytes()
    save_operator(load_operator(str(path)), str(path))
    assert path.read_bytes() == raw1


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.mpdo"
    path.write_bytes(b"NOTMPD" + b"\x00" * 64)
    with pytest.raises(FormatError):
        load_operator(str(path))


def test_truncated_payload(tmp_path, sample_op):
    path = tmp_path / "trunc.mpdo"
    save_operator(sample_op, str(path))
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(FormatError):
        load_operator(str(path))


def test_trailing_garbage(tmp_path, sample_op):
    path = tmp_path / "extra.mpdo"
    save_operator(sample_op, str(path))
    with open(path, "ab") as fh:
        fh.write(b"\x00")
    with pytest.raises(FormatError):
        load_operator(str(path))


def test_memory_budget_refused_from_header(tmp_path):
    # header-only guard: no payload is read before the size check
    path = tmp_path / "huge.mpdo"
    header = MAGIC + struct.pack("<IIdI", 1, 65536, 10.0, 1)
    path.write_bytes(header)
    with pytest.raises(BudgetError):
        load_operator(str(path))


def test_invalid_header_dimensions(tmp_path):
    path = tmp_path / "odd.mpdo"
    path.write_bytes(MAGIC + struct.pack("<IIdI", 1, 7, 10.0, 0))
    with pytest.raises(FormatError):
        load_operator(str(path))


@pytest.mark.parametrize("L", [float("nan"), float("inf")])
def test_non_finite_header_length(tmp_path, L):
    path = tmp_path / "length.mpdo"
    path.write_bytes(MAGIC + struct.pack("<IIdI", 1, 8, L, 0) + bytes(16 * 8 * 8))
    with pytest.raises(FormatError):
        load_operator(str(path))


def test_file_hash_stable(tmp_path, sample_op):
    path = tmp_path / "h.mpdo"
    save_operator(sample_op, str(path))
    assert file_hash(str(path)) == file_hash(str(path))
