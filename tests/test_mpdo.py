import os
import struct
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


def test_real_operator_loads_real(tmp_path, sample_op):
    assert sample_op.entries.dtype == np.float64
    path = tmp_path / "real.mpdo"
    save_operator(sample_op, str(path))
    assert path.stat().st_size == 26 + 16 * sample_op.grid.size**2
    back = load_operator(str(path))
    assert back.entries.dtype == np.float64
    assert back.entries.flags["C_CONTIGUOUS"]
    assert np.array_equal(back.entries, sample_op.entries)


def test_complex_operator_loads_complex(tmp_path):
    grid = Grid(1, 1.0, 8)
    rng = np.random.default_rng(3)
    A = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    A[0, 0] = 1.0  # exactly zero imaginary parts on some entries do not matter
    path = tmp_path / "cplx.mpdo"
    save_operator(OperatorMatrix(A, grid), str(path))
    back = load_operator(str(path))
    assert back.entries.dtype == np.complex128
    assert np.array_equal(back.entries, A)
    assert back.entries.tobytes() == A.tobytes()


def test_identity_round_trip(tmp_path):
    grid = Grid(1, 1.0, 8)
    op = OperatorMatrix(np.eye(8, dtype=complex), grid, symmetrized=True)
    path = tmp_path / "eye.mpdo"
    save_operator(op, str(path))
    raw1 = path.read_bytes()
    save_operator(load_operator(str(path)), str(path))
    assert path.read_bytes() == raw1


@pytest.mark.parametrize("name", ["missing.mpdo", "."])
def test_unopenable_file(tmp_path, name):
    with pytest.raises(FormatError, match="cannot open"):
        load_operator(str(tmp_path / name))


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


def test_non_finite_payload_rejected(tmp_path):
    entries = np.eye(8, dtype=complex)
    entries[2, 5] = np.nan
    path = tmp_path / "nan.mpdo"
    save_operator(OperatorMatrix(entries, Grid(1, 1.0, 8)), str(path))
    with pytest.raises(FormatError):
        load_operator(str(path))


def test_flagged_non_hermitian_payload_rejected(tmp_path):
    rng = np.random.default_rng(3)
    entries = np.triu(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    path = tmp_path / "flagged.mpdo"
    save_operator(OperatorMatrix(entries, Grid(1, 1.0, 8), symmetrized=True), str(path))
    with pytest.raises(FormatError):
        load_operator(str(path))
    # the same payload without the flag is a valid non-Hermitian operator
    save_operator(OperatorMatrix(entries, Grid(1, 1.0, 8)), str(path))
    assert np.array_equal(load_operator(str(path)).entries, entries)


def test_forged_size_refused_before_allocation(tmp_path):
    # the header asks for 1 GB (inside the budget), the file holds 16 bytes
    path = tmp_path / "forged.mpdo"
    path.write_bytes(MAGIC + struct.pack("<IIdI", 1, 8192, 10.0, 1) + bytes(16))
    tracemalloc.start()
    try:
        with pytest.raises(FormatError):
            load_operator(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _saved_bytes():
    grid = Grid(1, 5.0, 16)
    op = op_weyl(symbol_from_id("relativistic", 1), transversal_gauge(zero_field(1)), grid)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "op.mpdo")
        save_operator(op, path)
        with open(path, "rb") as fh:
            return fh.read()


SAVED = _saved_bytes()
PAYLOAD = len(MAGIC) + struct.calcsize("<IIdI")  # offset of the first entry


def _mutate(data, edits):
    out = bytearray(data)
    for pos, value in edits:
        out[pos] = value
    return bytes(out)


damage = st.one_of(
    st.builds(lambda cut: SAVED[:cut], st.integers(0, len(SAVED) - 1)),
    st.builds(lambda edits: _mutate(SAVED, edits),
              st.lists(st.tuples(st.integers(0, len(SAVED) - 1), st.integers(0, 255)),
                       min_size=1, max_size=8)),
)


@given(damage)
@example(SAVED[:len(MAGIC) + 10])
@example(_mutate(SAVED, [(len(SAVED) - 1, 0x7F), (len(SAVED) - 2, 0xF8)]))  # a NaN
@example(_mutate(SAVED, [(len(MAGIC) + 4, 0x00), (len(MAGIC) + 5, 0x20)]))  # n = 8192
@example(_mutate(SAVED, [(PAYLOAD + 23, 0x7F), (PAYLOAD + 22, 0xE0)]))  # entry (0, 1) near 1e308
@settings(max_examples=200, deadline=None)
def test_damaged_file_loads_cleanly_or_raises_format_error(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "damaged.mpdo")
        with open(path, "wb") as fh:
            fh.write(data)
        try:
            op = load_operator(path)
        except (FormatError, BudgetError):
            return
    E = op.entries
    assert np.isfinite(E).all()
    if op.symmetrized:
        E = E / max(np.abs(E).max(), 1e-300)  # no overflow in the norms below
        assert np.linalg.norm(E - E.conj().T) <= 1e-12 * np.linalg.norm(E)
