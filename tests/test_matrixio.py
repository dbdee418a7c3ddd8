"""Coordinate text format: literal layout, lossless cycles, rejection paths."""

import io

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from pdekit.errors import ParameterError
from pdekit.matrixio import (
    format_coordinate,
    parse_coordinate,
    read_coordinate,
    write_coordinate,
)


def test_literal_layout():
    M = np.array([[1.0, 0.0], [0.0, 2.0 + 1.0j]])
    assert format_coordinate(M) == "2 2 2\n1 1 1.0 0.0\n2 2 2.0 1.0\n"


def test_entries_one_indexed_row_major():
    M = np.array([[0.0, 3.0], [4.0, 0.0]])
    lines = format_coordinate(M).splitlines()
    assert lines[0] == "2 2 2"
    assert lines[1].startswith("1 2 ")
    assert lines[2].startswith("2 1 ")


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6), st.booleans(), st.data())
def test_round_trip_bit_exact(rows, cols, sparse, data):
    entries = st.complex_numbers(allow_nan=False, allow_infinity=False)
    M = np.array(data.draw(st.lists(st.one_of(st.just(0j), entries),
                                    min_size=rows * cols, max_size=rows * cols)),
                 dtype=complex).reshape(rows, cols)
    back = parse_coordinate(format_coordinate(sp.csr_matrix(M) if sparse else M)).tocoo()
    assert back.shape == (rows, cols)
    # the nonzeros, row-major, bit for bit (signed zero parts included)
    i, j = np.nonzero(M)
    assert np.array_equal(back.row, i) and np.array_equal(back.col, j)
    assert np.array_equal(back.data.view(np.uint64), M[i, j].view(np.uint64))


def test_round_trip_preserves_tiny_and_huge(rng):
    M = np.array([[1e-308, 0.0], [0.0, 1e301 + 1e-12j]])
    back = parse_coordinate(format_coordinate(M)).toarray()
    assert np.array_equal(back, M)


def test_sparse_input_and_output_type():
    A = sp.random(6, 6, density=0.3, format="csr", random_state=7)
    back = parse_coordinate(format_coordinate(A))
    assert sp.issparse(back) and back.format == "csr"
    assert np.array_equal(back.toarray(), A.toarray().astype(complex))


def test_file_and_stream_round_trip(tmp_path):
    M = np.array([[0.5, -1.5], [2.5, 0.0]])
    path = tmp_path / "m.mtx"
    write_coordinate(M, path)
    assert np.array_equal(read_coordinate(path).toarray(), M.astype(complex))
    buf = io.StringIO()
    write_coordinate(M, buf)
    assert np.array_equal(read_coordinate(io.StringIO(buf.getvalue())).toarray(),
                          M.astype(complex))


def test_empty_matrix_header_only():
    text = format_coordinate(np.zeros((3, 4)))
    assert text == "3 4 0\n"
    back = parse_coordinate(text)
    assert back.shape == (3, 4) and back.nnz == 0


@pytest.mark.parametrize("text,match", [
    ("", "empty"),
    ("2 2\n", "malformed header"),
    ("1 1 2\n1 1 1.0 0.0\n", "header promises"),
    ("1 1 1\n2 1 1.0 0.0\n", "outside"),
    ("1 1 1\n0 1 1.0 0.0\n", "outside"),
    ("1 1 1\n1 1 1.0\n", "malformed entry"),
])
def test_rejections(text, match):
    with pytest.raises(ParameterError, match=match):
        parse_coordinate(text)


def test_read_rejects_non_file():
    with pytest.raises(ParameterError, match="path or readable"):
        read_coordinate(42)
