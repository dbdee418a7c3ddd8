"""Plain-text coordinate serialization for the matrices the tools exchange.

Format: one header line "rows cols nnz", then one line per stored entry,
"i j re im" with 1-indexed positions and full-precision floats (repr), so
a write/read cycle is bit-exact.  Entries appear in row-major order.
"""

from __future__ import annotations

import io
import math

import numpy as np
import scipy.sparse as sp

from .errors import ParameterError

__all__ = ["write_coordinate", "read_coordinate", "format_coordinate", "parse_coordinate"]


def format_coordinate(M) -> str:
    """Serialize a dense array or sparse matrix to the coordinate text."""
    A = sp.coo_matrix(M)
    order = np.lexsort((A.col, A.row))
    lines = [f"{A.shape[0]} {A.shape[1]} {A.nnz}"]
    for idx in order:
        v = complex(A.data[idx])
        lines.append(f"{A.row[idx] + 1} {A.col[idx] + 1} {v.real!r} {v.imag!r}")
    return "\n".join(lines) + "\n"


def _fields(line: str, types, what: str) -> list:
    """The whitespace-separated fields of line, each read by its type."""
    parts = line.split()
    try:
        if len(parts) == len(types):
            return [read(part) for read, part in zip(types, parts)]
    except ValueError:
        pass
    raise ParameterError(f"malformed {what} {line!r}")


def parse_coordinate(text: str) -> sp.csr_matrix:
    """Inverse of format_coordinate; returns complex CSR.

    Rejects, with ParameterError, what format_coordinate never writes: a
    negative size, a field that is not an integer position or a float, a
    non-finite value and a position given twice.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParameterError("empty coordinate text")
    rows, cols, nnz = _fields(lines[0], (int, int, int), "header")
    if min(rows, cols, nnz) < 0:
        raise ParameterError(f"negative size in header {lines[0]!r}")
    if len(lines) - 1 != nnz:
        raise ParameterError(f"header promises {nnz} entries, found {len(lines) - 1}")
    ii = np.empty(nnz, dtype=int)
    jj = np.empty(nnz, dtype=int)
    vv = np.empty(nnz, dtype=complex)
    seen = set()
    for t, ln in enumerate(lines[1:]):
        i, j, re, im = _fields(ln, (int, int, float, float), "entry line")
        if not (1 <= i <= rows and 1 <= j <= cols):
            raise ParameterError(f"entry ({i}, {j}) outside {rows} x {cols}")
        if not (math.isfinite(re) and math.isfinite(im)):
            raise ParameterError(f"non-finite entry {ln!r}")
        if (i, j) in seen:
            raise ParameterError(f"entry ({i}, {j}) repeated")
        seen.add((i, j))
        ii[t], jj[t] = i - 1, j - 1
        vv[t] = complex(re, im)
    return sp.coo_matrix((vv, (ii, jj)), shape=(rows, cols)).tocsr()


def write_coordinate(M, path_or_file) -> None:
    text = format_coordinate(M)
    if isinstance(path_or_file, (str, bytes)) or hasattr(path_or_file, "__fspath__"):
        with open(path_or_file, "w") as fh:
            fh.write(text)
    else:
        path_or_file.write(text)


def read_coordinate(path_or_file) -> sp.csr_matrix:
    if isinstance(path_or_file, (str, bytes)) or hasattr(path_or_file, "__fspath__"):
        with open(path_or_file) as fh:
            return parse_coordinate(fh.read())
    if isinstance(path_or_file, io.TextIOBase) or hasattr(path_or_file, "read"):
        return parse_coordinate(path_or_file.read())
    raise ParameterError("expected a path or readable file object")
