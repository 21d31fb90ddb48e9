"""Matrix and vector I/O: CSV, or ``.npy`` for a path ending in ``.npy``.

A ``.npy`` matrix is a 2-D and a vector a 1-D float64 array, written by
``np.save`` and mapped read-only by ``np.load(mmap_mode="r")``, so its file
must not be rewritten while the array is in use; any other ``.npy`` raises
:class:`DimensionMismatch`.  Every loaded array is read-only, so
``Dataset`` adopts it.  Subset, distribution and trace files are CSV.

Matrix CSV format: ASCII text, one row per line, comma-separated
literals, no header, row-major.  Vectors are single-column files.

Accepted on read: decimal literals (``-1.5``, ``.5``, ``2e-3``, with
optional surrounding whitespace) and ``inf``/``infinity``/``nan`` in any
case, with an optional sign.  Blank and whitespace-only lines are
skipped.  There are no comments.  Python's ``float`` also takes
underscore literals such as ``1_000``; numpy's parser, used here, does
not.  Ragged rows, bad literals and non-ASCII bytes raise
:class:`DimensionMismatch` naming the file and the first bad line; so
does a file without a row.

Every CSV the package writes has its format here and goes through one
block writer, :func:`_save_rows`: matrices and vectors (``%.17g``, which
round-trips every double exactly), subset rows (``;``-joined indices,
with or without a ``,%.17g`` probability) and the Kaczmarz trace (a
``t,squared_error`` header, then ``%d,%.17g``).
"""

from __future__ import annotations

import contextlib
import itertools
import os

import numpy as np

from .errors import DimensionMismatch

# values per %-format call in _save_rows: bounds the Python numbers
# alive at once
WRITE_BLOCK_VALUES = 1 << 16


def _open_text(path):
    # a non-ASCII byte decodes to U+FFFD, which no literal contains, so it
    # fails the parse and _locate_error names its line
    return open(path, "r", encoding="ascii", errors="replace")


def _parse(lines) -> np.ndarray:
    return np.loadtxt(lines, dtype=float, delimiter=",", comments=None, ndmin=2)


def _parses(text) -> bool:
    if not text.strip():
        return False
    try:
        _parse([text])
    except ValueError:
        return False
    return True


def _locate_error(path, exc) -> DimensionMismatch:
    """Name the first line the parser rejects (error path only)."""
    width = None
    with _open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            if not line.isascii():
                return DimensionMismatch(f"{path}: non-ASCII text at line {lineno}")
            fields = line.split(",")
            if width is None:
                width = len(fields)
            elif len(fields) != width:
                return DimensionMismatch(
                    f"{path}: ragged row at line {lineno} "
                    f"({len(fields)} fields, expected {width})"
                )
            if _parses(line):
                continue
            for col, field in enumerate(fields, start=1):
                if not _parses(field):
                    return DimensionMismatch(
                        f"{path}: bad literal {field.strip()!r} "
                        f"at line {lineno}, column {col}"
                    )
    return DimensionMismatch(f"{path}: {exc}")


def _is_npy(path) -> bool:
    return os.fspath(path).endswith(".npy")


def _load_npy(path, ndim: int, what: str) -> np.ndarray:
    """The float64 array of a .npy file as a plain view of its read-only map."""
    try:
        arr = np.load(path, mmap_mode="r")
    except (ValueError, EOFError) as exc:
        raise DimensionMismatch(f"{path}: not a .npy array file ({exc})") from None
    if not isinstance(arr, np.ndarray):
        raise DimensionMismatch(f"{path}: not a .npy array file")
    if arr.dtype != np.float64 or arr.ndim != ndim or arr.size == 0:
        raise DimensionMismatch(f"{path}: expected a nonempty {ndim}-D float64 {what}, "
                                f"got {arr.dtype} of shape {arr.shape}")
    return arr.view(np.ndarray)


def load_matrix(path) -> np.ndarray:
    if _is_npy(path):
        return _load_npy(path, 2, "matrix")
    # the parser pulls lines from the file a chunk at a time, so the whole
    # text is never held beside the array
    with _open_text(path) as fh:
        rows = (line for line in fh if line.strip())
        first = next(rows, None)
        if first is None:
            raise DimensionMismatch(f"{path}: empty matrix file")
        try:
            mat = _parse(itertools.chain([first], rows))
        except ValueError as exc:
            raise _locate_error(path, exc) from None
    mat.setflags(write=False)
    return mat


def _save_rows(dest, header, row_format, *columns) -> None:
    """Write ``header`` to ``dest`` (a path or a text stream), then row i
    as ``row_format % values``, the values being row i of each column
    (1-D or 2-D) in turn; ``%d`` prints an integer column that a float
    one turned into floats exactly."""
    block = max(1, WRITE_BLOCK_VALUES // max(row_format.count("%"), 1))
    with (open(dest, "w", encoding="ascii") if isinstance(dest, (str, os.PathLike))
          else contextlib.nullcontext(dest)) as fh:
        fh.write(header)
        for start in range(0, len(columns[0]), block):
            values = np.column_stack([c[start:start + block] for c in columns])
            fh.write((row_format * len(values)) % tuple(values.ravel().tolist()))


def save_matrix(path, matrix) -> None:
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    if _is_npy(path):
        return np.save(path, matrix)
    _save_rows(path, "", ",".join(["%.17g"] * matrix.shape[1]) + "\n", matrix)


def save_subsets(dest, subsets) -> None:
    _save_rows(dest, "", ";".join(["%d"] * subsets.shape[1]) + "\n", subsets)


def save_distribution(dest, subsets, probs) -> None:
    _save_rows(dest, "", ";".join(["%d"] * subsets.shape[1]) + ",%.17g\n", subsets, probs)


def save_trace(path, errors) -> None:
    _save_rows(path, "t,squared_error\n", "%d,%.17g\n", np.arange(len(errors)), errors)


def load_vector(path) -> np.ndarray:
    if _is_npy(path):
        return _load_npy(path, 1, "vector")
    mat = load_matrix(path)
    if mat.shape[1] != 1:
        raise DimensionMismatch(
            f"{path}: expected a single-column vector file, got {mat.shape[1]} columns"
        )
    return mat[:, 0]


def save_vector(path, vector) -> None:
    vector = np.asarray(vector, dtype=float).reshape(-1)
    if _is_npy(path):
        return np.save(path, vector)
    save_matrix(path, vector[:, None])
