import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from cullsq import DimensionMismatch, dataio
from cullsq.dataio import load_matrix, load_vector, save_matrix, save_vector

SPECIAL_VALUES = [0.0, -0.0, 5e-324, -2.5e-310, np.inf, -np.inf, np.nan, 1.797e308, -1.797e308]


def test_matrix_round_trip(tmp_path):
    path = tmp_path / "m.csv"
    M = np.random.default_rng(0).standard_normal((7, 3))
    save_matrix(path, M)
    np.testing.assert_array_equal(load_matrix(path), M)


def test_vector_round_trip(tmp_path):
    path = tmp_path / "v.csv"
    v = np.array([1.5, -2.25, 1e-300, 3.141592653589793])
    save_vector(path, v)
    np.testing.assert_array_equal(load_vector(path), v)


def test_ragged_rows_rejected(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1,2,3\n\n4,5\n")
    with pytest.raises(DimensionMismatch, match="ragged row at line 3"):
        load_matrix(path)


def test_bad_literal_rejected(tmp_path):
    # underscore literals: Python's float() takes them, the CSV grammar does not
    path = tmp_path / "bad.csv"
    for literal in ("x", "1_000", ""):
        path.write_text(f"1,2\n \n3,{literal}\n")
        with pytest.raises(DimensionMismatch, match=f"bad literal '{literal}' at line 3, column 2"):
            load_matrix(path)


def test_vector_requires_single_column(tmp_path):
    path = tmp_path / "wide.csv"
    path.write_text("1,2\n3,4\n")
    with pytest.raises(DimensionMismatch):
        load_vector(path)


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    for text in ("", " \n\t\n\n"):
        path.write_text(text)
        with pytest.raises(DimensionMismatch, match="empty"):
            load_matrix(path)


def test_non_ascii_rejected(tmp_path):
    path = tmp_path / "latin.csv"
    path.write_bytes(b"1,2\n\n3,\xc3\xa9\n")
    with pytest.raises(DimensionMismatch, match="non-ASCII text at line 3"):
        load_matrix(path)


def test_blank_and_whitespace_lines_skipped(tmp_path):
    path = tmp_path / "gaps.csv"
    path.write_text("\n1,2\n   \n\t\n3,4\r\n\n")
    np.testing.assert_array_equal(load_matrix(path), [[1.0, 2.0], [3.0, 4.0]])


def test_literals_parse_like_python_float(tmp_path):
    literals = ["-.5", "1.", "+2E5", " 7 ", "00012", "-0", "4.9e-324", "1e400",
                "inf", "-Infinity", "NaN", "-nan", "1.7976931348623157e308"]
    path = tmp_path / "literals.csv"
    path.write_text("\n".join(literals) + "\n")
    expect = np.array([float(v) for v in literals])
    np.testing.assert_array_equal(load_vector(path).view(np.int64), expect.view(np.int64))


@pytest.mark.parametrize("block_values", [7, dataio.WRITE_BLOCK_VALUES])
def test_save_matrix_writes_format_17g(tmp_path, monkeypatch, block_values):
    monkeypatch.setattr(dataio, "WRITE_BLOCK_VALUES", block_values)
    M = np.random.default_rng(1).standard_normal((11, 3)) * 10.0 ** np.arange(-2, 9, 1)[:, None]
    M[:3] = np.array(SPECIAL_VALUES).reshape(3, 3)
    path = tmp_path / "m.csv"
    save_matrix(path, M)
    expect = "".join(",".join(format(v, ".17g") for v in row) + "\n" for row in M)
    assert path.read_text() == expect


@pytest.mark.parametrize("block_values", [7, dataio.WRITE_BLOCK_VALUES])
def test_subset_and_trace_rows_match_one_row_at_a_time(tmp_path, monkeypatch, block_values):
    # one writer for every format: blocks of 1 or 2 rows here, one block
    # at the default size; a stream takes the same text as a file
    monkeypatch.setattr(dataio, "WRITE_BLOCK_VALUES", block_values)
    gen = np.random.default_rng(2)
    subsets = np.sort(gen.choice(10**6, size=(9, 3)), axis=1)
    probs = gen.random(9) * 10.0 ** np.arange(-8, 1)
    errors = np.concatenate([gen.random(6), SPECIAL_VALUES])
    expect = {
        "subsets": "".join(";".join(map(str, row)) + "\n" for row in subsets.tolist()),
        "distribution": "".join(";".join(map(str, row)) + f",{p:.17g}\n"
                                for row, p in zip(subsets.tolist(), probs.tolist())),
        "trace": "t,squared_error\n" + "".join(f"{t},{e:.17g}\n" for t, e in enumerate(errors)),
    }
    writers = {
        "subsets": lambda dest: dataio.save_subsets(dest, subsets),
        "distribution": lambda dest: dataio.save_distribution(dest, subsets, probs),
        "trace": lambda dest: dataio.save_trace(dest, errors),
    }
    for name, write in writers.items():
        write(tmp_path / f"{name}.csv")
        assert (tmp_path / f"{name}.csv").read_text() == expect[name]
        stream = io.StringIO()
        write(stream)
        assert stream.getvalue() == expect[name]


float_values = st.one_of(st.floats(), st.sampled_from(SPECIAL_VALUES))


@settings(max_examples=60, deadline=None)
@given(M=arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 5)),
                elements=float_values))
def test_round_trip_is_exact(tmp_path_factory, M):
    path = tmp_path_factory.mktemp("rt") / "m.csv"
    save_matrix(path, M)
    loaded = load_matrix(path)
    np.testing.assert_array_equal(loaded, M)  # nan-aware
    signed = ~np.isnan(M)
    np.testing.assert_array_equal(np.signbit(loaded[signed]), np.signbit(M[signed]))


def test_npy_round_trip_is_bit_exact(tmp_path):
    M = np.random.default_rng(2).standard_normal((11, 3))
    M[:3] = np.array(SPECIAL_VALUES).reshape(3, 3)
    v = np.asarray(SPECIAL_VALUES)
    save_matrix(tmp_path / "m.npy", M)
    save_vector(tmp_path / "v.npy", v)
    for loaded, saved in ((load_matrix(tmp_path / "m.npy"), M), (load_vector(tmp_path / "v.npy"), v)):
        assert loaded.shape == saved.shape and loaded.dtype == np.float64
        assert np.array_equal(loaded.view(np.uint64), saved.view(np.uint64))
        # mapped read-only, not read into memory
        assert not loaded.flags.writeable and isinstance(loaded.base, np.memmap)
        assert type(loaded) is np.ndarray


@pytest.mark.parametrize(
    "name, array, match",
    [
        ("m.npy", np.ones((4, 2), dtype=np.float32), "2-D float64 matrix, got float32 of"),
        ("m.npy", np.ones(4), "2-D float64 matrix, got float64 of shape \\(4,\\)"),
        ("m.npy", np.ones((0, 2)), "nonempty 2-D float64 matrix, got float64 of shape \\(0, 2\\)"),
        ("v.npy", np.ones((4, 1)), "1-D float64 vector, got float64 of shape \\(4, 1\\)"),
        ("v.npy", np.ones(4, dtype=np.int64), "1-D float64 vector, got int64 of shape"),
        ("m.npy", None, "not a .npy array file"),
    ],
    ids=["float32", "one-dim-matrix", "empty", "two-dim-vector", "int-vector", "text"],
)
def test_bad_npy_is_dimension_mismatch(tmp_path, name, array, match):
    path = tmp_path / name
    if array is None:
        path.write_text("1,2\n3,4\n")
    else:
        np.save(path, array)
    load = load_vector if name.startswith("v") else load_matrix
    with pytest.raises(DimensionMismatch, match=match):
        load(path)


def test_non_finite_npy_fails_as_the_csv_does(tmp_path):
    from cullsq import Dataset, InvalidInput

    X = np.ones((4, 2))
    X[2, 1] = np.nan
    messages = []
    for name in ("x.csv", "x.npy"):
        save_matrix(tmp_path / name, X)
        with pytest.raises(InvalidInput) as info:
            Dataset(X=load_matrix(tmp_path / name))
        messages.append(str(info.value))
    assert messages[0] == messages[1] == "X contains non-finite entries"
