"""Correlation matrix construction, eigendecomposition, persistence."""

import codecs
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from eigensectors import (
    CorrelationMatrix,
    NumericalError,
    ParseError,
    ValidationError,
    correlation_matrix,
    eigendecompose,
    load_matrix,
    mean_offdiagonal,
    normalize_returns,
    save_matrix,
)
from helpers import (
    EDGE_FLOATS,
    FIXTURE_4X4,
    noise_returns,
    returns,
    save_matrix_oracle,
    spectrum_of,
)


def fixture_matrix(n_observations=1000):
    assets = ("AAA", "BBB", "CCC", "DDD")
    return CorrelationMatrix(
        assets=assets, values=FIXTURE_4X4.copy(), n_observations=n_observations
    )


# ---------------------------------------------------------------- construction


def test_identical_rows_fully_correlated():
    rng = np.random.default_rng(7)
    row = rng.standard_normal(500)
    nr = normalize_returns(returns(np.vstack([row, row])))
    c = correlation_matrix(nr)
    assert np.allclose(c.values, 1.0, atol=1e-12)


def test_negated_row_fully_anticorrelated():
    rng = np.random.default_rng(8)
    row = rng.standard_normal(500)
    nr = normalize_returns(returns(np.vstack([row, -row])))
    c = correlation_matrix(nr)
    assert c.values[0, 1] == pytest.approx(-1.0, abs=1e-12)
    assert c.values[1, 0] == pytest.approx(-1.0, abs=1e-12)


def test_independent_rows_weakly_correlated():
    # sampling noise on an off-diagonal entry is ~1/sqrt(T); 0.05 is 5 sigma
    for seed in range(3):
        c = correlation_matrix(noise_returns(10, 10_000, seed))
        off = c.values[~np.eye(10, dtype=bool)]
        assert np.abs(off).max() < 0.05


def test_diagonal_exactly_one():
    c = correlation_matrix(noise_returns(6, 50, 3))
    assert np.all(np.diag(c.values) == 1.0)


def test_matrix_metadata():
    c = correlation_matrix(noise_returns(6, 50, 4))
    assert c.n_assets == 6
    assert c.n_observations == 50
    assert c.assets == tuple(f"A{i}" for i in range(6))


def test_mean_offdiagonal_pair():
    c = CorrelationMatrix(
        assets=("X", "Y"), values=np.array([[1.0, 0.5], [0.5, 1.0]]), n_observations=10
    )
    assert mean_offdiagonal(c) == pytest.approx(0.5)


def test_mean_offdiagonal_identity_is_zero():
    c = CorrelationMatrix(assets=("X", "Y", "Z"), values=np.eye(3), n_observations=10)
    assert mean_offdiagonal(c) == 0.0


# ------------------------------------------------------------------ validation


def test_rejects_offunit_diagonal():
    vals = np.eye(2)
    vals[0, 0] = 0.999
    with pytest.raises(ValidationError):
        CorrelationMatrix(assets=("X", "Y"), values=vals, n_observations=10)


def test_rejects_asymmetry():
    vals = np.array([[1.0, 0.5], [0.3, 1.0]])
    with pytest.raises(ValidationError):
        CorrelationMatrix(assets=("X", "Y"), values=vals, n_observations=10)


def test_rejects_entries_beyond_unit():
    vals = np.array([[1.0, 1.2], [1.2, 1.0]])
    with pytest.raises(ValidationError):
        CorrelationMatrix(assets=("X", "Y"), values=vals, n_observations=10)


def test_rejects_nonfinite_entries():
    vals = np.array([[1.0, np.nan], [np.nan, 1.0]])
    with pytest.raises(ValidationError):
        CorrelationMatrix(assets=("X", "Y"), values=vals, n_observations=10)


def test_rejects_nonpositive_sample_size():
    with pytest.raises(ValidationError):
        CorrelationMatrix(assets=("X", "Y"), values=np.eye(2), n_observations=0)


def test_rejects_shape_mismatch():
    with pytest.raises(ValidationError):
        CorrelationMatrix(assets=("X", "Y", "Z"), values=np.eye(2), n_observations=10)


def test_rejects_duplicate_names(tmp_path):
    # a price file with duplicate columns is rejected; so is a matrix header
    path = tmp_path / "corr.csv"
    path.write_text("A,A\n1,0.5\n0.5,1\n")
    path.with_suffix(".meta.json").write_text('{"n_observations": 50}\n')
    with pytest.raises(ValidationError, match="duplicate asset names"):
        load_matrix(path)


# ------------------------------------------------------------- eigenstructure


def test_identity_spectrum():
    c = CorrelationMatrix(assets=("X", "Y", "Z"), values=np.eye(3), n_observations=100)
    spec = eigendecompose(c)
    assert np.allclose(spec.eigenvalues, 1.0)
    # exact threefold tie: modes ordered by anchor index
    assert np.allclose(spec.eigenvectors, np.eye(3))
    assert [spec.anchor_index(a) for a in range(3)] == [0, 1, 2]


def test_two_by_two_analytic():
    vals = np.array([[1.0, 0.6], [0.6, 1.0]])
    c = CorrelationMatrix(assets=("X", "Y"), values=vals, n_observations=100)
    spec = eigendecompose(c)
    s = 1.0 / np.sqrt(2.0)
    assert np.allclose(spec.eigenvalues, [1.6, 0.4])
    assert np.allclose(spec.vector(0), [s, s])
    # anchor tie resolves to component 0, which the sign convention makes positive
    assert np.allclose(spec.vector(1), [s, -s])


def test_fixture_spectrum():
    spec = eigendecompose(fixture_matrix())
    assert np.allclose(
        spec.eigenvalues, [2.30480, 1.23823, 0.40857, 0.04839], atol=1e-4
    )
    # mode 1 splits the tight pair (2, 3) from the moderate pair (0, 1)
    u1 = spec.vector(1)
    assert u1[0] > 0 and u1[1] > 0
    assert u1[2] < 0 and u1[3] < 0


def test_vector_index_bounds():
    spec = eigendecompose(fixture_matrix())
    with pytest.raises(IndexError):
        spec.vector(-1)
    with pytest.raises(IndexError):
        spec.vector(4)


def test_sign_convention_anchor_positive():
    for seed in range(10):
        spec = spectrum_of(noise_returns(seed % 5 + 2, 80, seed))
        for a in range(spec.n_assets):
            u = spec.vector(a)
            k = spec.anchor_index(a)
            assert np.abs(u).max() == np.abs(u[k])
            assert u[k] > 0.0


def test_spectrum_invariants():
    # orthonormality, reconstruction, trace over random panels
    rng = np.random.default_rng(42)
    for _ in range(15):
        n = int(rng.integers(2, 40))
        t = int(rng.integers(n + 1, 200))
        cm = correlation_matrix(noise_returns(n, t, int(rng.integers(0, 10_000))))
        spec = eigendecompose(cm)
        v = spec.eigenvectors
        assert np.abs(v.T @ v - np.eye(n)).max() < 1e-10
        assert np.abs((v * spec.eigenvalues) @ v.T - cm.values).max() < 1e-9
        assert spec.eigenvalues.sum() == pytest.approx(n, abs=1e-9 * n)
        assert np.all(spec.eigenvalues[:-1] >= spec.eigenvalues[1:] - 1e-12)


def test_decomposition_is_bit_deterministic():
    c1 = correlation_matrix(noise_returns(8, 200, 5))
    c2 = correlation_matrix(noise_returns(8, 200, 5))
    assert c1.values.tobytes() == c2.values.tobytes()
    s1, s2 = eigendecompose(c1), eigendecompose(c2)
    assert s1.eigenvalues.tobytes() == s2.eigenvalues.tobytes()
    assert s1.eigenvectors.tobytes() == s2.eigenvectors.tobytes()


def test_indefinite_matrix_rejected():
    # passes entry-level checks but has a negative eigenvalue (~ -0.22)
    vals = np.array([[1.0, 0.9, 0.1], [0.9, 1.0, 0.9], [0.1, 0.9, 1.0]])
    c = CorrelationMatrix(assets=("X", "Y", "Z"), values=vals, n_observations=100)
    with pytest.raises(NumericalError):
        eigendecompose(c)


# ----------------------------------------------------------------- persistence


def test_save_load_round_trip_exact(tmp_path):
    c = correlation_matrix(noise_returns(5, 400, 11))
    path = tmp_path / "corr.csv"
    sidecar = save_matrix(c, path)
    assert sidecar.name == "corr.meta.json"
    loaded = load_matrix(path)
    assert loaded.assets == c.assets
    assert loaded.n_observations == c.n_observations
    assert loaded.values.tobytes() == c.values.tobytes()


def _assert_matrix_matches_oracle(values, directory):
    n = values.shape[0]
    c = CorrelationMatrix(assets=[f"S{i}" for i in range(n)], values=np.eye(n), n_observations=9)
    c.values = values  # the writer formats any float; CorrelationMatrix rejects some of these
    save_matrix(c, directory / "corr.csv")
    save_matrix_oracle(c, directory / "oracle.csv")
    assert (directory / "corr.csv").read_bytes() == (directory / "oracle.csv").read_bytes()


@pytest.mark.parametrize("n", [2, 259])
def test_save_matches_oracle_on_correlations(tmp_path, n):
    values = correlation_matrix(noise_returns(n, 300, n)).values
    _assert_matrix_matches_oracle(values, tmp_path)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_save_matches_oracle(data):
    n = data.draw(st.integers(2, 8))
    cells = st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS))
    values = data.draw(arrays(np.float64, (n, n), elements=cells))
    with tempfile.TemporaryDirectory() as directory:
        _assert_matrix_matches_oracle(values, Path(directory))


def test_load_requires_sidecar(tmp_path):
    c = correlation_matrix(noise_returns(3, 100, 12))
    path = tmp_path / "corr.csv"
    save_matrix(c, path)
    (tmp_path / "corr.meta.json").unlink()
    with pytest.raises(ValidationError):
        load_matrix(path)


@pytest.mark.parametrize(
    "sidecar",
    [
        "{not json",
        '{"n_assets": 3}',
        '{"n_observations": "many"}',
        '{"n_observations": 1e400}',
        '{"n_observations": 99.5}',
        '{"n_observations": NaN}',
        '{"n_observations": true}',
        '{"n_observations": "12"}',
    ],
)
def test_load_rejects_bad_sidecar(tmp_path, sidecar):
    c = correlation_matrix(noise_returns(3, 100, 12))
    path = tmp_path / "corr.csv"
    save_matrix(c, path)
    (tmp_path / "corr.meta.json").write_text(sidecar)
    with pytest.raises(ValidationError, match="n_observations"):
        load_matrix(path)


@pytest.mark.parametrize("count", ["99", "2.5", '"3"', "true", "1e400", "null"])
def test_load_rejects_a_sidecar_asset_count_unlike_the_header(tmp_path, count):
    c = correlation_matrix(noise_returns(3, 100, 12))
    path = tmp_path / "corr.csv"
    sidecar = save_matrix(c, path)
    sidecar.write_text(f'{{"n_assets": {count}, "n_observations": 100}}\n')
    with pytest.raises(ValidationError) as err:
        load_matrix(path)
    shown = repr(json.loads(count))
    assert str(err.value) == f"matrix sidecar {sidecar} has n_assets {shown}; the header names 3"


def test_load_reads_a_whole_float_sidecar_asset_count(tmp_path):
    c = correlation_matrix(noise_returns(3, 100, 12))
    path = tmp_path / "corr.csv"
    save_matrix(c, path).write_text('{"n_assets": 3.0, "n_observations": 100}\n')
    assert load_matrix(path).values.tobytes() == c.values.tobytes()


@pytest.mark.parametrize("header", ["A,", ",B", "A, ,C", "", " "], ids=["last", "first", "middle", "blank", "space"])
def test_load_rejects_an_empty_name_in_the_header(tmp_path, header):
    n = max(header.count(",") + 1, 2)
    path = tmp_path / "corr.csv"
    path.write_text("\n".join([header, *(",".join(["1"] * n) for _ in range(n))]) + "\n")
    path.with_suffix(".meta.json").write_text('{"n_observations": 9}\n')
    with pytest.raises(ParseError) as err:
        load_matrix(path)
    assert str(err.value) == "line 1: empty asset name in matrix header"


def test_load_reports_ragged_row(tmp_path):
    path = tmp_path / "corr.csv"
    path.write_text("X,Y\n1.0,0.5\n0.5\n")
    path.with_suffix(".meta.json").write_text('{"n_assets": 2, "n_observations": 9}\n')
    with pytest.raises(ParseError) as err:
        load_matrix(path)
    assert err.value.line_number == 3


def test_load_reports_bad_float(tmp_path):
    path = tmp_path / "corr.csv"
    path.with_suffix(".meta.json").write_text('{"n_assets": 2, "n_observations": 9}\n')
    for text, line_no, cell in [
        ("X,Y\n1.0,oops\n0.5,1.0\n", 2, "oops"),
        ("X,Y\n1.0,0.5\n0.5, 1.0x\n", 3, " 1.0x"),
        ("X,Y\n1.0,0.5\n\n0x1,1.0\n", 4, "0x1"),
        ("X,Y\n1.0,0.5_0\n0.5,1.0\n", 2, "0.5_0"),  # float() reads both of these
        ("X,Y\n1.0,0.5\n0.5,\u0661\n", 3, "\u0661"),  # ARABIC-INDIC DIGIT ONE
    ]:
        path.write_bytes(text.encode())
        with pytest.raises(ParseError) as err:
            load_matrix(path)
        assert err.value.line_number == line_no
        assert str(err.value) == f"line {line_no}: could not convert string to float: {cell!r}"


@pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
def test_load_reads_utf8_bytes_with_any_line_end(tmp_path, end):
    c = correlation_matrix(noise_returns(3, 100, 13))
    path = tmp_path / "corr.csv"
    save_matrix(c, path)
    lines = path.read_bytes().splitlines()
    path.write_bytes(end.join(lines) + end)
    assert load_matrix(path).values.tobytes() == c.values.tobytes()
    lines[2] += b"\xff"
    path.write_bytes(end.join(lines) + end)
    with pytest.raises(ParseError, match=r"not UTF-8 text \(byte 0xff\)") as err:
        load_matrix(path)
    assert err.value.line_number == 3


def test_load_skips_utf8_byte_order_mark(tmp_path):
    c = correlation_matrix(noise_returns(3, 100, 13))
    path = tmp_path / "corr.csv"
    save_matrix(c, path)
    path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    assert load_matrix(path).assets == c.assets


@pytest.mark.parametrize("name", ["Y" * 131_073, '"Y,' + "Y" * 200_000 + '"'], ids=["bare", "quoted"])
def test_load_oversized_header_cell_is_a_parse_error(tmp_path, name):
    # over csv's default field size limit of 131072 characters
    path = tmp_path / "corr.csv"
    path.write_text(f"X,{name}\n1.0,0.5\n0.5,1.0\n")
    path.with_suffix(".meta.json").write_text('{"n_assets": 2, "n_observations": 9}\n')
    with pytest.raises(ParseError, match=r"field larger than field limit \(131072\)") as err:
        load_matrix(path)
    assert err.value.line_number == 1


def test_load_rejects_missing_rows(tmp_path):
    path = tmp_path / "corr.csv"
    path.write_text("X,Y\n1.0,0.5\n")
    path.with_suffix(".meta.json").write_text('{"n_assets": 2, "n_observations": 9}\n')
    with pytest.raises(ParseError):
        load_matrix(path)
