"""write_panel_wide and save_matrix against their per-cell oracles, at the floats where
a vectorized '%.17g' goes wrong: decade edges, the 1e17 carry, exact ties, chunk edges."""

import warnings

import numpy as np
import pytest

from eigensectors import CorrelationMatrix, PricePanel, correlation_matrix, save_matrix
from eigensectors.synth import asset_names, write_panel_wide
from eigensectors.timeseries import _GRID_CHUNK
from helpers import EDGE_FLOATS, days, noise_returns, save_matrix_oracle, write_panel_wide_oracle


def _ulps_around(x, count):
    """count floats below x, x itself and count above it."""
    below, above = [x], [x]
    for _ in range(count):
        below.append(np.nextafter(below[-1], -np.inf))
        above.append(np.nextafter(above[-1], np.inf))
    return below[:0:-1] + above


DECADE_EDGES = [y for k in range(-30, 31) for y in _ulps_around(10.0**k, 200)]
CARRY = [99999999999999999.0, np.nextafter(1e17, 0), 1e17, np.nextafter(1e17, np.inf), 9999999999999998.0]
TIES = [(2**53 - 1) * 2.0**-k for k in range(-12, 80)] + [1234567890123456.75, 0.5, 2.5, 1234.5]
BOUNDS = [np.nextafter(1e-4, 0), 1e-4, np.nextafter(1e-4, 1), 1e16, np.nextafter(1e16, 0)]


def _signed(values):
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, -values])


def _panel_matches(grid, directory):
    n, t = grid.shape
    panel = PricePanel(assets=asset_names(n), dates=days(t), prices=np.ones((n, t)))
    panel.prices = grid  # the writer formats any float; PricePanel rejects some of these
    write_panel_wide(panel, directory / "panel.csv")
    write_panel_wide_oracle(panel, directory / "oracle.csv")
    return (directory / "panel.csv").read_bytes() == (directory / "oracle.csv").read_bytes()


def _matrix_matches(values, directory):
    n = values.shape[0]
    c = CorrelationMatrix(assets=[f"S{i}" for i in range(n)], values=np.eye(n), n_observations=9)
    c.values = values  # the writer formats any float; CorrelationMatrix rejects some of these
    save_matrix(c, directory / "corr.csv")
    save_matrix_oracle(c, directory / "oracle.csv")
    return (directory / "corr.csv").read_bytes() == (directory / "oracle.csv").read_bytes()


def _both_match(values, directory):
    """values padded with 1.0 into a 7-asset panel and into a square matrix."""
    values = np.asarray(values, dtype=float)
    t = max(3, -(-values.size // 7))
    n = int(np.ceil(np.sqrt(values.size)))
    panel = np.concatenate([values, np.ones(7 * t - values.size)]).reshape(7, t)
    matrix = np.concatenate([values, np.ones(n * n - values.size)]).reshape(n, n)
    return _panel_matches(panel, directory), _matrix_matches(matrix, directory)


@pytest.mark.parametrize(
    "values",
    [_signed(DECADE_EDGES), _signed(CARRY), _signed(TIES), _signed(BOUNDS), np.array(EDGE_FLOATS)],
    ids=["decade_edges", "carry_to_1e17", "exact_ties", "fixed_range_bounds", "edge_floats"],
)
def test_writers_match_oracles_at_hard_floats(tmp_path, values):
    assert _both_match(values, tmp_path) == (True, True)


def test_writers_match_oracles_on_random_bit_patterns(tmp_path):
    bits = np.random.default_rng(18).integers(0, 2**64, (16, 1 << 16), dtype=np.uint64)
    assert _panel_matches(bits.view(np.float64), tmp_path)
    assert _matrix_matches(bits[:4].reshape(512, 512).view(np.float64), tmp_path)


def test_matrix_over_one_chunk_matches_oracle(tmp_path):
    assert 300 * 300 > _GRID_CHUNK
    assert _matrix_matches(correlation_matrix(noise_returns(300, 400, 18)).values, tmp_path)


def test_panel_gaps_across_chunk_edges_match_oracle(tmp_path):
    n, t = 259, 300
    assert n * t > 1 << 16
    grid = 100.0 * np.exp(np.cumsum(np.random.default_rng(5).normal(0, 0.02, (n, t)), axis=1))
    rows_per_chunk = _GRID_CHUNK // n
    for edge in range(rows_per_chunk, t, rows_per_chunk):
        grid[:, edge - 2 : edge + 2] = np.nan  # whole dates missing on both sides of the edge
        grid[::3, edge - 1] = 1.0  # and some present cells among them
        grid[7, edge - 5 : edge + 5] = np.nan
    grid[:, -1] = np.nan
    assert _panel_matches(grid, tmp_path)


def test_writers_raise_no_warning(tmp_path):
    edge = np.array([EDGE_FLOATS, EDGE_FLOATS[::-1]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _panel_matches(edge, tmp_path)
        assert _matrix_matches(np.resize(edge, (12, 12)), tmp_path)


def test_panel_rows_longer_than_a_chunk_match_oracle(tmp_path):
    n = _GRID_CHUNK + 1000
    grid = 100.0 + np.arange(3 * n).reshape(n, 3) / 7.0
    grid[[0, _GRID_CHUNK - 1, _GRID_CHUNK, n - 1], 1] = np.nan  # gaps at the ends of a row's blocks
    assert _panel_matches(grid, tmp_path)
