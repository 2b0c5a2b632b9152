"""Shared builders for the test modules. Pure numpy, no pytest machinery."""

import csv
import datetime as dt
import io
import math

import numpy as np

from eigensectors import (
    BlockSpec,
    EigenSpectrum,
    InsufficientDataError,
    MarketSpec,
    NormalizedReturns,
    ParseError,
    PricePanel,
    ReturnMatrix,
    ValidationError,
    correlation_matrix,
    eigendecompose,
    normalize_returns,
)

# 4-asset correlation fixture: one tightly coupled pair (assets 2, 3 at 0.95),
# one moderate pair (assets 0, 1 at 0.55), weak cross links.
FIXTURE_4X4 = np.array(
    [
        [1.00, 0.55, 0.15, 0.11],
        [0.55, 1.00, 0.39, 0.34],
        [0.15, 0.39, 1.00, 0.95],
        [0.11, 0.34, 0.95, 1.00],
    ]
)

# The benchmark's paper_scan shape: 259 assets over 2632 returns, a market
# factor and four sign-split blocks.
PAPER_SCAN = MarketSpec(
    n_assets=259,
    n_observations=2632,
    market_strength=0.5,
    blocks=tuple(
        BlockSpec(tuple(range(start, start + size)), 1.0, (1, -1) * (size // 2), f"SEC{k}")
        for k, (start, size) in enumerate([(0, 30), (30, 24), (54, 18), (72, 12)])
    ),
)


# Assets 0-2 load one factor so strongly that they correlate at +-1 to the last bit: a
# combination of two of them can have a variance <= 0 by rounding, which leaves its
# Pearson correlation undefined. A synth config that test_synth_config_fuzz found.
DEGENERATE_CONFIG = {
    "n_assets": 6,
    "n_observations": 6,
    "market_strength": 1.0,
    "noise_std": 1.0,
    "seed": 1,
    "blocks": [{"assets": [0, 1, 2], "loading": 260891283.0, "sign_pattern": [1, 1, -1], "name": "A"}],
}


def days(count, start=dt.date(2015, 1, 5)):
    return tuple(start + dt.timedelta(days=i) for i in range(count))


def weekdays(count, start=dt.date(2015, 1, 5)):
    out, d = [], start
    while len(out) < count:
        if d.weekday() < 5:
            out.append(d)
        d += dt.timedelta(days=1)
    return tuple(out)


def panel(prices, assets=None, dates=None):
    """PricePanel from a nested list; None marks a missing cell."""
    grid = np.array(
        [[np.nan if p is None else float(p) for p in row] for row in prices]
    )
    if assets is None:
        assets = tuple(f"A{i}" for i in range(grid.shape[0]))
    if dates is None:
        dates = days(grid.shape[1])
    return PricePanel(assets=tuple(assets), dates=tuple(dates), prices=grid)


def returns(values, assets=None):
    vals = np.asarray(values, dtype=float)
    if assets is None:
        assets = tuple(f"A{i}" for i in range(vals.shape[0]))
    return ReturnMatrix(assets=tuple(assets), dates=days(vals.shape[1]), values=vals)


def noise_returns(n, t, seed):
    """Normalized panel of iid standard-normal returns.

    Draws t+1 columns and discards the first so the stream position
    matches fixtures generated the same way.
    """
    raw = np.random.default_rng(seed).standard_normal((n, t + 1))
    return normalize_returns(returns(raw[:, 1:]))


def spectrum_of(nr: NormalizedReturns) -> EigenSpectrum:
    return eigendecompose(correlation_matrix(nr))


def combination_series(nr: NormalizedReturns, weights, indices) -> np.ndarray:
    """Series oracle: the weighted sum of the indexed normalized return rows."""
    return np.asarray(weights, dtype=float) @ nr.values[list(indices)]


def series_cross_correlation(a, b) -> tuple[float, float]:
    """Series oracle: raw time average <a b> and population Pearson of a and b.

    The Pearson value is NaN when either series has zero variance.
    """
    raw = float(np.mean(a * b))
    ac, bc = a - a.mean(), b - b.mean()
    denom = np.sqrt(np.mean(ac * ac) * np.mean(bc * bc))
    return raw, float(np.mean(ac * bc) / denom) if denom > 0.0 else float("nan")


def spectrum_with_mode(u, n_observations=1000):
    """Spectrum whose mode 0 is the given vector; other columns are basis fill.

    Only good for APIs that read a single column (component selection); the
    column set is not orthonormal.
    """
    u = np.asarray(u, dtype=float)
    n = u.size
    vectors = np.eye(n)
    vectors[:, 0] = u
    return EigenSpectrum(
        assets=tuple(f"A{i}" for i in range(n)),
        eigenvalues=np.linspace(2.0, 0.5, n),
        eigenvectors=vectors,
        n_observations=n_observations,
    )


# --- ingest oracle: the per-cell loader, calendar shift, forward fill and trim
# that the vectorized functions in eigensectors.timeseries replaced.


def _oracle_date(text, line_no):
    try:
        return dt.date.fromisoformat(text.strip())
    except ValueError:
        raise ParseError(f"unparsable date {text!r}", line_no) from None


def _oracle_price(text, line_no, shown):
    """A price cell: an ASCII decimal float, padding aside (no '_', no other digits)."""
    try:
        value = float(text.strip()) if text.isascii() and "_" not in text else math.nan
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ParseError(f"unparsable price {shown!r}", line_no)
    return value


def _blank(row):
    """csv skips a row whose cells are all ASCII whitespace."""
    return all(c.isascii() and not c.strip() for c in row)


def _oracle_panel(obs, asset_order=None):
    assets = tuple(asset_order) if asset_order is not None else tuple(sorted(obs))
    dates = tuple(sorted({d for per_asset in obs.values() for d in per_asset}))
    index = {d: j for j, d in enumerate(dates)}
    grid = np.full((len(assets), len(dates)), np.nan)
    for i, asset in enumerate(assets):
        for date, price in obs[asset].items():
            grid[i, index[date]] = price
    return PricePanel(assets=assets, dates=dates, prices=grid)


def load_prices_oracle(text, fmt="long"):
    """Oracle for load_prices on a whole file's text, default column names."""
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty input", 1)
    delim = "\t" if "\t" in lines[0] else ","
    rows = csv.reader(io.StringIO(text), delimiter=delim)
    header = [h.strip() for h in next(rows)]
    obs = {}

    def record(asset, date, price):
        if price <= 0.0:
            raise ValidationError(
                f"non-positive price {price!r} for asset {asset!r} on {date}"
            )
        per_asset = obs.setdefault(asset, {})
        if date in per_asset:
            raise ValidationError(f"duplicate observation for asset {asset!r} on {date}")
        per_asset[date] = price

    if fmt == "long":
        try:
            i_date = header.index("date")
            i_asset = header.index("asset")
            i_price = header.index("price")
        except ValueError as exc:
            raise ParseError(f"missing column in header: {exc}", 1) from None
        for row in rows:
            if _blank(row):
                continue
            line_no = rows.line_num  # the last physical line of a row with a quoted line break
            if len(row) <= max(i_date, i_asset, i_price):
                raise ParseError(f"expected at least {len(header)} fields, got {len(row)}", line_no)
            date = _oracle_date(row[i_date], line_no)
            asset = row[i_asset].strip()
            if not asset:
                raise ParseError("empty asset identifier", line_no)
            record(asset, date, _oracle_price(row[i_price], line_no, row[i_price]))
    else:
        if len(header) < 2:
            raise ParseError("wide header needs a date column plus asset columns", 1)
        asset_names = header[1:]
        if len(set(asset_names)) != len(asset_names):
            raise ValidationError("duplicate asset columns in wide header")
        for row in rows:
            if _blank(row):
                continue
            line_no = rows.line_num  # the last physical line of a row with a quoted line break
            if len(row) != len(header):
                raise ParseError(f"expected {len(header)} fields, got {len(row)}", line_no)
            date = _oracle_date(row[0], line_no)
            for asset, raw in zip(asset_names, row[1:]):
                cell = raw.strip()
                if raw.isascii() and cell.upper() in ("", "NA", "NAN"):
                    continue
                record(asset, date, _oracle_price(raw, line_no, cell))
    return _oracle_panel(obs)


def align_calendar_oracle(panel, rules):
    """Oracle for align_calendar with valid rules: per-asset dicts of observations."""
    obs = {}
    for i, asset in enumerate(panel.assets):
        obs[asset] = {
            date: panel.prices[i, j]
            for j, date in enumerate(panel.dates)
            if not np.isnan(panel.prices[i, j])
        }
    for rule in rules:
        back = (rule.source - rule.target) % 7
        for asset in rule.assets:
            per_asset = obs[asset]
            for date in [d for d in per_asset if d.weekday() == rule.source]:
                target = date - dt.timedelta(days=back)
                value = per_asset.pop(date)
                if target not in per_asset:
                    per_asset[target] = value
    return _oracle_panel(obs, asset_order=panel.assets)


def first_valid_oracle(panel):
    """Each asset's first observed date index, one row at a time."""
    firsts = []
    for i, asset in enumerate(panel.assets):
        valid = np.flatnonzero(~np.isnan(panel.prices[i]))
        if valid.size == 0:
            raise InsufficientDataError(f"asset {asset!r} has zero observations")
        firsts.append(int(valid[0]))
    return firsts


def forward_fill_oracle(panel):
    """Oracle for forward_fill: a per-cell carry of the last observed price."""
    firsts = first_valid_oracle(panel)
    prices = panel.prices.copy()
    for row, first in zip(prices, firsts):
        last = row[first]
        for j in range(first + 1, row.size):
            if np.isnan(row[j]):
                row[j] = last
            else:
                last = row[j]
    return PricePanel(assets=panel.assets, dates=panel.dates, prices=prices)


def trim_oracle(panel):
    """Oracle for trim_to_common_range."""
    start = max(first_valid_oracle(panel))
    if panel.n_dates - start < 3:
        raise InsufficientDataError(
            f"common range has {panel.n_dates - start} dates, need at least 3"
        )
    return PricePanel(
        assets=panel.assets, dates=panel.dates[start:], prices=panel.prices[:, start:]
    )


# --- writer oracle: the per-cell formatting that write_panel_wide and
# save_matrix replaced.

# Floats whose '%.17g' text is easy to get wrong: NaN, infinities, signed
# zero, subnormals and extreme magnitudes.
EDGE_FLOATS = (
    np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, 2.5e-310, 1e-300, -1e-300, 1e300, -1e300,
    1.7976931348623157e308,
)


def write_panel_wide_oracle(panel, path):
    """Oracle for write_panel_wide: one f-string and one NaN test per cell."""
    lines = ["date," + ",".join(panel.assets)]
    for j, date in enumerate(panel.dates):
        cells = ["" if np.isnan(p) else f"{p:.17g}" for p in panel.prices[:, j]]
        lines.append(f"{date.isoformat()}," + ",".join(cells))
    path.write_text("\n".join(lines) + "\n")


def save_matrix_oracle(c, path):
    """Oracle for the grid file of save_matrix: one f-string per entry."""
    lines = [",".join(c.assets)]
    for row in c.values:
        lines.append(",".join(f"{x:.17g}" for x in row))
    path.write_text("\n".join(lines) + "\n")
