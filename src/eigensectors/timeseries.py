"""Price panels, calendar repair, and return normalization.

The pipeline here turns raw delimited price files into a matrix of
normalized log-returns: load -> align_calendar (optional weekday shifts)
-> forward_fill -> trim_to_common_range -> log_returns -> normalize_returns.
All statistics are population statistics (1/T divisors).
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .exceptions import (
    ConfigurationError,
    InsufficientDataError,
    ParseError,
    ValidationError,
    ZeroVarianceError,
)

_WEEKDAY_NAMES = {
    "monday": 0,
    "tuesday": 1,
    "wednesday": 2,
    "thursday": 3,
    "friday": 4,
    "saturday": 5,
    "sunday": 6,
}


def weekday_number(value: int | str) -> int:
    """Normalize a weekday given as Monday=0 int or an English name."""
    if isinstance(value, str):
        try:
            return _WEEKDAY_NAMES[value.strip().lower()]
        except KeyError:
            raise ConfigurationError(f"unknown weekday name: {value!r}") from None
    iv = int(value)
    if not 0 <= iv <= 6:
        raise ConfigurationError(f"weekday out of range 0..6: {value!r}")
    return iv


@dataclass
class PricePanel:
    """N assets x D dates price grid. NaN marks a missing cell.

    Dates are strictly increasing; present prices are strictly positive.
    ``first_valid`` is filled in by forward_fill and maps each asset to the
    date of its first observation (the start of its usable range).
    """

    assets: tuple[str, ...]
    dates: tuple[dt.date, ...]
    prices: np.ndarray
    metadata: dict[str, str] | None = None
    first_valid: dict[str, dt.date] | None = None

    def __post_init__(self):
        self.assets = tuple(self.assets)
        self.dates = tuple(self.dates)
        self.prices = np.asarray(self.prices, dtype=float)
        n, d = len(self.assets), len(self.dates)
        if len(set(self.assets)) != n:
            raise ValidationError("duplicate asset identifiers in panel")
        if n < 2:
            raise ValidationError(f"panel needs at least 2 assets, got {n}")
        if d < 3:
            raise ValidationError(f"panel needs at least 3 dates, got {d}")
        if self.prices.shape != (n, d):
            raise ValidationError(
                f"price grid shape {self.prices.shape} != ({n}, {d})"
            )
        for a, b in zip(self.dates, self.dates[1:]):
            if a >= b:
                raise ValidationError(f"dates not strictly increasing at {a} -> {b}")
        present = self.prices[~np.isnan(self.prices)]
        if present.size and present.min() <= 0.0:
            raise ValidationError("panel contains non-positive prices")

    @property
    def n_assets(self) -> int:
        return len(self.assets)

    @property
    def n_dates(self) -> int:
        return len(self.dates)

    def missing_mask(self) -> np.ndarray:
        return np.isnan(self.prices)


@dataclass
class ReturnMatrix:
    """Log-returns over a fixed horizon: values[i, t] = ln P[i, t+dt] - ln P[i, t]."""

    assets: tuple[str, ...]
    dates: tuple[dt.date, ...]  # observation end dates, length T
    values: np.ndarray
    delta_t: int = 1

    def __post_init__(self):
        self.assets = tuple(self.assets)
        self.dates = tuple(self.dates)
        self.values = np.asarray(self.values, dtype=float)

    @property
    def n_assets(self) -> int:
        return len(self.assets)

    @property
    def n_observations(self) -> int:
        return self.values.shape[1]


@dataclass
class NormalizedReturns:
    """Row-wise standardized returns: each row has mean 0 and population std 1."""

    assets: tuple[str, ...]
    dates: tuple[dt.date, ...]
    values: np.ndarray
    means: np.ndarray
    stds: np.ndarray
    delta_t: int = 1

    def __post_init__(self):
        self.assets = tuple(self.assets)
        self.dates = tuple(self.dates)
        self.values = np.asarray(self.values, dtype=float)
        row_mean = self.values.mean(axis=1)
        row_std = self.values.std(axis=1)
        if np.abs(row_mean).max(initial=0.0) > 1e-12:
            raise ValidationError("normalized rows must have mean 0 within 1e-12")
        if np.abs(row_std - 1.0).max(initial=0.0) > 1e-12:
            raise ValidationError("normalized rows must have std 1 within 1e-12")

    @property
    def n_assets(self) -> int:
        return len(self.assets)

    @property
    def n_observations(self) -> int:
        return self.values.shape[1]


@dataclass
class ShiftRule:
    """Move one weekday's observations for a set of assets.

    Observations on ``source`` are reassigned to the nearest preceding
    ``target`` weekday (e.g. exchanges trading Sunday reported against the
    preceding Friday). When the target date already holds an observation the
    target's value is kept and the shifted one is discarded.
    """

    assets: tuple[str, ...]
    source: int | str
    target: int | str

    def __post_init__(self):
        self.assets = tuple(self.assets)
        self.source = weekday_number(self.source)
        self.target = weekday_number(self.target)
        if self.source == self.target:
            raise ConfigurationError("shift rule with source == target weekday")


def _open_source(source):
    if isinstance(source, (str, Path)):
        return open(source, "r", newline=""), True
    return source, False


def _detect_delimiter(sample_line: str) -> str:
    return "\t" if "\t" in sample_line else ","


def _parse_date(text: str, line_no: int) -> dt.date:
    try:
        return dt.date.fromisoformat(text.strip())
    except ValueError:
        raise ParseError(f"unparsable date {text!r}", line_no) from None


def _parse_price(text: str, line_no: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"unparsable price {text!r}", line_no) from None
    if not math.isfinite(value):
        raise ParseError(f"unparsable price {text!r}", line_no)
    return value


def load_prices(
    source,
    fmt: str = "long",
    *,
    delimiter: str | None = None,
    date_column: str = "date",
    asset_column: str = "asset",
    price_column: str = "price",
    metadata: Mapping[str, str] | None = None,
) -> PricePanel:
    """Read a delimited price file into a PricePanel.

    fmt="long": one observation per row with named date/asset/price columns.
    fmt="wide": first column is the date, remaining headers are asset names;
    empty cells mark missing observations. The delimiter is sniffed from the
    header (comma vs tab) unless given.

    Raises ParseError (with a 1-based line number) for malformed rows and
    ValidationError for non-positive prices or duplicate observations.
    """
    if fmt not in ("long", "wide"):
        raise ConfigurationError(f"unknown format {fmt!r}, expected 'long' or 'wide'")
    handle, owned = _open_source(source)
    try:
        text = handle.read()
    finally:
        if owned:
            handle.close()
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty input", 1)
    delim = delimiter or _detect_delimiter(lines[0])
    reader = csv.reader(io.StringIO(text), delimiter=delim)
    rows = list(reader)
    header = [h.strip() for h in rows[0]]

    obs: dict[str, dict[dt.date, float]] = {}

    def record(asset: str, date: dt.date, price: float, line_no: int):
        if price <= 0.0:
            raise ValidationError(
                f"non-positive price {price!r} for asset {asset!r} on {date}"
            )
        per_asset = obs.setdefault(asset, {})
        if date in per_asset:
            raise ValidationError(
                f"duplicate observation for asset {asset!r} on {date}"
            )
        per_asset[date] = price

    if fmt == "long":
        try:
            i_date = header.index(date_column)
            i_asset = header.index(asset_column)
            i_price = header.index(price_column)
        except ValueError as exc:
            raise ParseError(f"missing column in header: {exc}", 1) from None
        for line_no, row in enumerate(rows[1:], start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) <= max(i_date, i_asset, i_price):
                raise ParseError(f"expected at least {len(header)} fields, got {len(row)}", line_no)
            date = _parse_date(row[i_date], line_no)
            asset = row[i_asset].strip()
            if not asset:
                raise ParseError("empty asset identifier", line_no)
            price = _parse_price(row[i_price], line_no)
            record(asset, date, price, line_no)
    else:
        if len(header) < 2:
            raise ParseError("wide header needs a date column plus asset columns", 1)
        asset_names = header[1:]
        if len(set(asset_names)) != len(asset_names):
            raise ValidationError("duplicate asset columns in wide header")
        for line_no, row in enumerate(rows[1:], start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise ParseError(
                    f"expected {len(header)} fields, got {len(row)}", line_no
                )
            date = _parse_date(row[0], line_no)
            for asset, cell in zip(asset_names, row[1:]):
                cell = cell.strip()
                if not cell or cell.upper() in ("NA", "NAN"):
                    continue
                record(asset, date, _parse_price(cell, line_no), line_no)

    return _panel_from_observations(obs, metadata)


def _panel_from_observations(
    obs: Mapping[str, Mapping[dt.date, float]],
    metadata: Mapping[str, str] | None = None,
    first_valid: Mapping[str, dt.date] | None = None,
    asset_order: Sequence[str] | None = None,
) -> PricePanel:
    assets = tuple(asset_order) if asset_order is not None else tuple(sorted(obs))
    all_dates = sorted({d for per_asset in obs.values() for d in per_asset})
    dates = tuple(all_dates)
    index = {d: j for j, d in enumerate(dates)}
    grid = np.full((len(assets), len(dates)), np.nan)
    for i, asset in enumerate(assets):
        for date, price in obs[asset].items():
            grid[i, index[date]] = price
    return PricePanel(
        assets=assets,
        dates=dates,
        prices=grid,
        metadata=dict(metadata) if metadata else None,
        first_valid=dict(first_valid) if first_valid else None,
    )


def load_metadata(source, *, delimiter: str | None = None) -> dict[str, str]:
    """Read an asset -> category mapping from a 2+ column delimited file.

    A header row is skipped when its first cell is 'asset' (case-insensitive).
    """
    handle, owned = _open_source(source)
    try:
        text = handle.read()
    finally:
        if owned:
            handle.close()
    lines = text.splitlines()
    if not lines:
        return {}
    delim = delimiter or _detect_delimiter(lines[0])
    mapping: dict[str, str] = {}
    for line_no, row in enumerate(csv.reader(io.StringIO(text), delimiter=delim), start=1):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) < 2:
            raise ParseError("metadata rows need asset and category fields", line_no)
        asset = row[0].strip()
        if line_no == 1 and asset.lower() == "asset":
            continue
        mapping[asset] = row[1].strip()
    return mapping


def align_calendar(panel: PricePanel, rules: Sequence[ShiftRule]) -> PricePanel:
    """Apply weekday shift rules; the date axis becomes the union of results.

    A rule moves each of its assets' observations on the source weekday back
    to the nearest preceding target weekday. Collisions keep the value already
    on the target date. Dates left with no observations disappear.
    """
    known = set(panel.assets)
    seen: dict[tuple[str, int], int] = {}
    for rule in rules:
        for asset in rule.assets:
            if asset not in known:
                raise ConfigurationError(f"shift rule references unknown asset {asset!r}")
            key = (asset, rule.source)
            if key in seen and seen[key] != rule.target:
                raise ConfigurationError(
                    f"conflicting shift rules for asset {asset!r}, weekday {rule.source}"
                )
            seen[key] = rule.target

    obs: dict[str, dict[dt.date, float]] = {}
    for i, asset in enumerate(panel.assets):
        per_asset = {}
        for j, date in enumerate(panel.dates):
            p = panel.prices[i, j]
            if not np.isnan(p):
                per_asset[date] = p
        obs[asset] = per_asset

    for rule in rules:
        back = (rule.source - rule.target) % 7  # days back to nearest preceding target
        for asset in rule.assets:
            per_asset = obs[asset]
            moved = [d for d in per_asset if d.weekday() == rule.source]
            for date in moved:
                target_date = date - dt.timedelta(days=back)
                value = per_asset.pop(date)
                if target_date not in per_asset:
                    per_asset[target_date] = value

    return _panel_from_observations(
        obs, panel.metadata, panel.first_valid, asset_order=panel.assets
    )


def forward_fill(panel: PricePanel) -> PricePanel:
    """Fill each missing cell with the asset's most recent observed price.

    Leading gaps (before the first observation) remain missing; the returned
    panel records each asset's first valid date. Idempotent.

    Raises InsufficientDataError for an asset with no observations at all.
    """
    prices = panel.prices.copy()
    first_valid: dict[str, dt.date] = {}
    for i, asset in enumerate(panel.assets):
        row = prices[i]
        valid = np.flatnonzero(~np.isnan(row))
        if valid.size == 0:
            raise InsufficientDataError(f"asset {asset!r} has zero observations")
        first = valid[0]
        first_valid[asset] = panel.dates[first]
        last = row[first]
        for j in range(first + 1, row.size):
            if np.isnan(row[j]):
                row[j] = last
            else:
                last = row[j]
    return PricePanel(
        assets=panel.assets,
        dates=panel.dates,
        prices=prices,
        metadata=panel.metadata,
        first_valid=first_valid,
    )


def trim_to_common_range(panel: PricePanel) -> PricePanel:
    """Cut leading dates so every asset has data over the whole panel range.

    Run after forward_fill: assets with shorter usable ranges force the panel
    down to the common intersection. Raises InsufficientDataError when fewer
    than 3 dates survive.
    """
    firsts = []
    for i in range(panel.n_assets):
        valid = np.flatnonzero(~np.isnan(panel.prices[i]))
        if valid.size == 0:
            raise InsufficientDataError(
                f"asset {panel.assets[i]!r} has zero observations"
            )
        firsts.append(valid[0])
    start = max(firsts)
    if panel.n_dates - start < 3:
        raise InsufficientDataError(
            f"common range has {panel.n_dates - start} dates, need at least 3"
        )
    if start == 0:
        return panel
    return PricePanel(
        assets=panel.assets,
        dates=panel.dates[start:],
        prices=panel.prices[:, start:],
        metadata=panel.metadata,
        first_valid=panel.first_valid,
    )


def log_returns(panel: PricePanel, delta_t: int = 1) -> ReturnMatrix:
    """Log-returns over delta_t steps; yields exactly D - delta_t observations."""
    if int(delta_t) != delta_t or delta_t < 1:
        raise ConfigurationError(f"delta_t must be a positive integer, got {delta_t!r}")
    delta_t = int(delta_t)
    if delta_t >= panel.n_dates:
        raise InsufficientDataError(
            f"delta_t={delta_t} needs more than {panel.n_dates} dates"
        )
    missing = panel.missing_mask()
    if missing.any():
        i, j = np.argwhere(missing)[0]
        raise ValidationError(
            f"panel has missing cells (e.g. asset {panel.assets[i]!r} on "
            f"{panel.dates[j]}); run forward_fill and trim_to_common_range first"
        )
    logp = np.log(panel.prices)
    values = logp[:, delta_t:] - logp[:, :-delta_t]
    return ReturnMatrix(
        assets=panel.assets,
        dates=panel.dates[delta_t:],
        values=values,
        delta_t=delta_t,
    )


def zero_variance_assets(rm: ReturnMatrix) -> list[str]:
    """Assets whose return series is constant (population std exactly zero)."""
    stds = rm.values.std(axis=1)
    return [a for a, s in zip(rm.assets, stds) if s == 0.0]


def drop_assets(rm: ReturnMatrix, assets: Iterable[str]) -> ReturnMatrix:
    """Remove the given assets from a return matrix."""
    drop = set(assets)
    keep = [i for i, a in enumerate(rm.assets) if a not in drop]
    if len(keep) < 2:
        raise InsufficientDataError("fewer than 2 assets left after dropping")
    return ReturnMatrix(
        assets=tuple(rm.assets[i] for i in keep),
        dates=rm.dates,
        values=rm.values[keep],
        delta_t=rm.delta_t,
    )


def normalize_returns(rm: ReturnMatrix) -> NormalizedReturns:
    """Standardize each asset's returns to mean 0, population std 1.

    Raises ZeroVarianceError naming every constant-return asset; use
    zero_variance_assets/drop_assets first to discard them instead.
    """
    means = rm.values.mean(axis=1)
    stds = rm.values.std(axis=1)
    bad = [a for a, s in zip(rm.assets, stds) if s == 0.0]
    if bad:
        raise ZeroVarianceError(bad)
    values = (rm.values - means[:, None]) / stds[:, None]
    return NormalizedReturns(
        assets=rm.assets,
        dates=rm.dates,
        values=values,
        means=means,
        stds=stds,
        delta_t=rm.delta_t,
    )
