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
import re
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, compress
from pathlib import Path
from typing import Iterable, NoReturn, Sequence

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
        dates = np.array(self.dates, dtype=object)
        for i in np.flatnonzero(dates[:-1] >= dates[1:])[:1]:  # the first unordered pair
            raise ValidationError(f"dates not strictly increasing at {dates[i]} -> {dates[i + 1]}")
        if (self.prices <= 0.0).any():  # NaN compares False
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


def _read_bytes(source) -> bytes:
    """The bytes of a path or file-like source; ParseError at the first byte that is not UTF-8."""
    if isinstance(source, (str, Path)):
        data = Path(source).read_bytes()
    else:
        data = source.read()
        data = data.encode() if isinstance(data, str) else data
    if not data.isascii():  # ASCII is UTF-8; only other text pays for a full decode
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line_no = len((data[: exc.start] + b".").splitlines())
            raise ParseError(f"not UTF-8 text (byte 0x{data[exc.start]:02x})", line_no) from None
    return data


def _rows(data: bytes, delimiter: str):
    """csv rows of UTF-8 data; LF, CRLF and CR all end a line."""
    lines = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="")
    return csv.reader(lines, delimiter=delimiter)


@contextmanager
def _csv_faults(reader):
    """A row that csv rejects (a cell over its field size limit) becomes a ParseError at its line.

    A context rather than a generator over the reader, so the row loop pays nothing per row.
    """
    try:
        yield
    except csv.Error as exc:
        raise ParseError(str(exc), reader.line_num) from None


def _delimiter(data: bytes) -> str:
    """Tab if the first line has one, else comma."""
    return "\t" if b"\t" in re.match(rb"[^\r\n]*", data)[0] else ","


def load_prices(source, fmt: str = "long") -> PricePanel:
    """Read a delimited price file into a PricePanel.

    fmt="long": one observation per row with date, asset and price columns.
    fmt="wide": first column is the date, remaining headers are asset names;
    empty cells mark missing observations. The delimiter is sniffed from the
    header (comma vs tab).

    Raises ParseError (with a 1-based line number) for malformed rows and
    ValidationError for non-positive prices or duplicate observations.
    """
    if fmt not in ("long", "wide"):
        raise ConfigurationError(f"unknown format {fmt!r}, expected 'long' or 'wide'")
    data = _read_bytes(source)
    if not data:
        raise ParseError("empty input", 1)
    delim = _delimiter(data)
    reader = _rows(data, delim)
    with _csv_faults(reader):
        header = [h.strip() for h in next(reader)]
    if fmt == "long":
        try:
            cols = [header.index(c) for c in ("date", "asset", "price")]
        except ValueError as exc:
            raise ParseError(f"missing column in header: {exc}", 1) from None
    else:
        if len(header) < 2:
            raise ParseError("wide header needs a date column plus asset columns", 1)
        if "" in header[1:]:
            raise ParseError("empty asset name in wide header", 1)
        if len(set(header[1:])) != len(header) - 1:
            raise ValidationError("duplicate asset columns in wide header")
        cols = [0]
    width = len(header)
    cells: list[str] = []  # every kept row's cells in turn, each row cut or padded to width
    # Any ValueError or csv.Error below means some row is bad; the row-by-row check finds the first.
    try:
        for row in reader:
            if len(row) != width or not row[cols[0]].strip():
                if not any(c.strip() for c in row):
                    continue
                if fmt == "wide" or len(row) <= max(cols) or not row[cols[0]].strip():
                    raise ValueError("malformed row")
                row = row[:width] + [""] * (width - len(row))
            cells += row
        dates, d = _index(cells[cols[0]::width], lambda t: dt.date.fromisoformat(t.strip()))
        if fmt == "long":
            assets, a = _index(cells[cols[1]::width], str.strip)
            if "" in assets:
                raise ValueError("empty asset identifier")
            values = np.array(cells[cols[2]::width], dtype=float)
        else:
            assets, a = _index(header[1:], str)
            by_asset = chain.from_iterable(cells[j::width] for j in range(1, width))
            texts = list(map(str.strip, by_asset))
            values = np.array(list(map(_AS_NAN.get, texts, texts)), dtype=float)
            missing = np.isnan(values)
            if any(texts[i].upper() not in _MISSING for i in np.flatnonzero(missing)):
                raise ValueError("unparsable price")
            kept = np.flatnonzero(~missing)
            a, d, values = a[kept // d.size], d[kept % d.size], values[kept]
        if not ((values > 0.0) & (values < np.inf)).all():
            raise ValueError("price not finite and positive")
        grid = np.full((len(assets), len(dates)), np.nan)
        grid[a, d] = values
        present = ~np.isnan(grid)
        if np.count_nonzero(present) != values.size:
            raise ValueError("duplicate observation")
    except (ValueError, csv.Error):
        _raise_first_fault(data, delim, fmt, header, cols)
    observed_assets, observed_dates = present.any(axis=1), present.any(axis=0)
    return PricePanel(
        assets=tuple(compress(assets, observed_assets)),
        dates=tuple(compress(dates, observed_dates)),
        prices=grid[np.ix_(observed_assets, observed_dates)],
    )


# Upper-cased wide cells that mark a missing observation, and the ones of
# them that float() rejects, rewritten so that they parse to NaN.
_MISSING = ("", "NA", "NAN")
_AS_NAN = dict.fromkeys(("", "NA", "Na", "nA", "na"), "nan")


def _index(texts: Sequence[str], key) -> tuple[list, np.ndarray]:
    """The sorted distinct key(text) over texts, and each text's position among them."""
    keyed = {t: key(t) for t in dict.fromkeys(texts)}
    where = {k: j for j, k in enumerate(sorted(set(keyed.values())))}
    position = {t: where[k] for t, k in keyed.items()}
    return list(where), np.fromiter(map(position.__getitem__, texts), np.intp, len(texts))


def _raise_first_fault(data, delim, fmt, header, cols) -> NoReturn:
    """Check the rows one at a time and raise the error of the first bad one."""
    seen: set[tuple[str, dt.date]] = set()
    rows = _rows(data, delim)
    with _csv_faults(rows):
        next(rows)  # the header
        for line_no, row in enumerate(rows, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if fmt == "long" and len(row) <= max(cols):
                raise ParseError(f"expected at least {len(header)} fields, got {len(row)}", line_no)
            if fmt == "wide" and len(row) != len(header):
                raise ParseError(f"expected {len(header)} fields, got {len(row)}", line_no)
            try:
                date = dt.date.fromisoformat(row[cols[0]].strip())
            except ValueError:
                raise ParseError(f"unparsable date {row[cols[0]]!r}", line_no) from None
            if fmt == "long":
                cells = [(row[cols[1]].strip(), row[cols[2]])]
            else:
                pairs = zip(header[1:], map(str.strip, row[1:]))
                cells = [(asset, cell) for asset, cell in pairs if cell.upper() not in _MISSING]
            for asset, cell in cells:
                if not asset:  # wide headers have no empty names
                    raise ParseError("empty asset identifier", line_no)
                try:
                    price = float(cell)
                except ValueError:
                    price = math.nan
                if not math.isfinite(price):
                    raise ParseError(f"unparsable price {cell!r}", line_no)
                if price <= 0.0:
                    raise ValidationError(f"non-positive price {price!r} for asset {asset!r} on {date}")
                if (asset, date) in seen:
                    raise ValidationError(f"duplicate observation for asset {asset!r} on {date}")
                seen.add((asset, date))
    raise AssertionError("the vectorized pass rejected rows that the row check accepts")


def load_metadata(source) -> dict[str, str]:
    """Read an asset -> category mapping from a 2+ column delimited file.

    A header row is skipped when its first cell is 'asset' (case-insensitive).
    """
    data = _read_bytes(source)
    if not data:
        return {}
    mapping: dict[str, str] = {}
    rows = _rows(data, _delimiter(data))
    with _csv_faults(rows):
        for line_no, row in enumerate(rows, start=1):
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
    row = {asset: i for i, asset in enumerate(panel.assets)}
    seen: dict[tuple[str, int], int] = {}
    for rule in rules:
        for asset in rule.assets:
            if asset not in row:
                raise ConfigurationError(f"shift rule references unknown asset {asset!r}")
            key = (asset, rule.source)
            if key in seen and seen[key] != rule.target:
                raise ConfigurationError(
                    f"conflicting shift rules for asset {asset!r}, weekday {rule.source}"
                )
            seen[key] = rule.target

    days = np.array([d.toordinal() for d in panel.dates], dtype=np.int64)
    grid = panel.prices
    for rule in rules:
        back = (rule.source - rule.target) % 7  # days back to nearest preceding target
        source = days[(days - 1) % 7 == rule.source]  # ordinal 1 is a Monday
        merged = np.union1d(days, source - back)
        wider = np.full((panel.n_assets, merged.size), np.nan)
        wider[:, np.searchsorted(merged, days)] = grid
        days, grid = merged, wider
        rows = np.array([row[a] for a in rule.assets], dtype=np.intp)[:, None]
        src, tgt = np.searchsorted(days, source), np.searchsorted(days, source - back)
        kept = grid[rows, tgt]
        grid[rows, tgt] = np.where(np.isnan(kept), grid[rows, src], kept)
        grid[rows, src] = np.nan
    observed = ~np.isnan(grid).all(axis=0)
    return PricePanel(
        assets=panel.assets,
        dates=tuple(dt.date.fromordinal(int(o)) for o in days[observed]),
        prices=grid[:, observed],
        first_valid=dict(panel.first_valid) if panel.first_valid else None,
    )


def _first_valid(panel: PricePanel) -> np.ndarray:
    """Each asset's first observed date index; InsufficientDataError for an asset with none."""
    present = ~np.isnan(panel.prices)
    empty = np.flatnonzero(~present.any(axis=1))
    if empty.size:
        raise InsufficientDataError(f"asset {panel.assets[empty[0]]!r} has zero observations")
    return present.argmax(axis=1)


def forward_fill(panel: PricePanel) -> PricePanel:
    """Fill each missing cell with the asset's most recent observed price.

    Leading gaps (before the first observation) remain missing; the returned
    panel records each asset's first valid date. Idempotent.

    Raises InsufficientDataError for an asset with no observations at all.
    """
    first = _first_valid(panel)
    last = np.where(np.isnan(panel.prices), 0, np.arange(panel.n_dates))
    np.maximum.accumulate(last, axis=1, out=last)  # index of the latest observation
    return PricePanel(
        assets=panel.assets,
        dates=panel.dates,
        prices=np.take_along_axis(panel.prices, last, axis=1),
        first_valid={a: panel.dates[j] for a, j in zip(panel.assets, first)},
    )


def trim_to_common_range(panel: PricePanel) -> PricePanel:
    """Cut leading dates so every asset has data over the whole panel range.

    Run after forward_fill: assets with shorter usable ranges force the panel
    down to the common intersection. Raises InsufficientDataError when fewer
    than 3 dates survive.
    """
    start = int(_first_valid(panel).max())
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
    return ReturnMatrix(assets=panel.assets, dates=panel.dates[delta_t:], values=values)


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
    return ReturnMatrix(assets=tuple(rm.assets[i] for i in keep), dates=rm.dates, values=rm.values[keep])


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
    return NormalizedReturns(assets=rm.assets, dates=rm.dates, values=values)
