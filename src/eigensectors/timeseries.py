"""Price panels, calendar repair, and return normalization.

The pipeline here turns raw delimited price files into a matrix of
normalized log-returns: load -> align_calendar (optional weekday shifts)
-> forward_fill -> trim_to_common_range -> log_returns -> normalize_returns.
All statistics are population statistics (1/T divisors).
"""

from __future__ import annotations

import codecs
import csv
import datetime as dt
import io
import math
import re
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import compress, islice
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
    """

    assets: tuple[str, ...]
    dates: tuple[dt.date, ...]
    prices: np.ndarray

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


class NormalizedReturns(ReturnMatrix):
    """Row-wise standardized returns: each row has mean 0 and population std 1."""

    def __post_init__(self):
        super().__post_init__()
        row_mean = self.values.mean(axis=1)
        row_std = self.values.std(axis=1)
        if not np.abs(row_mean).max(initial=0.0) <= 1e-12:  # NaN fails too
            raise ValidationError("normalized rows must have mean 0 within 1e-12")
        if not np.abs(row_std - 1.0).max(initial=0.0) <= 1e-12:
            raise ValidationError("normalized rows must have std 1 within 1e-12")


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


def _integer(value) -> int:
    """``int(value)``, but ValueError for a number with a fractional part."""
    whole = int(value)
    if not isinstance(value, str) and whole != value:
        raise ValueError(f"{value!r} is not an integer")
    return whole


def _read_bytes(source) -> bytes:
    """The bytes of a path or file-like source, less a leading UTF-8 byte-order mark.

    ParseError at the first byte that is not UTF-8, or at a NUL byte, which no text holds.
    """
    if isinstance(source, (str, Path)):
        data = Path(source).read_bytes()
    else:
        data = source.read()
        data = data.encode() if isinstance(data, str) else data
    data = data.removeprefix(codecs.BOM_UTF8)  # the same object when there is no mark
    nul = data.find(b"\0")
    if nul >= 0:
        raise ParseError("NUL byte in text", len((data[:nul] + b".").splitlines()))
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


# The characters that str.strip() removes from ASCII text, line ends aside. A price
# cell, missing marker included, must be ASCII, so this is all the padding it can have.
_PAD = "\t\x0b\x0c\x1c\x1d\x1e\x1f "
_FIELD_LIMIT = csv.field_size_limit()


def _body_patterns(delim: str) -> dict[str, tuple[tuple[re.Pattern, ...], re.Pattern]]:
    """The byte patterns that turn a price file's body into what np.loadtxt reads as csv does.

    Maps each layout to (hints, cleanup). cleanup matches, after a line end or
    a delimiter (the lead): a row of blank cells, a quoted cell to step over,
    or nothing after a lone CR; the wide layout's also matches a cell, not the
    first of its row, that is empty or NA. cleanup changes nothing in a body
    where no hint is found. re scans fast only for a pattern that begins with
    one literal byte, as each hint does, so cleanup runs only where a hint
    finds work.
    """
    d = re.escape(delim).encode()
    pad_byte = b"[%s]" % re.escape(_PAD.replace(delim, "")).encode()
    pad = pad_byte + b"*"
    quoted_pad = b"[%s]*" % re.escape(_PAD + "\r\n").encode()
    # csv reads an unclosed quote to the end of the input
    blank = rb'(?:"%s(?:"|\Z)%s|%s)' % (quoted_pad, pad, pad)
    missing = rb'(?:"%s(?:[Nn][Aa])?%s(?:"|\Z)%s|%s(?:[Nn][Aa])?%s)' % (
        quoted_pad, quoted_pad, pad, pad, pad
    )
    hints = (
        re.compile(rb"\r(?!\n)"),  # a lone CR
        re.compile(rb'\n(?:%s[%s"]|%s+(?:[\r\n]|\Z))' % (pad, d, pad_byte)),  # where a blank row may start
    )
    # after a delimiter, what may start an empty, NA or quoted cell
    gap = re.compile(rb'%s(?:[%s\r\n"Nn]|%s|\Z)' % (d, d, pad_byte))

    def cleanup(cells: bytes) -> re.Pattern:
        return re.compile(
            rb"(?P<lead>\r(?!\n)|\r\n|\n|%s)(?:(?![0-9])(?:" % d  # no cell matched here starts with a digit
            + rb"(?P<blank>(?<=[\r\n])%s(?:%s%s)*(?=[\r\n]|\Z))" % (blank, d, blank)
            + cells
            + rb'|(?P<quoted>"(?:[^"]|"")*(?:"|\Z))'
            + rb")|(?<=\r))"
        )

    wide_cells = rb"|(?P<missing>(?<=%s)%s(?=[%s\r\n]|\Z))" % (d, missing, d)
    return {"long": (hints, cleanup(b"")), "wide": ((*hints, gap), cleanup(wide_cells))}


_BODY_PATTERNS = {delim: _body_patterns(delim) for delim in (",", "\t")}
_SIGNED_NAN = (re.compile(rb"\+[Nn][Aa][Nn]"), re.compile(rb"-[Nn][Aa][Nn]"))


def _cleaned(m: re.Match) -> bytes:
    lead, found = m["lead"], m.lastgroup
    if found == "quoted":  # the cell stays as it is
        return (b"\n" if lead == b"\r" else lead) + m["quoted"]
    if found == "missing":
        return lead + b"nan"
    return b"\n"  # a blank row, kept as an empty line, or a lone CR


def _body(data: bytes, header_lines: int, delim: str, fmt: str) -> bytes:
    """The rows after the header, as np.loadtxt must see them to read what csv reads.

    Starts at the line end that closes the header. Outside quoted cells, rows
    of blank cells become empty lines, a lone CR becomes LF and, in the wide
    layout, an empty or NA cell becomes nan.
    """
    line_ends = re.finditer(rb"\r\n|\r|\n", data)
    header_end = next(islice(line_ends, header_lines - 1, None), None)
    body = data[header_end.start() :] if header_end else b""
    hints, cleanup = _BODY_PATTERNS[delim][fmt]
    if any(hint.search(body) for hint in hints):
        body = cleanup.sub(_cleaned, body)
    return body


def _over_field_limit(body: bytes, delim: str) -> bool:
    """True when an unquoted cell of body has more characters than csv's field size limit.

    Such a cell covers a whole aligned block of half the limit, so only blocks
    with no delimiter or line end are looked at more closely.
    """
    stops = (delim.encode(), b"\n", b"\r")
    half = _FIELD_LIMIT // 2
    for s in range(0, len(body), half):
        if any(body.find(c, s, s + half) >= 0 for c in stops):
            continue
        start = max(body.rfind(c, 0, s) for c in stops) + 1
        ends = [e for e in (body.find(c, s) for c in stops) if e >= 0]
        cell = body[start : min(ends, default=len(body))].decode()
        if len(cell) - cell.count('"') > _FIELD_LIMIT:  # quotes aside, a lower bound on its length
            return True
    return False


def _table(body: bytes, delim: str, fields: Sequence[tuple], usecols=None) -> dict[str, np.ndarray]:
    """The columns of one np.loadtxt pass over body with csv's quoting, a row per line.

    fields are (name, dtype) pairs; a dtype of None is a text column, read as
    bytes and returned at the width of its longest cell. ValueError for any
    row that loadtxt rejects and for a cell over csv's field size limit.
    """
    if _over_field_limit(body, delim):
        raise ValueError("cell over the field size limit")
    width = {name: 16 for name, kind in fields if kind is None}
    while True:
        dtype = [(name, f"S{width[name]}" if kind is None else kind) for name, kind in fields]
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            table = np.loadtxt(
                io.BytesIO(body), dtype=dtype, delimiter=delim, comments=None,
                quotechar='"', usecols=usecols, ndmin=1, encoding="latin1",
            )
        longest = {name: int(np.char.str_len(table[name]).max(initial=1)) for name in width}
        cut = [name for name in width if longest[name] == width[name]]
        if not cut:
            break
        # a cell fills its field, so it may have been cut: read again with that field twice as wide
        if any(width[name] > 4 * _FIELD_LIMIT for name in cut):  # more bytes than csv's limit of characters
            raise ValueError("cell over the field size limit")
        del table
        for name in cut:
            width[name] = min(2 * width[name], 4 * _FIELD_LIMIT + 1)
    for name, n in longest.items():  # a quoted cell may hold delimiters: count its characters
        cells = table[name][np.char.str_len(table[name]) > _FIELD_LIMIT] if n > _FIELD_LIMIT else []
        if any(len(cell.decode()) > _FIELD_LIMIT for cell in cells):
            raise ValueError("cell over the field size limit")
    # the narrowest text columns sort fastest in _index
    return {
        name: table[name].astype(f"S{longest[name]}") if name in longest else table[name]
        for name, _ in fields
    }


def load_prices(source, fmt: str = "long") -> PricePanel:
    """Read a delimited price file into a PricePanel.

    fmt="long": one observation per row with date, asset and price columns.
    fmt="wide": first column is the date, remaining headers are asset names;
    empty or NA cells mark missing observations. The delimiter is sniffed from
    the header (comma vs tab). Price cells are ASCII decimal floats.

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
    # Any ValueError below means some row is bad; the row-by-row check finds the first.
    try:
        body = _body(data, reader.line_num, delim, fmt)
        if fmt == "long":
            table = _table(body, delim, [("date", None), ("asset", None), ("price", float)], cols)
            assets, a = _index(table["asset"], _text)
            if "" in assets:
                raise ValueError("empty asset identifier")
            dates, d = _index(table["date"], _date)
            values = table["price"]
        else:
            if any(p.search(body) for p in _SIGNED_NAN):  # loadtxt reads it as NaN; csv's reading rejects it
                raise ValueError("signed NaN")
            table = _table(body, delim, [("date", None), ("price", (float, (len(header) - 1,)))])
            assets, a = _index(np.array(header[1:]), str)
            dates, d = _index(table["date"], _date)
            row, col = np.nonzero(~np.isnan(table["price"]))
            a, d, values = a[col], d[row], table["price"][row, col]
        if not ((values > 0.0) & (values < np.inf)).all():
            raise ValueError("price not finite and positive")
        grid = np.full((len(assets), len(dates)), np.nan)
        grid[a, d] = values
        present = ~np.isnan(grid)
        if np.count_nonzero(present) != values.size:
            raise ValueError("duplicate observation")
    except ValueError:
        _raise_first_fault(data, delim, fmt, header, cols)
    observed_assets, observed_dates = present.any(axis=1), present.any(axis=0)
    return PricePanel(
        assets=tuple(compress(assets, observed_assets)),
        dates=tuple(compress(dates, observed_dates)),
        prices=grid[np.ix_(observed_assets, observed_dates)],
    )


# Upper-cased wide cells that mark a missing observation.
_MISSING = ("", "NA", "NAN")


def _text(cell: bytes) -> str:
    return cell.decode().strip()


def _date(cell: bytes) -> dt.date:
    return dt.date.fromisoformat(_text(cell))


def _index(texts: np.ndarray, key) -> tuple[list, np.ndarray]:
    """The sorted distinct key(text) over a text column, and each text's position among them.

    Runs of one text are sorted once: a long file lists each date, or each asset, in a run.
    """
    starts = np.flatnonzero(np.concatenate(([texts.size > 0], texts[1:] != texts[:-1])))
    distinct, inverse = np.unique(texts[starts], return_inverse=True)
    keys = list(map(key, distinct.tolist()))
    where = {k: j for j, k in enumerate(sorted(set(keys)))}
    runs = np.diff(np.append(starts, texts.size))
    return list(where), np.repeat(np.array([where[k] for k in keys], np.intp)[inverse], runs)


def _price(cell: str) -> float:
    """A price cell as np.loadtxt reads it: NaN unless an ASCII decimal float, padding aside."""
    try:
        return float(cell.strip()) if cell.isascii() and "_" not in cell else math.nan
    except ValueError:
        return math.nan


def _raise_first_fault(data, delim, fmt, header, cols) -> NoReturn:
    """Check the rows one at a time and raise the error of the first bad one."""
    seen: set[tuple[str, dt.date]] = set()
    rows = _rows(data, delim)
    with _csv_faults(rows):
        next(rows)  # the header
        for row in rows:
            if all(c.isascii() and not c.strip() for c in row):
                continue
            line_no = rows.line_num  # the row's last physical line; a quoted cell may span several
            if fmt == "long" and len(row) <= max(cols):
                raise ParseError(f"expected at least {len(header)} fields, got {len(row)}", line_no)
            if fmt == "wide" and len(row) != len(header):
                raise ParseError(f"expected {len(header)} fields, got {len(row)}", line_no)
            try:
                date = dt.date.fromisoformat(row[cols[0]].strip())
            except ValueError:
                raise ParseError(f"unparsable date {row[cols[0]]!r}", line_no) from None
            if fmt == "long":
                cells = [(row[cols[1]].strip(), row[cols[2]], row[cols[2]])]
            else:  # (asset, cell, the cell as a message shows it)
                pairs = zip(header[1:], row[1:])
                cells = [
                    (asset, cell, cell.strip()) for asset, cell in pairs
                    if not (cell.isascii() and cell.strip().upper() in _MISSING)
                ]
            for asset, cell, shown in cells:
                if not asset:  # wide headers have no empty names
                    raise ParseError("empty asset identifier", line_no)
                price = _price(cell)
                if not math.isfinite(price):
                    raise ParseError(f"unparsable price {shown!r}", line_no)
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
        for row in rows:
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) < 2:
                raise ParseError("metadata rows need asset and category fields", rows.line_num)
            asset = row[0].strip()
            if rows.line_num == 1 and asset.lower() == "asset":
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

    Leading gaps (before the first observation) remain missing; trim_to_common_range
    cuts them. Idempotent.

    Raises InsufficientDataError for an asset with no observations at all.
    """
    _first_valid(panel)
    last = np.where(np.isnan(panel.prices), 0, np.arange(panel.n_dates))
    np.maximum.accumulate(last, axis=1, out=last)  # index of the latest observation
    return PricePanel(
        assets=panel.assets,
        dates=panel.dates,
        prices=np.take_along_axis(panel.prices, last, axis=1),
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
    missing = np.isnan(panel.prices)
    if missing.any():
        i, j = np.argwhere(missing)[0]
        raise ValidationError(
            f"panel has missing cells (e.g. asset {panel.assets[i]!r} on "
            f"{panel.dates[j]}); run forward_fill and trim_to_common_range first"
        )
    logp = np.log(panel.prices)
    values = logp[:, delta_t:] - logp[:, :-delta_t]
    return ReturnMatrix(assets=panel.assets, dates=panel.dates[delta_t:], values=values)


def drop_assets(rm: ReturnMatrix, assets: Iterable[str]) -> ReturnMatrix:
    """Remove the given assets from a return matrix."""
    drop = set(assets)
    keep = [i for i, a in enumerate(rm.assets) if a not in drop]
    if len(keep) < 2:
        raise InsufficientDataError("fewer than 2 assets left after dropping")
    return ReturnMatrix(assets=tuple(rm.assets[i] for i in keep), dates=rm.dates, values=rm.values[keep])


def normalize_returns(rm: ReturnMatrix) -> NormalizedReturns:
    """Standardize each asset's returns to mean 0, population std 1.

    Raises ZeroVarianceError naming every constant-return asset; pass its
    ``assets`` to drop_assets to discard them instead.
    """
    means = rm.values.mean(axis=1)
    stds = rm.values.std(axis=1)
    bad = [a for a, s in zip(rm.assets, stds) if s == 0.0]
    if bad:
        raise ZeroVarianceError(bad)
    values = (rm.values - means[:, None]) / stds[:, None]
    # a steady drift far above the noise leaves the scaled mean off 0 by ~1e-9;
    # only rows that miss the 1e-12 check are centred again, so others keep their bits
    drift = values.mean(axis=1)
    values -= np.where(np.abs(drift) > 1e-12, drift, 0.0)[:, None]
    return NormalizedReturns(assets=rm.assets, dates=rm.dates, values=values)
