"""Price panels, calendar repair, and return normalization.

The pipeline here turns raw delimited price files into a matrix of
normalized log-returns: load -> align_calendar (optional weekday shifts)
-> forward_fill -> trim_to_common_range -> log_returns -> normalize_returns.
All statistics are population statistics (1/T divisors).
"""

__all__ = [
    "NormalizedReturns",
    "PricePanel",
    "ReturnMatrix",
    "ShiftRule",
    "align_calendar",
    "drop_assets",
    "forward_fill",
    "load_metadata",
    "load_prices",
    "log_returns",
    "normalize_returns",
    "trim_to_common_range",
]

import codecs
import csv
import datetime as dt
import io
import json
import math
import numbers
import os
import re
import stat
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import compress, islice
from pathlib import Path
from typing import Iterable, Sequence

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
    if not 0 <= (day := _whole(value, "weekday", None)) <= 6:
        raise ConfigurationError(f"weekday out of range 0..6: {value!r}")
    return day


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


def _whole(value, name: str, least: int | None) -> int:
    """value as an int; ConfigurationError unless it is an integer (not a bool, NaN, inf, None or text) >= least
    (0, 1 or None). The one integer rule of every count, index, seed and sign, from a config, a sidecar or a call."""
    try:
        if not isinstance(value, (bool, np.bool_)) and int(value) == value and (least is None or value >= least):
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    kind = {None: "an", 0: "a non-negative", 1: "a positive"}[least]
    raise ConfigurationError(f"{name} must be {kind} integer, got {value!r}")


def _real(value, name: str) -> float:
    """value as a float; ConfigurationError unless it is a real number (not a bool, None or text).
    The one number rule of every scale, loading, threshold, margin and aspect ratio."""
    try:
        if isinstance(value, numbers.Real) and not isinstance(value, bool):
            return float(value)
    except OverflowError:  # an int beyond every double
        pass
    raise ConfigurationError(f"{name} must be a number, got {value!r}")


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


def _file_state(source) -> tuple | None:
    """The device, inode, size and modification time of a path to a regular file; None for any other source."""
    try:
        st = os.stat(source) if isinstance(source, (str, Path)) else None
    except OSError:
        return None
    return (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns) if st and stat.S_ISREG(st.st_mode) else None


@contextmanager
def _rows(data: bytes, delimiter: str):
    """A csv reader of UTF-8 data; LF, CRLF and CR all end a line.

    Inside the context a row that csv rejects (a cell over its field size limit)
    is a ParseError at its line. A context rather than a generator over the
    reader, so the row loop pays nothing per row.
    """
    reader = csv.reader(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=""), delimiter=delimiter)
    try:
        yield reader
    except csv.Error as exc:
        raise ParseError(str(exc), reader.line_num) from None


def _csv_line(cells: Iterable[str], delimiter: str = ",") -> str:
    """cells joined by delimiter so that csv reads them back: a cell holding the delimiter,
    a quote, CR or LF is quoted, with its quotes doubled; any other keeps its text."""
    quoted = delimiter + '"\r\n'
    return delimiter.join('"%s"' % c.replace('"', '""') if any(s in c for s in quoted) else c for c in cells)


def _write_table(path, rows: Iterable[Iterable]) -> None:
    """Write each row as one _csv_line, ended by LF: a float cell as %.17g, None as empty, any other as str."""

    def cell(x) -> str:
        return "" if x is None else f"{x:.17g}" if isinstance(x, float) else str(x)

    Path(path).write_text("".join(_csv_line(map(cell, row)) + "\n" for row in rows), encoding="utf-8")


def _split(v):
    """Dekker's split of v into hi + lo, each of at most 26 significant bits."""
    c = 134217729.0 * v  # 2**27 + 1
    hi = c - (c - v)
    return hi, v - hi


_POW10 = np.array([float(10**k) for k in range(23)])  # each an exact double: 5**22 < 2**53
_POW5 = np.array([5**k for k in range(23)], np.uint64)
_HALVES = np.ldexp(1.0, -np.arange(23))  # 2**-k
_POW10_HI, _POW10_LO = _split(_POW10)
_CELL = 25  # the longest '%.17g' text, '-2.2250738585072014e-308', and its separator
_GRID_CHUNK = 1 << 14  # cells per chunk; larger chunks spend their time in fresh pages


def _grid_lines(values: np.ndarray, labels: Sequence[str]) -> bytes:
    """The text of _write_grid for a block of whole rows, each led by its label (of at most
    24 bytes) if labels are given and ended by LF.

    A cell with 1e-4 <= |x| < 1e17 is fixed notation. With E its decimal exponent and
    k = 16 - E in [0, 20], 10**k is an exact double, so Dekker's TwoProduct gives
    |x| * 10**k == p + err exactly. p >= 1e16 > 2**53 is an even integer, so
    D = p + rint(err) is that product rounded half to even: the 17 digits of '%.17g'.
    The cells of one (k, sign) group share a layout, laid out by slicing after a stable
    sort. Every other cell, and one whose E log10 misjudged, takes Python's '%.17g'; NaN is empty.
    """
    n_rows, n_cols = values.shape
    x = values.ravel()
    with np.errstate(all="ignore"):  # zeros, NaN, inf and huge cells warn here; they take Python's route
        a = np.abs(x)
        k = np.fmax(np.fmin(16 - np.floor(np.log10(a)), 20), 0).astype(np.intp)  # 16 - E, held to [0, 20]
        p = a * _POW10[k]
        (ah, al), bh, bl = _split(a), _POW10_HI[k], _POW10_LO[k]
        err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
        d = p.astype(np.int64) + np.rint(err).astype(np.int64)
    # 1e16 <= p + err < 1e17: x is in the fixed range and E is right (a double p < 1e17
    # is at most 1e17 - 16 and |err| <= 8, so D has 17 digits); NaN and inf fail too
    fixed = ((p > 1e16) | (p == 1e16) & (err >= 0)) & (p < 1e17)
    group = np.where(fixed, 2 * k + (x < 0), 42).astype(np.int8)  # 42: Python's route
    order = np.argsort(group, kind="stable")
    starts = np.searchsorted(group[order], np.arange(43)).tolist() + [x.size]
    n_fixed = starts[42]
    d = d[order[:n_fixed]]
    v = np.stack([d // 10**8, d % 10**8]).astype(np.uint32)  # the first 9 digits and the last 8
    digits = np.full((21, n_fixed), 48, np.uint8)  # ASCII ('0' is 48), one row per digit, 4 zeros first
    for j in range(8, 0, -1):
        q = v // 10
        digits[4 + j :: 8] = v - q * 10 + 48
        v = q
    digits[4] = v[0] + 48
    nonzero = (digits[4:] != 48) * np.arange(17, dtype=np.uint8)[:, None]
    last = nonzero.max(axis=0, initial=0).astype(np.intp)  # the last nonzero digit
    text = np.zeros((_CELL, x.size), np.uint8)  # one column per cell, in sorted order
    length = np.empty(x.size, np.intp)
    for g in np.flatnonzero(np.diff(starts[:43])).tolist():  # each (k, sign) group that has cells
        lo, hi, e, s = starts[g], starts[g + 1], 16 - g // 2, g % 2
        # the integer part is the digits up to the unit's, or one zero; the fraction follows the '.'
        i, j = 4 + min(e, 0), 5 + e
        text[0, lo:hi] = ord("-")  # the sign, which the digits overwrite when x > 0
        t = text[s:, lo:hi]
        t[: j - i] = digits[i:j, lo:hi]
        t[j - i] = ord(".")
        t[j - i + 1 : 22 - i] = digits[j:, lo:hi]
        z = last[lo:hi]  # the fraction keeps its digits up to the last nonzero one
        length[lo:hi] = s + j - i + np.where(z > e, z - e + 1, 0)
    rest = ["" if y != y else "%.17g" % y for y in x[order[n_fixed:]].tolist()]
    if rest:
        text[:-1, n_fixed:] = np.array(rest, f"S{_CELL - 1}").view(np.uint8).reshape(-1, _CELL - 1).T
        length[n_fixed:] = [len(r) for r in rest]
    inv = np.empty_like(order)
    inv[order] = np.arange(x.size)
    names = np.array([name.encode() for name in labels], "S")
    lead = int(names.size > 0)
    slots = np.zeros((n_rows, lead + n_cols, _CELL), np.uint8)  # each cell's text and separator
    lengths = np.empty(slots.shape[:2], np.intp)
    if lead:
        slots[:, 0, : names.itemsize] = names.view(np.uint8).reshape(n_rows, -1)
        lengths[:, 0] = [len(name) for name in names.tolist()]
    # every index is in range; mode="clip" lets take write into the slots unbuffered
    np.take(text.T, inv.reshape(n_rows, n_cols), axis=0, out=slots[:, lead:], mode="clip")
    lengths[:, lead:] = length[inv].reshape(n_rows, n_cols)
    slots.reshape(-1, _CELL)[np.arange(lengths.size), lengths.ravel()] = ord(",")
    slots[np.arange(n_rows), -1, lengths[:, -1]] = ord("\n")
    return slots[(np.arange(_CELL) <= np.arange(_CELL)[:, None]).take(lengths, axis=0)].tobytes()


def _write_grid(path, names: Iterable[str], values: np.ndarray, labels: Sequence[str] = ()) -> None:
    """Write names as one _csv_line, then one line per row of values: its label, if labels
    are given, and its cells, comma-separated, each as Python's '%.17g' writes it and NaN empty.

    UTF-8, each line ended by LF. The cells go in blocks of whole rows, of at most
    _GRID_CHUNK cells or of one row that is longer, so the memory used grows with a row,
    not with the grid.
    """
    rows = max(1, _GRID_CHUNK // max(values.shape[1], 1))
    with Path(path).open("wb") as out:
        out.write(f"{_csv_line(names)}\n".encode())
        for r in range(0, values.shape[0], rows):
            out.write(_grid_lines(values[r : r + rows], labels[r : r + rows]))


def _write_json(path, obj) -> None:
    """Write obj as JSON, keys sorted, indented by 2, ended by LF."""
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _delimiter(data: bytes) -> str:
    """Tab if the first line has one, else comma."""
    return "\t" if b"\t" in re.match(rb"[^\r\n]*", data)[0] else ","


_FIELD_LIMIT = csv.field_size_limit()
# the suffixes that numpy's datasource decompresses when np.loadtxt opens a path
_DECOMPRESSED = (".gz", ".bz2", ".xz", ".lzma")


def _over_field_limit(body: bytes, start: int, delim: str) -> bool:
    """True when a cell of body[start:] may have more characters than csv's field size limit.

    loadtxt fails such a cell only at times in a column it reads, and never in one it
    does not, so csv judges it. An unquoted cell holds no delimiter, and one over the
    limit covers a whole aligned block of half the limit with none; a short last block
    never counts. A quoted cell runs from a quote that opens a cell to a quote that ends
    one, doubled quotes within; one longer than the limit in bytes is suspect. Line ends
    stop neither test, as a quoted cell can span them. A quote anywhere else, which csv
    keeps as text, leaves the quoting unknown, and then every cell is suspect.
    """
    d = delim.encode()
    half = _FIELD_LIMIT // 2
    if any(body.find(d, s, s + half) < 0 for s in range(start, len(body) - half + 1, half)):
        return True
    if body.find(b'"', start) < 0:
        return False
    text = np.frombuffer(body, np.uint8)
    quotes = np.flatnonzero(text[start:] == ord('"')) + start
    opening = quotes[0::2]
    closing = np.append(quotes[1::2], len(body))[: opening.size]  # an unclosed quote runs to the end
    bounds = np.zeros(256, bool)
    bounds[[ord(d), ord("\n"), ord("\r"), ord('"')]] = True  # a doubled quote both ends and opens
    # the byte before each opening quote and after each closing one; the body starts and ends a line
    before = np.where(opening > 0, text[opening - 1], ord("\n"))
    after = np.where(closing + 1 < len(body), text[np.minimum(closing + 1, len(body) - 1)], ord("\n"))
    if not (bounds[before].all() and bounds[after].all()):
        return True
    joined = closing[:-1] + 1 == opening[1:]  # a doubled quote: the cell goes on
    first, last = opening[np.append(True, ~joined)], closing[np.append(~joined, True)]
    return bool((last - first - 1 > _FIELD_LIMIT).any())


def _table(body: bytes, start: int, delim: str, fields: Sequence[tuple], usecols=None, file=None) -> np.ndarray:
    """np.loadtxt's reading of body[start:] with csv's quoting, a row per line, as a
    structured array of fields, which are (name, dtype) pairs. ValueError for any row
    that loadtxt rejects, and for an integer cell that some numpy releases read as a float
    under a DeprecationWarning: they would cast '-15' to the uint64 2**64 - 15.

    file, when given, is (path, lines, state): the regular file of the long layout
    whose text past its first lines physical lines is body[start:], and its _file_state
    when body was read. loadtxt then reads the file itself, in large chunks, where from
    memory it takes a line object per row. A pass after which the file's state is not
    that one ends in a ParseError, whatever loadtxt made of it, so no table mixes two versions.
    """
    if file:
        rows, skip = file[:2]
    else:
        rows, skip = io.BytesIO(body), 0  # shares body's bytes; no copy
        rows.seek(start)
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            warnings.filterwarnings("error", r"loadtxt\(\): Parsing an integer via a float", DeprecationWarning)
            return np.loadtxt(
                rows, dtype=fields, delimiter=delim, comments=None, skiprows=skip,
                quotechar='"', usecols=usecols, ndmin=1, encoding="latin1",
            )
    finally:
        if file and _file_state(file[0]) != file[2]:
            raise ParseError(f"{file[0]} changed while it was read")


_BLOCK = 1 << 18  # bytes of whole lines per block of the decimal route
# the missing cells that R and numpy write, each as an integer
_MARKS = [int.from_bytes(m, "big") for m in (b"NA", b"NaN", b"nan", b"NAN")]
_EXPONENT = 0x7FF << 52  # the exponent field of a double's bits
_TWO52 = (1023 + 52) << 52  # the exponent field of 2**52


def _scaled(digits: np.ndarray, k: np.ndarray) -> np.ndarray:
    """The double nearest each uint64 digits * 10**-k, bit for bit what float() reads in the decimal.

    Where digits < 2**53 and 0 <= k <= 22, digits and 10**k are exact doubles, and one
    division rounds their quotient once. Otherwise, with digits = q 5**k + r (0 <= r < 5**k),
    the value is (q + r/5**k) 2**-k, and the scaling by 2**-k is exact. f = RN(r/5**k) is
    within 2**-54 of r/5**k, as f < 1, and with q exact, Fast2Sum gives q + f = t + e exactly
    for t = RN(q + f). So t is the double nearest q + r/5**k unless e lies within 2**-54 of
    half of t's gap on its side. A cell where that is not ruled out with half of the lower
    gap, the gap below the double before t (at a power of two it is half the gap above),
    where |t| > 2**52 (q may not be exact), or where k is outside 0..22, takes float() of
    its own digits.
    """
    j = np.clip(k, 0, 22)
    unsure = j != k
    scaled = digits / _POW10[j]
    big = digits >= 2**53
    if big.any():
        five = _POW5[j]
        q, r = np.divmod(digits, five)
        q, f = q.astype(float), r / five
        t = q + f
        e = f - (t - q)
        lower = (t.view(np.int64) - 1) & _EXPONENT  # the power of two at or below the double before t
        unsure |= big & ((np.abs(e) >= lower.view(float) * 2.0**-53 - 2.0**-54) | (lower >= _TWO52))
        scaled = np.where(big, t * _HALVES[j], scaled)  # exact, and faster than np.ldexp
    if unsure.any():
        scaled[unsure] = [float(f"{d}e{-i}") for d, i in zip(digits[unsure].tolist(), k[unsure].tolist())]
    return scaled


def _decimal_table(data: bytes, start: int, delim: str, n: int) -> np.ndarray:
    """The wide table, of a date and n prices a row, of the body data[start:], read as
    decimal digits and scaled exactly (empty if it has no lines). ValueError if a block
    of it is not of the grammar below.

    Each block of whole lines, of about _BLOCK bytes, is judged and read in turn, its
    CRLF line ends read as LF. It may hold only digits, '.', '+', '-', 'e', 'E', the
    letters of _MARKS, the delimiter and LF, in lines of n + 1 cells. A price cell is
    empty, or one of _MARKS (both missing), or a mantissa of digits with at most one dot,
    after its last sign, then at most one exponent: 'e' or 'E', an optional sign and 1
    to 3 digits. A date has no dot and no exponent (2015.01.05 would read as the date
    20150105). With its dots and its marks' letters taken out, its exponents written as
    spaces, which loadtxt reads after digits, and a 0 put before each price cell if one is
    missing, the block is one np.loadtxt pass of S16 dates and uint64 digits. A cell with
    d digits after its dot and exponent x is then _scaled(digits, d - x): what float()
    reads in it. ValueError too for a row that loadtxt rejects (a sign that uint64 does
    not take, which is any sign of a block with a missing cell, or a mantissa of 2**64 or more).
    """
    d = delim.encode()
    codes = np.full(256, 6, np.uint8)  # of each byte that is not a digit: 0 delimiter, 1 LF, 2 dot,
    codes[list(d + b"\n.+-eENAan")] = [0, 1, 2, 3, 3, 4, 4, 5, 5, 5, 5]  # 3 sign, 4 exponent, 5 mark, 6 other
    whole = np.frombuffer(data, np.uint8)  # its lines are counted a block at a time, as bytes.count is slower
    lines = sum(np.count_nonzero(whole[i : i + _BLOCK] == 10) for i in range(start, len(data), _BLOCK))
    table = np.empty(lines + 1, [("date", "S16"), ("price", (float, (n,)))])  # the last line may have no end
    fields = [("date", "S16"), ("price", (np.uint64, (n,)))]
    row = 0
    while start < len(data):
        stop = data.find(b"\n", start + _BLOCK) + 1 or len(data)
        block = data[start:stop]
        block += b"" if block.endswith(b"\n") else b"\n"
        block = block.replace(b"\r\n", b"\n") if b"\r" in block else block
        text = np.frombuffer(block, np.uint8)
        special = np.flatnonzero(text - np.uint8(48) > 9)  # each byte that is not a digit ('0' is 48)
        code = codes.take(text.take(special))
        sep = np.flatnonzero(code <= 1)  # each cell's end
        rows = np.count_nonzero(code == 1)
        if (
            code.max(initial=0) > 5
            or sep.size != rows * (n + 1)
            or not (code[sep[n :: n + 1]] == 1).all()
        ):
            raise ValueError("not of the decimal grammar")
        before = special - np.arange(special.size)  # the digits before each byte that is not one
        digits = np.diff(before[sep], prepend=0)  # each cell's digits
        ends = special[sep]
        mantissa = sep  # where each cell's mantissa ends: at its exponent's mark, if it has one
        if marks := np.count_nonzero(code == 4):
            signed = (code[sep - 1] == 3) & (code[sep - 2] == 4)
            signed &= special[sep - 1] == special[sep - 2] + 1  # the sign is just after the mark
            marked = (code[sep - 1] == 4) | signed
            mantissa = sep - marked - signed
            places = before[sep] - before[mantissa]  # the exponent's digits
            digits -= places
            exponents = (places > 0) & (places <= 3)  # of 1 to 3 digits; one per mark, all in prices
            if np.count_nonzero(exponents.reshape(rows, n + 1)[:, 1:]) != marks:
                raise ValueError("not of the decimal grammar")
        dot = code[mantissa - 1] == 2  # the mantissa's last byte that is not a digit is a dot
        missing = digits == 0
        if gaps := missing.any():  # the bytes of each cell of no digit, and its last four as an integer
            size = np.diff(ends, prepend=-1)[missing] - 1
            tail = [text[ends[missing] - i].astype(np.int64) * (size >= i) for i in range(1, 5)]
            key = sum(byte << 8 * i for i, byte in enumerate(tail))
            if not np.isin(key[size > 0], _MARKS).all():
                raise ValueError("not of the decimal grammar")
        letters = np.count_nonzero(code == 5)
        if (
            np.count_nonzero(dot.reshape(rows, n + 1)[:, 1:]) != np.count_nonzero(code == 2)
            or letters != (size.sum() if gaps else 0)  # each in a mark
        ):
            raise ValueError("not of the decimal grammar")
        k = (before[mantissa] - before[mantissa - 1]) * dot
        if marks:
            text = text.copy()
            x = sum((text[ends - i].astype(np.intp) - 48) * 10 ** (i - 1) * (places >= i) for i in (1, 2, 3))
            k += np.where(signed & (text[special[sep - 1]] == ord("-")), x, -x)
            first, last = special[mantissa[marked]], ends[marked] - 1
            for i in range(5):  # the mark, its sign and its digits
                text[np.minimum(first + i, last)] = ord(" ")
            block = text.tobytes()
        block = block.translate(None, b".NAan") if letters else block.replace(b".", b"")
        # a leading 0 keeps a price and fills an empty cell
        block = block.replace(d, d + b"0") if gaps else block
        read = _table(block, 0, delim, fields)
        table["date"][row : row + rows] = read["date"]
        prices = table["price"][row : row + rows]
        prices[:] = _scaled(read["price"], k.reshape(rows, n + 1)[:, 1:])
        if gaps:
            prices[missing.reshape(rows, n + 1)[:, 1:]] = np.nan
        row += rows
        start = stop
    return table[:row]


def load_prices(source, fmt: str = "long") -> PricePanel:
    """Read a delimited price file into a PricePanel.

    fmt="long": one observation per row with date, asset and price columns.
    fmt="wide": first column is the date, remaining headers are asset names;
    empty, NA or NaN cells (any case) mark missing observations, and a column with no
    price is left out with a warning that names it. The decimal route's table,
    transposed, is the grid; a file that prices one date on two rows is read by the csv
    reference reader, which accepts rows whose cells complement each other. The delimiter
    is sniffed from the header (comma vs tab). Price cells are ASCII decimal floats.

    A wide file is read once, from memory, by _decimal_table, or by the csv reference
    reader if that declines it. Only the path of a regular long-layout file is read
    twice: whole, for the header, the checks and the csv reference reader, then by
    np.loadtxt from disk in large chunks. Any other long source (a file object or a pipe,
    a file holding a CR, or one whose suffix numpy decompresses: .gz, .bz2, .xz, .lzma)
    is read by np.loadtxt from memory, a line at a time.

    Raises ParseError (with a 1-based line number) for malformed rows, and without
    one for a long file that changed between its two reads; ValidationError for
    non-positive prices or duplicate observations.
    """
    if fmt not in ("long", "wide"):
        raise ConfigurationError(f"unknown format {fmt!r}, expected 'long' or 'wide'")
    state = _file_state(source) if fmt == "long" else None  # before the read, so that a change made during it shows
    data = _read_bytes(source)
    if not data:
        raise ParseError("empty input", 1)
    delim = _delimiter(data)
    with _rows(data, delim) as reader:
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
    # Any ValueError below means some row is bad, or np.loadtxt does not read it as csv
    # does; the reference reader then reads the file one row at a time.
    try:
        line_ends = re.finditer(rb"\r\n|\r|\n", data)
        header_end = next(islice(line_ends, reader.line_num - 1, None), None)
        start = header_end.end() if header_end else len(data)
        if _over_field_limit(data, start, delim):
            raise ValueError("cell over the field size limit")
        if fmt == "long":
            # loadtxt is handed a regular file's path where numpy reads the file as _read_bytes did:
            # numpy opens a path in text mode, which reads a CR as LF, and by its suffix, which may
            # decompress it. Path's form of the name has no "//", which numpy would take for a URL.
            file = None
            if state and not (path := os.fspath(Path(source))).endswith(_DECOMPRESSED) and b"\r" not in data:
                file = (path, reader.line_num, state)  # the header's physical lines, which numpy skips
            table = _table(data, start, delim, [("date", "S16"), ("asset", "S16"), ("price", float)], cols, file)
            assets, a = _index(table["asset"], _text)
            if "" in assets:
                raise ValueError("empty asset identifier")
            values = table["price"]
        else:
            table = _decimal_table(data, start, delim, len(header) - 1)
            assets, a = _number(header[1:])
            a, values = a[:, None], table["price"].T  # the table is the grid, transposed
        dates, d = _index(table["date"], _date)
        # a NaN compares False: in the wide layout a missing cell, in the long one a price csv rejects
        if ((values <= 0.0) | (values == np.inf)).any() or fmt == "long" and np.isnan(values).any():
            raise ValueError("price not finite and positive")
        return _panel(assets, a, dates, d, values)
    except ValueError:  # the error, and the table its traceback holds, are freed before csv reads
        pass
    return _panel(*_read_rows(data, delim, fmt, header, cols))


def _panel(assets: list, a: np.ndarray, dates: list, d: np.ndarray, values: np.ndarray) -> PricePanel:
    """The panel where assets[a] are priced values on dates[d], the three broadcast together.

    A NaN value is no observation. ValueError for an (asset, date) pair given two prices,
    and at times for one given a price and a NaN, which may be written last. Assets and
    dates with no price are left out, and one warning names the assets.
    """
    grid = np.full((len(assets), len(dates)), np.nan)
    grid[a, d] = values
    present = ~np.isnan(grid)
    if np.count_nonzero(present) != np.count_nonzero(~np.isnan(values)):
        raise ValueError("duplicate observation")
    observed_assets, observed_dates = present.any(axis=1), present.any(axis=0)
    if not observed_assets.all():
        unpriced = ", ".join(compress(assets, ~observed_assets))
        warnings.warn(f"assets with no price left out: {unpriced}", stacklevel=3)
    everything = observed_assets.all() and observed_dates.all()
    return PricePanel(
        assets=tuple(compress(assets, observed_assets)),
        dates=tuple(compress(dates, observed_dates)),
        prices=grid if everything else grid[np.ix_(observed_assets, observed_dates)],
    )


# Upper-cased wide cells that mark a missing observation.
_MISSING = ("", "NA", "NAN")


def _text(cell: bytes) -> str:
    return cell.decode().strip()


def _date(cell: bytes) -> dt.date:
    return dt.date.fromisoformat(_text(cell))


def _index(texts: np.ndarray, key) -> tuple[list, np.ndarray]:
    """The sorted distinct key(cell) over a column of loadtxt's bytes cells, and each cell's position among them.

    ValueError for a cell that fills its field, which loadtxt may have cut. Only the first
    cell of each run is looked up: a long file lists each date, or each asset, in a run.
    The column is narrowed to its longest cell, and one of 1, 2, 4 or 8 bytes is compared
    as one unsigned integer. Heads are deduplicated by a sort, not np.unique (it loads numpy.ma
    under numpy 2). A NUL only pads a cell, so the OR of its little-endian 8-byte words spans the longest.
    """
    words = texts.view(np.dtype(("<u8", (texts.itemsize // 8,))))
    union = sum(int(np.bitwise_or.reduce(words[:, i])) << 64 * i for i in range(words.shape[1]))
    longest = max((union.bit_length() + 7) // 8, 1)
    if longest == texts.itemsize:
        raise ValueError("text cell that may have been cut")
    narrow = f"S{longest if longest > 8 else 1 << (longest - 1).bit_length()}"
    cells = texts.astype(narrow)
    cells = cells.view(f"u{cells.itemsize}") if cells.itemsize <= 8 else cells
    starts = np.flatnonzero(np.concatenate(([cells.size > 0], cells[1:] != cells[:-1])))
    heads = cells[starts]
    ordered = np.sort(heads)  # as cells, not as keys: _number orders the keys
    distinct = np.concatenate((ordered[:1], ordered[1:][ordered[1:] != ordered[:-1]]))
    keys, position = _number(list(map(key, distinct.view(narrow).tolist())))
    return keys, np.repeat(position[np.searchsorted(distinct, heads)], np.diff(np.append(starts, texts.size)))


def _number(keys: Sequence) -> tuple[list, np.ndarray]:
    """The sorted distinct keys, and each key's position among them."""
    where = {key: j for j, key in enumerate(sorted(set(keys)))}
    return list(where), np.array([where[key] for key in keys], np.intp)


def _price(cell: str) -> float:
    """A price cell as np.loadtxt reads it: NaN unless an ASCII decimal float, padding aside."""
    try:
        return float(cell.strip()) if cell.isascii() and "_" not in cell else math.nan
    except ValueError:
        return math.nan


def _read_rows(data, delim, fmt, header, cols):
    """The observations of a price file, read one csv row at a time: the reference reader.

    Returns _panel's arguments. Raises the error of the first bad row.
    """
    # asset -> date -> price; every wide column is listed, so that _panel names one with no price
    observed: dict[str, dict[dt.date, float]] = {asset: {} for asset in header[1:]} if fmt == "wide" else {}
    with _rows(data, delim) as rows:
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
                prices = observed.setdefault(asset, {})
                if date in prices:
                    raise ValidationError(f"duplicate observation for asset {asset!r} on {date}")
                prices[date] = price
    assets, a = _number(list(observed))
    dates, d = _number([date for prices in observed.values() for date in prices])
    values = np.array([price for prices in observed.values() for price in prices.values()], dtype=float)
    return assets, np.repeat(a, [len(prices) for prices in observed.values()]), dates, d, values


def load_metadata(source) -> dict[str, str]:
    """Read an asset -> category mapping from a 2+ column delimited file.

    A header row is skipped when its first cell is 'asset' (case-insensitive).
    """
    data = _read_bytes(source)
    if not data:
        return {}
    mapping: dict[str, str] = {}
    with _rows(data, _delimiter(data)) as rows:
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
    cuts them. Idempotent: a panel with no missing cell is returned as it is.

    Raises InsufficientDataError for an asset with no observations at all.
    """
    _first_valid(panel)
    if not (missing := np.isnan(panel.prices)).any():
        return panel
    last = np.where(missing, 0, np.arange(panel.n_dates))
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
    delta_t = _whole(delta_t, "delta_t", 1)
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
    """Remove the given assets from a return matrix; ConfigurationError for a name it does not hold."""
    drop = set(assets)
    if unknown := drop.difference(rm.assets):
        raise ConfigurationError(f"cannot drop unknown assets: {sorted(unknown)}")
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
