"""Fuzz of the command line, in process: malformed configs, matrices, metadata and prices.

Every run must end in an exit code of 0-3 with no exception escaping, a
failed run must say why in exactly one `error:` line, and no NaN or infinity
may reach an artifact of any stage.
"""

import csv
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eigensectors import PricePanel, load_matrix, load_metadata, load_prices, write_panel_wide
from eigensectors.cli import main

from helpers import DEGENERATE_CONFIG

# JSON values that are wrong where a number belongs; 1e400 parses as infinity
# and the big integers describe grids no machine holds
BAD_VALUES = (
    "NaN", "Infinity", "-Infinity", "1e400", "-1e400", "2.5", "-1", "0", "null", "true",
    '"x"', '"7"', "[]", "{}", "1e20", "100000000000000000000", "9223372036854775808",
)
NON_FINITE_CELLS = {"nan", "-nan", "+nan", "inf", "-inf", "+inf", "infinity", "-infinity"}
# asset and category names; none spells a non-finite number, so the artifact
# scan below can tell a name from a value
NAMES = ("A", "B", "C", "A000", "A001", "Tech", "Bank", "", " A ", "x y", '"q"', "é")


def spoiled_count():
    """A JSON token where an integer belongs: out of range, or not an integer at all."""
    return st.one_of(st.integers(-3, 200).map(str), st.sampled_from(BAD_VALUES))


def spoiled_scalar():
    """A JSON token where a finite float belongs: any float, or not a number at all."""
    return st.one_of(st.floats().map(json.dumps), st.sampled_from(BAD_VALUES))


@st.composite
def block_list(draw, n):
    """Disjoint sign-split blocks over n assets, as a JSON list; one block may be spoiled."""
    order = draw(st.permutations(range(n)))
    items, at = [], 0
    for _ in range(draw(st.integers(0, 2))):
        size = draw(st.integers(1, max(1, (n - at) // 2)))
        members, at = order[at : at + size], at + size
        fields = {
            "assets": json.dumps(members),
            "loading": repr(draw(st.floats(0.1, 3.0))),
            "sign_pattern": json.dumps([draw(st.sampled_from([1, -1])) for _ in members]),
            "name": json.dumps(draw(st.sampled_from(NAMES))),
        }
        if draw(st.integers(0, 3)) == 0:
            key = draw(st.sampled_from(sorted(fields)))
            fields[key] = draw(
                st.one_of(
                    spoiled_scalar(),
                    st.lists(st.one_of(spoiled_count(), st.sampled_from(["1", "-1"])), max_size=4)
                    .map(lambda tokens: "[" + ", ".join(tokens) + "]"),
                )
            )
        if draw(st.integers(0, 9)) == 0:
            del fields[draw(st.sampled_from(sorted(fields)))]
        items.append("{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}")
    return "[" + ", ".join(items) + "]"


@st.composite
def market_configs(draw):
    """A synth config as JSON text: a valid market with up to two fields spoiled or dropped."""
    if draw(st.integers(0, 19)) == 0:
        return draw(st.sampled_from(["[1, 2]", "3", '"x"', "{", "", "null"]))
    n = draw(st.integers(2, 12))
    fields = {
        "n_assets": str(n),
        "n_observations": str(draw(st.integers(3, 60))),  # T < N now and then
        "market_strength": repr(draw(st.floats(0.0, 3.0))),
        "noise_std": repr(draw(st.floats(0.1, 3.0))),
        "seed": str(draw(st.integers(0, 5))),
        "blocks": draw(block_list(n)),
    }
    for key in draw(st.lists(st.sampled_from(sorted(fields)), max_size=2, unique=True)):
        if draw(st.integers(0, 4)) == 0:
            del fields[key]
        elif key in ("n_assets", "n_observations", "seed"):
            fields[key] = draw(spoiled_count())
        else:
            fields[key] = draw(spoiled_scalar())
    return "{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}"


def run(argv):
    """main(argv) with its output captured; checks the exit code and the error line."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
    assert code in (0, 1, 2, 3), (argv, code)
    assert len(errors) == (1 if code else 0), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    return code


def assert_finite_artifacts(out: Path):
    def reject(token):
        raise AssertionError(f"{token} in a JSON artifact under {out}")

    for path in out.iterdir():
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".json":
            json.loads(text, parse_constant=reject)
        else:
            cells = text.replace(";", ",").replace("\n", ",").split(",")
            bad = {cell for cell in cells if cell.strip().lower() in NON_FINITE_CELLS}
            assert not bad, (path, bad)
        if path.name == "panel.csv":  # synth writes a NaN price as an empty cell
            assert all(all(row.split(",")) for row in text.splitlines()), path


def run_stages(root: Path, source: list[str], metadata: Path | None) -> None:
    """sectors and anticorr on one source; analyze too when the source is a price file."""
    meta = ["--metadata", str(metadata)] if metadata else []
    if source[0] == "--input":
        if run(["analyze", *source, "--out-dir", str(root / "analyze")]) == 0:
            assert_finite_artifacts(root / "analyze")
    if run(["sectors", *source, *meta, "--u-c", "0.3", "--out-dir", str(root / "sectors")]) == 0:
        assert_finite_artifacts(root / "sectors")
    if run(["anticorr", *source, "--u-c", "0.3", "--trials", "100", "--out-dir", str(root / "scan")]) == 0:
        assert_finite_artifacts(root / "scan")


@settings(max_examples=60, deadline=None)
@given(config=market_configs())
@example(config=json.dumps(DEGENERATE_CONFIG))  # C at +-1 to the last bit: undefined Pearson values
def test_synth_config_fuzz(config):
    with tempfile.TemporaryDirectory() as directory:
        root = Path(directory)
        (root / "market.json").write_text(config)
        if run(["synth", "--config", str(root / "market.json"), "--out-dir", str(root / "synth")]):
            return
        assert_finite_artifacts(root / "synth")
        source = ["--input", str(root / "synth" / "panel.csv"), "--format", "wide"]
        run_stages(root, source, root / "synth" / "metadata.csv")
        matrix = ["--matrix", str(root / "analyze" / "corr_matrix.csv")]
        if (root / "analyze").exists():
            run_stages(root, matrix, root / "synth" / "metadata.csv")


MATRIX_CELLS = ("nan", "inf", "-inf", "", "x", "1.5", "-0", "1e400", " 0.2", "0.2 ")


@st.composite
def matrix_files(draw):
    """Grid and sidecar text: a valid correlation matrix with cells, names or fields spoiled."""
    n = draw(st.integers(1, 5))
    names = list(NAMES[:n])
    if draw(st.booleans()):  # repeated names now and then
        names = [draw(st.sampled_from(NAMES[:6])) for _ in range(n)]
    vectors = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((n, 3 * n))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    cells = [[repr(x) for x in row] for row in (vectors @ vectors.T).tolist()]
    for i in range(n):
        cells[i][i] = "1"
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        cells[i][j] = draw(st.sampled_from(MATRIX_CELLS))
    rows = [",".join(row) for row in cells]
    if draw(st.integers(0, 4)) == 0:
        rows = rows[: draw(st.integers(0, n))]
    grid = "\n".join([",".join(names), *rows]) + "\n"
    sidecar = draw(
        st.one_of(
            st.one_of(st.integers(1, 40).map(str), spoiled_count()).map(
                lambda t: f'{{"n_assets": 3, "n_observations": {t}}}'
            ),
            st.sampled_from(["", "{", "[]", '{"n_assets": 3}', "null"]),
        )
    )
    return grid, sidecar


@settings(max_examples=60, deadline=None)
@given(files=matrix_files())
def test_matrix_fuzz(files):
    grid, sidecar = files
    with tempfile.TemporaryDirectory() as directory:
        root = Path(directory)
        (root / "corr.csv").write_text(grid)
        (root / "corr.meta.json").write_text(sidecar)
        run_stages(root, ["--matrix", str(root / "corr.csv")], None)


METADATA_CELLS = (*NAMES, "asset", "A002", '"a,b"', '"', "\t")


@settings(max_examples=40, deadline=None)
@given(
    rows=st.lists(st.lists(st.sampled_from(METADATA_CELLS), max_size=4), max_size=6),
    raw=st.sampled_from([b"", b"\xef\xbb\xbf", b"\xff", b"\0", b"\r"]),
)
def test_metadata_fuzz(rows, raw):
    with tempfile.TemporaryDirectory() as directory:
        root = Path(directory)
        (root / "corr.csv").write_text("A000,A001,A002\n1,0.9,-0.2\n0.9,1,-0.3\n-0.2,-0.3,1\n")
        (root / "corr.meta.json").write_text('{"n_observations": 50}\n')
        text = "\n".join(",".join(row) for row in rows).encode()
        (root / "meta.csv").write_bytes(raw + text)
        run_stages(root, ["--matrix", str(root / "corr.csv")], root / "meta.csv")


# price cells that are missing, not a price, or not a usable one
PRICE_CELLS = (
    "", "NA", "nan", "-nan", "inf", "-inf", "1e400", "1e-400", "0", "-1.5", "x", "1,5", '"',
    '"2.5"', " 7 ", "1_0", "\0", "é", "1e", "--1",
)
DATE_CELLS = ("", "2015-13-01", "2015-02-30", "x", "20150105", "2015-01-05", " 2015-01-06 ", '"')


@st.composite
def price_files(draw):
    """(layout, bytes) of a small random-walk price panel with cells, rows or names spoiled."""
    layout = draw(st.sampled_from(["wide", "long"]))
    # hypothesis leans to small draws, so a spoiler is the largest value of
    # its draw and most files reach the later stages
    n = draw(st.integers(2, 5))
    t = n + 3 + draw(st.integers(-3, 9))  # T < N now and then
    names = list(NAMES[:n])
    if draw(st.integers(0, 3)) == 3:  # repeated names
        names = [draw(st.sampled_from(NAMES[:6])) for _ in range(n)]
    dates = [f"2015-{1 + d // 28:02d}-{1 + d % 28:02d}" for d in range(t)]
    steps = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(0.0, 0.02, (t, n))
    prices = [[repr(x) for x in row] for row in (100.0 * np.exp(np.cumsum(steps, axis=0))).tolist()]
    if draw(st.integers(0, 5)) == 5:  # one asset that never moves
        column = draw(st.integers(0, n - 1))
        for row in prices:
            row[column] = "5"
    for _ in range(max(0, draw(st.integers(-3, 3)))):
        i, j = draw(st.integers(0, t - 1)), draw(st.integers(0, n - 1))
        prices[i][j] = draw(st.sampled_from(PRICE_CELLS))
    if draw(st.integers(0, 3)) == 3:
        dates[draw(st.integers(0, t - 1))] = draw(st.sampled_from(DATE_CELLS))
    if layout == "wide":
        rows = [["date", *names], *([d, *row] for d, row in zip(dates, prices))]
    else:
        rows = [["date", "asset", "price"]]
        rows += [[d, name, p] for d, row in zip(dates, prices) for name, p in zip(names, row)]
    edit = draw(st.integers(0, 9))
    if edit == 9:  # a row cut short or run long
        i = draw(st.integers(0, len(rows) - 1))
        rows[i] = rows[i][:-1] if draw(st.booleans()) else [*rows[i], "9"]
    elif edit == 8:  # rows out of order or repeated
        i, j = draw(st.integers(1, len(rows) - 1)), draw(st.integers(1, len(rows) - 1))
        rows[i] = rows[j] if draw(st.booleans()) else rows[i]
        rows[i], rows[j] = rows[j], rows[i]
    elif edit == 7:  # no header, or nothing but a header
        rows = rows[1:] if draw(st.booleans()) else rows[:1]
    text = "\n".join(",".join(row) for row in rows) + draw(st.sampled_from(["\n", "", "\n\n", "\r\n"]))
    if draw(st.integers(0, 4)) == 4:
        text = draw(st.sampled_from(["\ufeff", "\udcff", "\0"])) + text
    return layout, text.encode("utf-8", "surrogateescape")


@settings(max_examples=80, deadline=None)
@given(file=price_files(), delta_t=st.sampled_from(["1", "1", "2"]))
def test_price_file_fuzz(file, delta_t):
    layout, data = file
    with tempfile.TemporaryDirectory() as directory:
        root = Path(directory)
        (root / "prices.csv").write_bytes(data)
        source = ["--input", str(root / "prices.csv"), "--format", layout, "--delta-t", delta_t]
        run_stages(root, source, None)


# names and categories that a delimited artifact must quote; ends are stripped on
# reading, so a line break stands inside a name
QUOTED_NAMES = ("X,Y", 'Q"R', "L\nM", "C\rR", "Energy, Oil", '"q"', "Oil, Gas & Consumable Fuels", "é,è")


@settings(max_examples=40, deadline=None)
@given(
    names=st.lists(st.sampled_from(QUOTED_NAMES + NAMES[:6]), min_size=4, max_size=8, unique=True),
    categories=st.lists(st.sampled_from(QUOTED_NAMES), min_size=2, max_size=2),
    seed=st.integers(0, 5),
)
def test_quoted_names_round_trip(names, categories, seed):
    n = len(names)
    config = {
        "n_assets": n, "n_observations": 8 * n, "noise_std": 0.5, "seed": seed,
        "blocks": [{"assets": list(range(n)), "loading": 2.0, "sign_pattern": [(-1) ** i for i in range(n)],
                    "name": categories[0]}],
    }
    with tempfile.TemporaryDirectory() as directory:
        root = Path(directory)
        (root / "market.json").write_text(json.dumps(config))
        assert run(["synth", "--config", str(root / "market.json"), "--out-dir", str(root / "synth")]) == 0
        planted = json.loads((root / "synth" / "ground_truth.json").read_text())["blocks"][0]
        assert load_metadata(root / "synth" / "metadata.csv") == dict.fromkeys(planted["assets"], categories[0])

        synthetic = load_prices(root / "synth" / "panel.csv", fmt="wide")
        write_panel_wide(PricePanel(names, synthetic.dates, synthetic.prices), root / "prices.csv")
        with (root / "meta.csv").open("w", newline="", encoding="utf-8") as out:
            csv.writer(out, quoting=csv.QUOTE_ALL).writerows(
                [("asset", "category"), *((name, categories[i % 2]) for i, name in enumerate(names))]
            )
        prices = ["--input", str(root / "prices.csv"), "--format", "wide"]
        matrix = ["--matrix", str(root / "analyze" / "corr_matrix.csv")]
        assert run(["analyze", *prices, "--out-dir", str(root / "analyze")]) == 0
        assert load_matrix(root / "analyze" / "corr_matrix.csv").assets == tuple(sorted(names))
        for route, source in (("input", prices), ("matrix", matrix)):
            out = str(root / route)
            assert run(["sectors", *source, "--metadata", str(root / "meta.csv"), "--u-c", "0.1", "--out-dir", out]) == 0
            assert run(["anticorr", *source, "--u-c", "0.1", "--trials", "100", "--out-dir", out]) == 0
        for artifact in sorted((root / "input").iterdir()):
            twin = root / "matrix" / artifact.name
            if artifact.suffix == ".json":  # the same report, but for the config echo that names the route
                want, got = (json.loads(p.read_text()) for p in (artifact, twin))
                assert {**want, "config": None} == {**got, "config": None}, artifact.name
            else:
                assert artifact.read_bytes() == twin.read_bytes(), artifact.name
        with (root / "matrix" / "sectors.csv").open(newline="", encoding="utf-8") as table:
            rows = list(csv.reader(table))
        assert len(rows) > 1 and {len(row) for row in rows} == {9}
        assert {row[4] for row in rows[1:]} <= set(names)  # the anchor assets
