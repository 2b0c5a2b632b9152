"""End-to-end command-line runs, in process, against synthetic panels."""

import argparse
import csv
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from eigensectors import (
    ParseError, PricePanel, ValidationError, eigendecompose, load_matrix, load_prices, mode_scan, mp_bounds,
    report_to_dict,
)
from eigensectors.cli import build_parser, main
from eigensectors.synth import write_panel_wide

from helpers import DEGENERATE_CONFIG

MARKET_CONFIG = {
    "n_assets": 12,
    "n_observations": 400,
    "market_strength": 0.0,
    "noise_std": 1.0,
    "blocks": [
        {
            "assets": [0, 1, 2, 3, 4, 5],
            "loading": 2.0,
            "sign_pattern": [1, 1, 1, -1, -1, -1],
            "name": "Split",
        }
    ],
    "seed": 7,
}

TINY_WIDE = "date,AAA,BBB\n2015-01-05,100,50\n2015-01-06,101,49\n2015-01-07,103,48\n"


@pytest.fixture(scope="module")
def market_dir(tmp_path_factory):
    """One generated market: panel.csv, metadata.csv, ground truth."""
    root = tmp_path_factory.mktemp("market")
    cfg = root / "config.json"
    cfg.write_text(json.dumps(MARKET_CONFIG))
    assert main(["synth", "--config", str(cfg), "--out-dir", str(root)]) == 0
    return root


# ---------------------------------------------------------------- exit codes


def test_usage_errors_exit_1(capsys):
    for argv in ([], ["bogus"], ["analyze"], ["analyze", "--input", "x", "--format", "csv"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 1
    capsys.readouterr()


def test_missing_input_is_a_data_error(tmp_path, capsys):
    rc = main(["analyze", "--input", str(tmp_path / "nope.csv"), "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "not found" in capsys.readouterr().err


def test_bad_delta_t_is_a_configuration_error(tmp_path, capsys):
    panel = tmp_path / "p.csv"
    panel.write_text(TINY_WIDE)
    rc = main(
        ["analyze", "--input", str(panel), "--format", "wide", "--delta-t", "0",
         "--out-dir", str(tmp_path / "out")]
    )
    assert rc == 1
    assert "delta_t" in capsys.readouterr().err


# --------------------------------------------------------------------- synth


def test_synth_artifacts(market_dir):
    for name in ("panel.csv", "metadata.csv", "ground_truth.json", "synth_report.json"):
        assert (market_dir / name).exists()
    report = json.loads((market_dir / "synth_report.json").read_text())
    assert report["seed"] == 7  # config seed honored when --seed is absent
    assert report["n_assets"] == 12
    assert report["n_observations"] == 400
    assert report["config"]["command"] == "synth"
    truth = json.loads((market_dir / "ground_truth.json").read_text())
    assert truth["blocks"][0]["name"] == "Split"
    assert truth["blocks"][0]["positive"] == ["A000", "A001", "A002"]
    assert truth["blocks"][0]["negative"] == ["A003", "A004", "A005"]
    expected_meta = "asset,category\n" + "".join(
        f"A{i:03d},Split\n" for i in range(6)
    )
    assert (market_dir / "metadata.csv").read_text() == expected_meta
    # wide panel: one header plus T+1 price rows
    lines = (market_dir / "panel.csv").read_text().splitlines()
    assert lines[0].startswith("date,A000,")
    assert len(lines) == 402


def test_synth_seed_flag_overrides_config(market_dir, tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(MARKET_CONFIG))
    out = tmp_path / "seeded"
    assert main(["synth", "--config", str(cfg), "--seed", "3", "--out-dir", str(out)]) == 0
    report = json.loads((out / "synth_report.json").read_text())
    assert report["seed"] == 3
    assert (out / "panel.csv").read_bytes() != (market_dir / "panel.csv").read_bytes()


def test_synth_writes_integer_scales_of_the_config_as_floats(tmp_path):
    cfg = tmp_path / "config.json"
    blocks = [{**MARKET_CONFIG["blocks"][0], "loading": 2}]
    cfg.write_text(json.dumps({**MARKET_CONFIG, "market_strength": 1, "noise_std": 1, "blocks": blocks}))
    assert main(["synth", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 0
    text = (tmp_path / "out" / "ground_truth.json").read_text()
    assert '"market_strength": 1.0,' in text and '"noise_std": 1.0,' in text and '"loading": 2.0' in text


NEGATIVE_SEED = "seed must be a non-negative integer, got -1"


@pytest.mark.parametrize(
    ("text", "flags", "message"),
    [
        ("{not json", [], "not valid JSON"),
        (json.dumps({**MARKET_CONFIG, "seed": "x"}), [], "bad market config value"),
        (json.dumps({**MARKET_CONFIG, "seed": -1}), [], NEGATIVE_SEED),
        (json.dumps(MARKET_CONFIG), ["--seed", "-1"], NEGATIVE_SEED),
        (json.dumps({**MARKET_CONFIG, "noise_std": 1e-160}), [], "noise_std must be >= 1e-100"),
        (json.dumps({**MARKET_CONFIG, "noise_std": 1e-300}), [], "noise_std must be >= 1e-100"),
        (json.dumps({**MARKET_CONFIG, "blocks": [{"assets": [0], "loading": 1.0, "name": True}]}), [],
         "bad market config value: block 0: name must be a string, got True"),
    ],
    ids=["invalid_json", "bad_seed", "negative_config_seed", "negative_seed_flag", "tiny_noise", "tinier_noise",
         "boolean_block_name"],
)
def test_synth_malformed_config_exits_1(tmp_path, capsys, text, flags, message):
    cfg = tmp_path / "config.json"
    cfg.write_text(text)
    assert main(["synth", "--config", str(cfg), *flags, "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1


def test_synth_checks_the_seed_flag_before_the_config(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["synth", "--config", str(tmp_path / "missing.json"), "--seed", "-1", "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {NEGATIVE_SEED}\n"
    assert not out.exists()


def test_synth_rerun_is_byte_identical(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(MARKET_CONFIG))
    out = tmp_path / "out"
    names = ("panel.csv", "metadata.csv", "ground_truth.json", "synth_report.json")
    assert main(["synth", "--config", str(cfg), "--out-dir", str(out)]) == 0
    first = {n: (out / n).read_bytes() for n in names}
    assert main(["synth", "--config", str(cfg), "--out-dir", str(out)]) == 0
    assert {n: (out / n).read_bytes() for n in names} == first


# ------------------------------------------------------------------- analyze


def test_analyze_report(market_dir, tmp_path, capsys):
    out = tmp_path / "analysis"
    rc = main(
        ["analyze", "--input", str(market_dir / "panel.csv"), "--format", "wide",
         "--out-dir", str(out)]
    )
    assert rc == 0
    assert "analyze: N=12" in capsys.readouterr().out
    assert (out / "corr_matrix.csv").exists()
    assert (out / "corr_matrix.meta.json").exists()
    report = json.loads((out / "analysis_report.json").read_text())
    assert report["n_assets"] == 12
    assert report["n_observations"] == 400
    law = mp_bounds(400 / 12)
    assert report["q"] == pytest.approx(400 / 12, abs=1e-12)
    assert report["lambda_min_noise"] == pytest.approx(law.lambda_min, abs=1e-10)
    assert report["lambda_max_noise"] == pytest.approx(law.lambda_max, abs=1e-10)
    eigs = report["eigenvalues"]
    assert len(eigs) == 12
    assert eigs == sorted(eigs, reverse=True)
    assert sum(eigs) == pytest.approx(12, abs=1e-6)
    (top,) = report["significant_modes"]
    assert top["mode"] == 0
    assert top["ratio_to_noise_edge"] > 1.0
    assert report["dropped_assets"] == []
    assert report["artifacts"] == {
        "matrix": "corr_matrix.csv",
        "sidecar": "corr_matrix.meta.json",
    }
    cfg = report["config"]
    assert cfg["command"] == "analyze"
    assert cfg["format"] == "wide"
    assert cfg["delta_t"] == 1
    assert cfg["margin"] == 1.0
    assert cfg["out_dir"] == str(out)


def test_analyze_tiny_panel(tmp_path, capsys):
    panel = tmp_path / "p.csv"
    panel.write_text(TINY_WIDE)
    out = tmp_path / "out"
    assert main(["analyze", "--input", str(panel), "--format", "wide", "--out-dir", str(out)]) == 0
    capsys.readouterr()
    report = json.loads((out / "analysis_report.json").read_text())
    assert report["n_assets"] == 2
    assert report["n_observations"] == 2
    assert sum(report["eigenvalues"]) == pytest.approx(2.0, abs=1e-9)


def test_zero_variance_asset_handling(tmp_path, capsys):
    lines = ["date,GOOD,OK,FLAT"]
    price = 100.0
    for i, day in enumerate(("05", "06", "07", "08", "09")):
        price *= 1.01 if i % 2 else 0.99
        lines.append(f"2015-01-{day},{price:.4f},{100 + i},50")
    panel = tmp_path / "p.csv"
    panel.write_text("\n".join(lines) + "\n")

    rc = main(["analyze", "--input", str(panel), "--format", "wide",
               "--out-dir", str(tmp_path / "a")])
    assert rc == 2
    assert "FLAT" in capsys.readouterr().err

    out = tmp_path / "b"
    rc = main(["analyze", "--input", str(panel), "--format", "wide",
               "--drop-zero-variance", "--out-dir", str(out)])
    assert rc == 0
    assert "FLAT" in capsys.readouterr().err  # dropped with a warning
    report = json.loads((out / "analysis_report.json").read_text())
    assert report["dropped_assets"] == ["FLAT"]
    assert report["n_assets"] == 2


@pytest.mark.parametrize(
    ("fmt", "text"),
    [
        ("wide", b"date,AAA,BBB\n2015-01-05,100,50\n2015-01-06,10\xff1,49\n2015-01-07,103,48\n"),
        ("long", b"date,asset,price\n2015-01-05,AAA,100\n2015-01-05,B\xe9B,50\n"),
    ],
    ids=["wide", "long"],
)
def test_non_utf8_price_file_is_a_data_error(tmp_path, capsys, fmt, text):
    panel = tmp_path / "p.csv"
    panel.write_bytes(text)
    rc = main(["analyze", "--input", str(panel), "--format", fmt, "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 3: not UTF-8") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("header", ["date,A, A", 'date,"A",A'], ids=["spaced", "quoted"])
def test_duplicate_wide_columns_are_a_data_error(tmp_path, capsys, header):
    # the name is read as csv reads it and stripped, so each header names A twice
    text = f"{header}\n2015-01-05,100,50\n2015-01-06,101,49\n2015-01-07,103,48\n"
    with pytest.raises(ValidationError, match="^duplicate asset columns in wide header$"):
        load_prices(io.StringIO(text), fmt="wide")
    panel = tmp_path / "p.csv"
    panel.write_text(text)
    rc = main(["analyze", "--input", str(panel), "--format", "wide", "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == "error: duplicate asset columns in wide header\n"


@pytest.mark.parametrize(
    ("fmt", "text"),
    [
        ("wide", "date,AAA,BBB\n2015-01-05,100,50\n2015-01-06,1{},49\n2015-01-07,103,48\n"),
        ("long", "date,asset,price\n2015-01-05,AAA,100\n2015-01-05,BBB,1{}\n"),
    ],
    ids=["wide", "long"],
)
def test_oversized_price_cell_is_a_data_error(tmp_path, capsys, fmt, text):
    # 200000 characters is over csv's default field size limit of 131072
    panel = tmp_path / "p.csv"
    panel.write_text(text.format("0" * 200_000))
    rc = main(["analyze", "--input", str(panel), "--format", fmt, "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 3: field larger than field limit") and err.count("\n") == 1
    assert "Traceback" not in err


def _without_config(path):
    report = json.loads(path.read_text())
    del report["config"]  # echoes the input path and out dir
    return report


@pytest.mark.parametrize("line_end", [b"\r\n", b"\r"], ids=["crlf", "cr"])
def test_line_ends_give_identical_artifacts(market_dir, tmp_path, capsys, line_end):
    outputs = {}
    for name, end in (("lf", b"\n"), ("twin", line_end)):
        for source in ("panel.csv", "metadata.csv"):
            (tmp_path / f"{name}_{source}").write_bytes(
                (market_dir / source).read_bytes().replace(b"\n", end)
            )
        out = tmp_path / name
        assert main(["analyze", "--input", str(tmp_path / f"{name}_panel.csv"), "--format", "wide",
                     "--out-dir", str(out)]) == 0
        assert main(["sectors", "--input", str(tmp_path / f"{name}_panel.csv"), "--format", "wide",
                     "--metadata", str(tmp_path / f"{name}_metadata.csv"), "--u-c", "0.3",
                     "--out-dir", str(out)]) == 0
        outputs[name] = (
            (out / "corr_matrix.csv").read_bytes(),
            (out / "sectors.csv").read_bytes(),
            _without_config(out / "analysis_report.json"),
            _without_config(out / "sectors.json"),
        )
    capsys.readouterr()
    assert outputs["twin"] == outputs["lf"]
    assert outputs["lf"][3]["rows"][0]["dominant"] == "Split"  # the metadata was read


# ------------------------------------------------------------------- sectors


def test_sectors_recovers_planted_split(market_dir, tmp_path, capsys):
    out = tmp_path / "sectors"
    rc = main(
        ["sectors", "--input", str(market_dir / "panel.csv"), "--format", "wide",
         "--metadata", str(market_dir / "metadata.csv"), "--u-c", "0.3",
         "--out-dir", str(out)]
    )
    assert rc == 0
    capsys.readouterr()
    report = json.loads((out / "sectors.json").read_text())
    assert report["thresholds"] == [0.3]
    rows = report["rows"]
    # the block mode is two-signed, so it stays in the table as mode 0
    assert [r["sign"] for r in rows] == ["+", "-"]
    members = set()
    for row in rows:
        assert row["mode"] == 0
        assert row["u_c"] == 0.3
        assert row["dominant"] == "Split"
        assert row["matched"] == row["total"] == 3
        members |= set(row["members"])
    assert members == {f"A{i:03d}" for i in range(6)}
    csv_lines = (out / "sectors.csv").read_text().splitlines()
    assert csv_lines[0] == "u_c,mode,eigenvalue,sign,anchor_asset,dominant,matched,total,members"
    assert len(csv_lines) == 3
    assert csv_lines[1].split(",")[3] == "+"


def test_sectors_csv_members_read_back_with_their_delimiter(market_dir, tmp_path, capsys):
    names = {"A000": "A;0", "A001": 'A"1', "A002": "A,2", "A003": "A\r\n3", "A004": "A;;4"}
    rows = list(csv.reader(io.StringIO((market_dir / "panel.csv").read_text(), newline="")))
    rows[0] = [names.get(c, c) for c in rows[0]]
    panel = tmp_path / "panel.csv"
    with panel.open("w", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows(rows)
    out = tmp_path / "sectors"
    assert main(["sectors", "--input", str(panel), "--format", "wide", "--u-c", "0.3",
                 "--out-dir", str(out)]) == 0
    capsys.readouterr()
    report = json.loads((out / "sectors.json").read_text())
    with (out / "sectors.csv").open(newline="") as f:
        table = list(csv.DictReader(f))
    assert len(table) == len(report["rows"]) == 2
    for line, row in zip(table, report["rows"]):
        members = next(csv.reader(io.StringIO(line["members"], newline=""), delimiter=";"))
        assert members == row["members"]
    assert {m for row in report["rows"] for m in row["members"]} >= set(names.values())


def test_sectors_matrix_reuse_matches_input_route(market_dir, tmp_path, capsys):
    analysis = tmp_path / "analysis"
    assert main(["analyze", "--input", str(market_dir / "panel.csv"), "--format", "wide",
                 "--out-dir", str(analysis)]) == 0
    via_matrix = tmp_path / "m"
    via_input = tmp_path / "i"
    rc = main(["sectors", "--matrix", str(analysis / "corr_matrix.csv"),
               "--metadata", str(market_dir / "metadata.csv"),
               "--u-c", "0.3", "--out-dir", str(via_matrix)])
    assert rc == 0
    rc = main(["sectors", "--input", str(market_dir / "panel.csv"), "--format", "wide",
               "--metadata", str(market_dir / "metadata.csv"),
               "--u-c", "0.3", "--out-dir", str(via_input)])
    assert rc == 0
    capsys.readouterr()
    a = json.loads((via_matrix / "sectors.json").read_text())
    b = json.loads((via_input / "sectors.json").read_text())
    assert a["rows"] == b["rows"]


def test_non_utf8_matrix_is_a_data_error(tmp_path, capsys):
    grid = tmp_path / "corr_matrix.csv"
    grid.write_bytes(b"AAA,BBB\n1,0.5\n0.5,1\xff\n")
    (tmp_path / "corr_matrix.meta.json").write_text('{"n_assets": 2, "n_observations": 10}\n')
    rc = main(["sectors", "--matrix", str(grid), "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 3: not UTF-8 text (byte 0xff)") and err.count("\n") == 1
    assert "Traceback" not in err


def test_empty_matrix_is_a_data_error(tmp_path, capsys):
    grid = tmp_path / "corr_matrix.csv"
    grid.write_bytes(b"")
    (tmp_path / "corr_matrix.meta.json").write_text('{"n_assets": 2, "n_observations": 10}\n')
    with pytest.raises(ParseError) as err:
        load_matrix(grid)
    assert str(err.value) == "line 1: empty matrix file"
    assert main(["sectors", "--matrix", str(grid), "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: line 1: empty matrix file\n"


@pytest.mark.parametrize(
    "grid, sidecar, message",
    [
        ("A,B\n1,0.5\n0.5,1\n", '{"n_assets": 99, "n_observations": 300}',
         "matrix sidecar {} has n_assets 99; the header names 2"),
        ("A,\n1,0.5\n0.5,1\n", '{"n_assets": 2, "n_observations": 300}', "line 1: empty asset name in matrix header"),
    ],
    ids=["asset_count", "empty_name"],
)
def test_matrix_header_unlike_its_sidecar_or_unnamed_is_a_data_error(tmp_path, capsys, grid, sidecar, message):
    (tmp_path / "corr_matrix.csv").write_text(grid)
    (tmp_path / "corr_matrix.meta.json").write_text(sidecar + "\n")
    out = tmp_path / "out"
    assert main(["sectors", "--matrix", str(tmp_path / "corr_matrix.csv"), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message.format(tmp_path / 'corr_matrix.meta.json')}\n"
    assert not out.exists()


def test_missing_metadata_is_one_warning_and_unlabeled_rows(market_dir, tmp_path, capsys):
    meta = tmp_path / "nope.csv"
    out = tmp_path / "out"
    rc = main(["sectors", "--input", str(market_dir / "panel.csv"), "--format", "wide",
               "--metadata", str(meta), "--u-c", "0.3", "--out-dir", str(out)])
    assert rc == 0
    warning = [line for line in capsys.readouterr().err.splitlines() if line.startswith("warning:")]
    assert len(warning) == 1 and str(meta) in warning[0]
    rows = json.loads((out / "sectors.json").read_text())["rows"]
    assert rows and all(row["dominant"] == "Unlabeled" for row in rows if row["total"] > 0)


def test_non_utf8_metadata_is_a_data_error(market_dir, tmp_path, capsys):
    meta = tmp_path / "meta.csv"
    meta.write_bytes(b"asset,category\nA000,Split\nA001,Spl\xe9t\n")
    rc = main(["sectors", "--input", str(market_dir / "panel.csv"), "--format", "wide",
               "--metadata", str(meta), "--u-c", "0.3", "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 3: not UTF-8") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--input", "short.csv", "--format", "wide"],
        ["sectors", "--input", "short.csv", "--format", "wide"],
        ["anticorr", "--input", "short.csv", "--format", "wide", "--trials", "100"],
        ["sectors", "--matrix", "corr.csv"],
        ["anticorr", "--matrix", "corr.csv", "--trials", "100"],
    ],
    ids=["analyze", "sectors", "anticorr", "sectors_matrix", "anticorr_matrix"],
)
def test_fewer_observations_than_assets_is_a_data_error(tmp_path, capsys, argv):
    # 20 assets over 10 dates give T=9 returns: C is rank-deficient and Q < 1
    prices = np.exp(np.cumsum(0.01 * np.random.default_rng(0).standard_normal((20, 10)), axis=1))
    dates = [f"2015-01-{d:02d}" for d in range(5, 15)]
    rows = [",".join([d, *map(repr, col)]) for d, col in zip(dates, prices.T.tolist())]
    header = ",".join(["date", *(f"S{i:02d}" for i in range(20))])
    (tmp_path / "short.csv").write_text("\n".join([header, *rows]) + "\n")
    (tmp_path / "corr.csv").write_text("X,Y,Z\n1,0,0\n0,1,0\n0,0,1\n")
    (tmp_path / "corr.meta.json").write_text('{"n_observations": 2}\n')
    argv = [str(tmp_path / a) if a.endswith(".csv") else a for a in argv]
    out = tmp_path / "out"
    assert main([*argv, "--out-dir", str(out)]) == 2
    n, t = (3, 2) if "--matrix" in argv else (20, 9)
    err = capsys.readouterr().err
    assert err == f"error: N={n} assets need at least as many return observations, got T={t}\n"
    assert not out.exists()


@pytest.mark.parametrize("stage", ["sectors", "anticorr"])
def test_stage_requires_a_source(tmp_path, capsys, stage):
    rc = main([stage, "--out-dir", str(tmp_path)])
    assert rc == 1
    assert "--input or --matrix" in capsys.readouterr().err


@pytest.mark.parametrize("stage", ["sectors", "anticorr"])
def test_stage_rejects_input_and_matrix(market_dir, tmp_path, capsys, stage):
    analysis = tmp_path / "analysis"
    assert main(["analyze", "--input", str(market_dir / "panel.csv"), "--format", "wide",
                 "--out-dir", str(analysis)]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    rc = main([stage, "--input", str(market_dir / "panel.csv"),
               "--matrix", str(analysis / "corr_matrix.csv"), "--out-dir", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == f"error: {stage} takes --input or --matrix, not both\n"
    assert not out.exists()


def test_anticorr_matrix_reuse_matches_input_route(market_dir, tmp_path, capsys):
    analysis = tmp_path / "analysis"
    assert main(["analyze", "--input", str(market_dir / "panel.csv"), "--format", "wide",
                 "--out-dir", str(analysis)]) == 0
    scan = ["--u-c", "0.3", "--u-c-zero-scan", "--trials", "150", "--include-market-mode"]
    assert main(["anticorr", "--matrix", str(analysis / "corr_matrix.csv"), *scan,
                 "--out-dir", str(tmp_path / "m")]) == 0
    assert main(["anticorr", "--input", str(market_dir / "panel.csv"), "--format", "wide", *scan,
                 "--out-dir", str(tmp_path / "i")]) == 0
    capsys.readouterr()
    names = sorted(path.name for path in (tmp_path / "i").iterdir())
    assert names == sorted(path.name for path in (tmp_path / "m").iterdir())
    assert len(names) == 6
    for name in names:
        via_matrix, via_input = tmp_path / "m" / name, tmp_path / "i" / name
        if name.endswith(".json"):  # the config echo names the route
            assert _without_config(via_matrix) == _without_config(via_input)
        else:
            assert via_matrix.read_bytes() == via_input.read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["sectors", "--u-c", "nan"],
        ["sectors", "--u-c", "inf"],
        ["anticorr", "--u-c", "nan"],
        ["anticorr", "--u-c", "inf"],
        ["anticorr", "--u-c", "0.3", "--u-c", "nan"],  # checked before the 0.3 scan writes
        ["analyze", "--margin", "inf"],
        ["sectors", "--margin", "inf"],
        ["sectors", "--margin", "1e9", "--u-c", "nan"],  # no significant mode
    ],
    ids=["sectors_uc_nan", "sectors_uc_inf", "anticorr_uc_nan", "anticorr_uc_inf",
         "anticorr_later_uc_nan", "analyze_margin_inf", "sectors_margin_inf",
         "sectors_no_modes_uc_nan"],
)
def test_non_finite_threshold_or_margin_is_a_configuration_error(market_dir, tmp_path, capsys, argv):
    out = tmp_path / "out"
    rc = main([*argv, "--input", str(market_dir / "panel.csv"), "--format", "wide",
               "--out-dir", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "must be finite" in err and "Traceback" not in err
    assert not out.exists() or list(out.iterdir()) == []


def test_library_notice_is_one_warning_line(tmp_path, capsys):
    config = {
        "n_assets": 60,
        "n_observations": 300,
        "blocks": [{"assets": list(range(10)), "loading": 2.0, "sign_pattern": [1] * 5 + [-1] * 5}],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["synth", "--config", str(path), "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    rc = main(["sectors", "--input", str(tmp_path / "panel.csv"), "--format", "wide",
               "--u-c", "0.1", "--out-dir", str(tmp_path / "out")])
    assert rc == 0
    assert capsys.readouterr().err == (
        "warning: u_c=0.1 does not exceed the delocalized component scale 1/sqrt(N)=0.1291; "
        "subsectors will pick up noise components\n"
    )


def test_wide_asset_with_no_price_is_one_warning_line(tmp_path, capsys):
    panel = tmp_path / "p.csv"
    rows = [f"2015-01-{5 + i:02d},{100 + i},,{50 + i * i}" for i in range(6)]
    panel.write_text("date,AAA,BBB,CCC\n" + "\n".join(rows) + "\n")
    rc = main(["analyze", "--input", str(panel), "--format", "wide", "--out-dir", str(tmp_path / "out")])
    assert rc == 0
    assert capsys.readouterr().err == "warning: assets with no price left out: BBB\n"
    report = json.loads((tmp_path / "out" / "analysis_report.json").read_text())
    assert report["n_assets"] == 2


def test_sectors_reads_negative_zero_threshold_as_zero(market_dir, tmp_path, capsys):
    rc = main(["sectors", "--input", str(market_dir / "panel.csv"), "--format", "wide",
               "--u-c", "-0", "--out-dir", str(tmp_path)])
    assert rc == 0
    assert "thresholds [0.0]" in capsys.readouterr().out
    report = json.loads((tmp_path / "sectors.json").read_text())
    assert [math.copysign(1.0, t) for t in report["thresholds"]] == [1.0]
    assert report["rows"] and all(math.copysign(1.0, r["u_c"]) == 1.0 for r in report["rows"])
    rows = (tmp_path / "sectors.csv").read_text().splitlines()[1:]
    assert rows and all(row.startswith("0,") for row in rows)


def test_sectors_rejects_bad_threshold_ladder(market_dir, tmp_path, capsys):
    rc = main(
        ["sectors", "--input", str(market_dir / "panel.csv"), "--format", "wide",
         "--u-c", "0.3", "--u-c", "0.2", "--out-dir", str(tmp_path)]
    )
    assert rc == 1
    assert "ascending" in capsys.readouterr().err


@pytest.mark.parametrize("stage", ["sectors", "anticorr"])
def test_thresholds_that_print_alike_are_a_configuration_error(market_dir, tmp_path, capsys, monkeypatch, stage):
    def unread(*args, **kwargs):
        raise AssertionError("input read before the thresholds were checked")

    monkeypatch.setattr("eigensectors.timeseries.load_prices", unread)
    out = tmp_path / "out"
    rc = main([stage, "--input", str(market_dir / "panel.csv"), "--format", "wide",
               "--u-c", "0.1", "--u-c", "0.1000001", "--out-dir", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: thresholds 0.1 and 0.1000001 both print as 0.1 in the artifacts\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("present", [True, False])
def test_sectors_checks_the_threshold_order_before_the_input(market_dir, tmp_path, capsys, monkeypatch, present):
    def unread(*args, **kwargs):
        raise AssertionError("input read before the threshold order was checked")

    monkeypatch.setattr("eigensectors.timeseries.load_prices", unread)
    source = market_dir / "panel.csv" if present else tmp_path / "missing.csv"
    out = tmp_path / "out"
    for ladder in (["0.3", "0.2"], ["0.1", "0.1"]):
        flags = [arg for u_c in ladder for arg in ("--u-c", u_c)]
        rc = main(["sectors", "--input", str(source), "--format", "wide", *flags, "--out-dir", str(out)])
        assert rc == 1
        assert "ascending" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("present", [True, False])
@pytest.mark.parametrize(
    ("stage", "flags", "message"),
    [
        ("anticorr", ["--trials", "50"], "reports need >= 100 baseline trials, got 50"),
        ("anticorr", ["--seed", "-3"], "seed must be a non-negative integer, got -3"),
        ("analyze", ["--margin", "0"], "margin must be positive, got 0.0"),
        ("sectors", ["--margin", "inf"], "margin must be finite, got inf"),
        ("analyze", ["--delta-t", "0"], "delta_t must be a positive integer, got 0"),
        ("sectors", ["--delta-t", "-2"], "delta_t must be a positive integer, got -2"),
        ("anticorr", ["--delta-t", "0"], "delta_t must be a positive integer, got 0"),
    ],
    ids=["trials", "seed", "margin_analyze", "margin_sectors", "delta_t_analyze", "delta_t_sectors",
         "delta_t_anticorr"],
)
def test_stage_options_are_checked_before_the_input(
    market_dir, tmp_path, capsys, monkeypatch, present, stage, flags, message
):
    # by the rule the library function applies, so the message is the library's
    def unread(*args, **kwargs):
        raise AssertionError("input read before the options were checked")

    monkeypatch.setattr("eigensectors.timeseries.load_prices", unread)
    source = market_dir / "panel.csv" if present else tmp_path / "missing.csv"
    out = tmp_path / "out"
    rc = main([stage, "--input", str(source), "--format", "wide", *flags, "--out-dir", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


# ------------------------------------------------------------------ anticorr


def test_anticorr_scans_a_two_signed_mode_0(tmp_path, capsys):
    # no market factor: mode 0 is the planted block's sign split, which
    # sectors labels, so the scan measures it too
    config = {
        "n_assets": 60, "n_observations": 1500, "market_strength": 0.0, "noise_std": 1.0, "seed": 7,
        "blocks": [{"assets": list(range(12)), "loading": 1.0, "sign_pattern": [1] * 6 + [-1] * 6}],
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    assert main(["synth", "--config", str(tmp_path / "config.json"), "--out-dir", str(tmp_path)]) == 0
    panel = ["--input", str(tmp_path / "panel.csv"), "--format", "wide"]
    assert main(["analyze", *panel, "--out-dir", str(tmp_path / "analysis")]) == 0
    assert "significant=[0]" in capsys.readouterr().out
    assert main(["sectors", *panel, "--u-c", "0.2", "--out-dir", str(tmp_path / "sectors")]) == 0
    rows = json.loads((tmp_path / "sectors" / "sectors.json").read_text())["rows"]
    assert {r["mode"] for r in rows} == {0}
    assert main(["anticorr", *panel, "--u-c", "0.2", "--trials", "100", "--out-dir", str(tmp_path / "scan")]) == 0
    report = json.loads((tmp_path / "scan" / "anticorr_uc0p2.json").read_text())
    assert [m["mode"] for m in report["modes"]][:1] == [0]
    assert report["modes"][0]["n_positive"] == report["modes"][0]["n_negative"] == 6


def test_anticorr_artifacts(market_dir, tmp_path, capsys):
    out = tmp_path / "scan"
    rc = main(
        ["anticorr", "--input", str(market_dir / "panel.csv"), "--format", "wide",
         "--u-c", "0.3", "--trials", "150", "--u-c-zero-scan",
         "--include-market-mode", "--out-dir", str(out)]
    )
    assert rc == 0
    capsys.readouterr()
    for tag in ("uc0p3", "uc0"):
        assert (out / f"anticorr_{tag}.json").exists()
        assert (out / f"anticorr_scan_{tag}.csv").exists()
        assert (out / f"block_averages_{tag}.csv").exists()

    payload = json.loads((out / "anticorr_uc0p3.json").read_text())
    assert payload["u_c"] == 0.3
    assert payload["trials"] == 150
    assert payload["include_market_mode"] is True
    assert payload["config"]["command"] == "anticorr"
    scanned = [m["mode"] for m in payload["modes"]]
    skipped = [s["mode"] for s in payload["skipped"]]
    assert sorted(scanned + skipped) == list(range(12))
    assert all("empty" in s["reason"] for s in payload["skipped"])

    scan_lines = (out / "anticorr_scan_uc0p3.csv").read_text().splitlines()
    assert scan_lines[0] == "mode,c_raw,c_pearson,baseline_mean,baseline_std"
    assert len(scan_lines) == len(scanned) + 1
    block_lines = (out / "block_averages_uc0p3.csv").read_text().splitlines()
    assert block_lines[0] == "u_c,mode,n_positive,n_negative,within_positive,within_negative,between"
    assert len(block_lines) == len(scanned) + 1

    zero = json.loads((out / "anticorr_uc0.json").read_text())
    assert zero["u_c"] == 0.0
    # every mode splits at u_c = 0 on a noisy panel
    assert [m["mode"] for m in zero["modes"]] == list(range(12))


@pytest.mark.parametrize(
    ("flags", "tags"),
    [
        (["--u-c", "0", "--u-c-zero-scan"], ["0"]),
        (["--u-c", "-0"], ["0"]),
        (["--u-c", "-0", "--u-c-zero-scan"], ["0"]),
        (["--u-c", "0.3", "--u-c", "0.4", "--u-c", "0.3"], ["0.3", "0.4"]),
    ],
    ids=["zero_scan_of_zero", "negative_zero", "zero_scan_of_negative_zero", "repeated"],
)
def test_anticorr_scans_each_distinct_threshold_once(market_dir, tmp_path, capsys, flags, tags):
    rc = main(["anticorr", "--input", str(market_dir / "panel.csv"), "--format", "wide",
               *flags, "--trials", "100", "--out-dir", str(tmp_path)])
    assert rc == 0
    scans = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()[:-1]]
    assert scans == [f"anticorr u_c={tag}" for tag in tags]
    files = sorted(path.name for path in tmp_path.glob("anticorr_uc*.json"))
    assert files == sorted(f"anticorr_uc{tag.replace('.', 'p')}.json" for tag in tags)


@pytest.mark.parametrize(("flags", "tag"), [(["--u-c", "0.3"], "uc0p3"), ([], "uc0p1")], ids=["0.3", "default"])
def test_anticorr_skips_a_mode_with_undefined_pearson(tmp_path, capsys, flags, tag):
    def reject(token):
        raise AssertionError(f"{token} in {path}")

    cfg = tmp_path / "market.json"
    cfg.write_text(json.dumps(DEGENERATE_CONFIG))
    assert main(["synth", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
    out = tmp_path / "scan"
    rc = main(["anticorr", "--input", str(tmp_path / "panel.csv"), "--format", "wide", *flags,
               "--trials", "100", "--out-dir", str(out)])
    assert rc == 0
    report = json.loads((out / f"anticorr_{tag}.json").read_text())
    assert 1 not in [m["mode"] for m in report["modes"]]
    reason = {s["mode"]: s["reason"] for s in report["skipped"]}[1]
    assert re.fullmatch(rf"undefined Pearson correlation \(\d+ of 100 baseline trials\) at u_c={tag[2:].replace('p', '.')}", reason)
    for path in out.iterdir():
        if path.suffix == ".json":
            json.loads(path.read_text(), parse_constant=reject)
        else:
            assert "nan" not in path.read_text().lower(), path


def test_anticorr_out_of_memory_exits_3(market_dir, tmp_path, capsys):
    # numpy refuses a (10**15, N) baseline array at once: it exceeds the address space
    rc = main(["anticorr", "--input", str(market_dir / "panel.csv"), "--format", "wide",
               "--u-c", "0.3", "--trials", str(10**15), "--out-dir", str(tmp_path)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate") and err.count("\n") == 1


def test_anticorr_trials_beyond_any_array_exit_3(market_dir, tmp_path, capsys):
    # numpy cannot even describe a (10**20,) array; that too is out of memory
    rc = main(["anticorr", "--input", str(market_dir / "panel.csv"), "--format", "wide",
               "--u-c", "0.3", "--trials", str(10**20), "--out-dir", str(tmp_path)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err == "error: 100000000000000000000 baseline trials do not fit in memory\n"


def test_anticorr_report_json_is_report_to_dict(market_dir, tmp_path, capsys):
    args = ["--input", str(market_dir / "panel.csv"), "--format", "wide"]
    args += ["--out-dir", str(tmp_path)]
    assert main(["analyze", *args]) == 0
    assert main(["anticorr", *args, "--u-c", "0.3", "--trials", "150"]) == 0
    capsys.readouterr()
    c = load_matrix(tmp_path / "corr_matrix.csv")  # '%.17g' round-trips C exactly
    report = mode_scan(c, eigendecompose(c), 0.3, trials=150, seed=0)
    payload = _without_config(tmp_path / "anticorr_uc0p3.json")
    assert json.dumps(payload, sort_keys=True) == json.dumps(report_to_dict(report), sort_keys=True)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_anticorr_default_threshold_tag(market_dir, tmp_path, capsys):
    out = tmp_path / "scan"
    rc = main(
        ["anticorr", "--input", str(market_dir / "panel.csv"), "--format", "wide",
         "--trials", "150", "--out-dir", str(out)]
    )
    assert rc == 0
    capsys.readouterr()
    assert (out / "anticorr_uc0p1.json").exists()
    assert (out / "anticorr_scan_uc0p1.csv").exists()


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_anticorr_rejects_small_trials(market_dir, tmp_path, capsys):
    rc = main(
        ["anticorr", "--input", str(market_dir / "panel.csv"), "--format", "wide",
         "--trials", "50", "--out-dir", str(tmp_path)]
    )
    assert rc == 1
    assert "trials" in capsys.readouterr().err


# ------------------------------------------------------------- option table

# Each stage's options as (dest, type, default, choices, required, action).
# Options shared by several stages are declared once in build_parser; this
# table pins that the grouping adds, drops or changes none of them.
OPTION_TABLE = {
    "analyze": {
        "--input": ("input", None, None, None, True, "_StoreAction"),
        "--format": ("format", None, "long", ("long", "wide"), False, "_StoreAction"),
        "--delta-t": ("delta_t", int, 1, None, False, "_StoreAction"),
        "--drop-zero-variance": ("drop_zero_variance", None, False, None, False, "_StoreTrueAction"),
        "--margin": ("margin", float, 1.0, None, False, "_StoreAction"),
        "--out-dir": ("out_dir", None, "out", None, False, "_StoreAction"),
    },
    "sectors": {
        "--input": ("input", None, None, None, False, "_StoreAction"),
        "--format": ("format", None, "long", ("long", "wide"), False, "_StoreAction"),
        "--delta-t": ("delta_t", int, 1, None, False, "_StoreAction"),
        "--drop-zero-variance": ("drop_zero_variance", None, False, None, False, "_StoreTrueAction"),
        "--matrix": ("matrix", None, None, None, False, "_StoreAction"),
        "--u-c": ("u_c", float, None, None, False, "_AppendAction"),
        "--margin": ("margin", float, 1.0, None, False, "_StoreAction"),
        "--metadata": ("metadata", None, None, None, False, "_StoreAction"),
        "--include-market-mode": ("include_market_mode", None, False, None, False, "_StoreTrueAction"),
        "--out-dir": ("out_dir", None, "out", None, False, "_StoreAction"),
    },
    "anticorr": {
        "--input": ("input", None, None, None, False, "_StoreAction"),
        "--format": ("format", None, "long", ("long", "wide"), False, "_StoreAction"),
        "--delta-t": ("delta_t", int, 1, None, False, "_StoreAction"),
        "--drop-zero-variance": ("drop_zero_variance", None, False, None, False, "_StoreTrueAction"),
        "--matrix": ("matrix", None, None, None, False, "_StoreAction"),
        "--u-c": ("u_c", float, None, None, False, "_AppendAction"),
        "--u-c-zero-scan": ("u_c_zero_scan", None, False, None, False, "_StoreTrueAction"),
        "--trials": ("trials", int, 1000, None, False, "_StoreAction"),
        "--seed": ("seed", int, 0, None, False, "_StoreAction"),
        "--include-market-mode": ("include_market_mode", None, False, None, False, "_StoreTrueAction"),
        "--out-dir": ("out_dir", None, "out", None, False, "_StoreAction"),
    },
    "synth": {
        "--config": ("config", None, None, None, True, "_StoreAction"),
        "--seed": ("seed", int, None, None, False, "_StoreAction"),
        "--out-dir": ("out_dir", None, "out", None, False, "_StoreAction"),
    },
}


def test_option_table_is_pinned():
    (stages,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    table = {
        name: {
            flag: (a.dest, a.type, a.default, a.choices, a.required, type(a).__name__)
            for a in stage._actions
            if not isinstance(a, argparse._HelpAction)
            for flag in a.option_strings
        }
        for name, stage in stages.choices.items()
    }
    assert table == OPTION_TABLE


# --------------------------------------------------------------- config echo

PANEL_KEYS = {"command", "input", "format", "delta_t", "drop_zero_variance", "out_dir"}


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize(
    ("stage", "flags", "report", "keys"),
    [
        ("analyze", ["--format", "wide"], "analysis_report.json", PANEL_KEYS | {"margin"}),
        (
            "sectors",
            ["--format", "wide"],
            "sectors.json",
            PANEL_KEYS | {"matrix", "u_c", "margin", "metadata", "include_market_mode"},
        ),
        (
            "anticorr",
            ["--format", "wide", "--trials", "100"],
            "anticorr_uc0p1.json",
            PANEL_KEYS | {"matrix", "u_c", "u_c_zero_scan", "trials", "seed", "include_market_mode"},
        ),
        ("synth", [], "synth_report.json", {"command", "config", "seed", "out_dir"}),
    ],
    ids=["analyze", "sectors", "anticorr", "synth"],
)
def test_config_echo_names_every_option(market_dir, tmp_path, capsys, stage, flags, report, keys):
    source = ["--config", str(market_dir / "config.json")] if stage == "synth" else [
        "--input", str(market_dir / "panel.csv")]
    assert main([stage, *source, *flags, "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    config = json.loads((tmp_path / report).read_text())["config"]
    assert set(config) == keys
    assert config["command"] == stage


ASCII_LOCALE = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
UNICODE_NAMES = ["Zürich", "Σ1", "Ωmega", "café, bar", "B", "C", "D", "E"]


def _cli(argv, cwd, env, code=0):
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-m", "eigensectors.cli", *argv],
        cwd=cwd, env={**env, "PYTHONPATH": str(src)}, capture_output=True, timeout=120,
    )
    assert done.returncode == code, done.stderr.decode(errors="replace")
    assert b"Traceback" not in done.stderr
    return done


def test_module_entry_point_prints_help(tmp_path):
    """python -m eigensectors.cli runs main through the module's __main__ guard."""
    done = _cli(["--help"], tmp_path, dict(os.environ))
    assert done.stdout.decode().startswith("usage: eigensectors ")
    assert all(stage in done.stdout.decode() for stage in ("analyze", "sectors", "anticorr", "synth"))


def test_clean_price_stages_and_synth_leave_numpy_ma_and_char_unloaded(market_dir, tmp_path):
    """A fresh process that runs analyze and sectors on a clean wide panel, then synth,
    loads neither numpy.ma (numpy >= 2 loads it inside np.unique) nor numpy.char beyond
    what `import numpy` loads itself (numpy 1.x loads both there)."""
    panel = ["--input", str(market_dir / "panel.csv"), "--format", "wide"]
    stages = [
        ["analyze", *panel, "--out-dir", "analyze"],
        ["sectors", *panel, "--out-dir", "sectors"],
        ["synth", "--config", str(market_dir / "config.json"), "--out-dir", "synth"],
    ]
    script = (
        "import json, sys\n"
        "import numpy\n"
        "before = set(sys.modules)\n"
        "from eigensectors.cli import main\n"
        "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print('exit codes', *codes, 'loaded', *sorted({'numpy.ma', 'numpy.char'} & set(sys.modules) - before))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c", script, json.dumps(stages)],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr.decode(errors="replace")
    assert done.stdout.decode().splitlines()[-1] == "exit codes 0 0 0 loaded"


BLAS_ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def test_analyze_and_anticorr_repeat_their_bytes_at_one_blas_thread(market_dir, tmp_path):
    """README's contract: at a fixed BLAS thread count, a rerun writes the same bytes."""
    env = {**os.environ, **BLAS_ONE_THREAD}
    runs = []
    for name in ("first", "second"):
        root = tmp_path / name
        root.mkdir()
        shutil.copy(market_dir / "panel.csv", root)
        analyze = _cli(["analyze", "--input", "panel.csv", "--format", "wide", "--out-dir", "analyze"], root, env)
        scan = ["--u-c", "0.3", "--u-c-zero-scan", "--trials", "100"]
        anticorr = _cli(["anticorr", "--matrix", "analyze/corr_matrix.csv", *scan, "--out-dir", "anticorr"], root, env)
        files = {path.relative_to(root): path.read_bytes() for path in root.rglob("*") if path.is_file()}
        runs.append((files, analyze.stdout, analyze.stderr, anticorr.stdout, anticorr.stderr))
    assert len(runs[0][0]) > 6  # the panel, analyze's artifacts and the scan's
    assert runs[0] == runs[1]


def test_artifacts_are_utf8_under_an_ascii_locale(tmp_path):
    """Every stage reads and writes UTF-8, so an ASCII locale changes no byte of any artifact."""
    config = {**MARKET_CONFIG, "n_assets": 8, "blocks": [
        {"assets": [0, 1, 2], "loading": 2.0, "sign_pattern": [1, 1, -1], "name": "Zürich"},
        {"assets": [3, 4, 5], "loading": 2.0, "sign_pattern": [1, -1, 1], "name": "Σ1"},
    ]}
    runs = {"default": tmp_path / "default", "ascii": tmp_path / "ascii"}
    for name, root in runs.items():
        root.mkdir()
        (root / "market.json").write_text(json.dumps(config, ensure_ascii=False), encoding="utf-8")
        env = {**os.environ, **ASCII_LOCALE} if name == "ascii" else dict(os.environ)
        _cli(["synth", "--config", "market.json", "--out-dir", "synth"], root, env)
        if name == "default":
            synthetic = load_prices(root / "synth" / "panel.csv", fmt="wide")
            write_panel_wide(PricePanel(UNICODE_NAMES, synthetic.dates, synthetic.prices), tmp_path / "prices.csv")
            with (tmp_path / "meta.csv").open("w", newline="", encoding="utf-8") as out:
                csv.writer(out).writerows([("asset", "category"), *zip(UNICODE_NAMES, ["Zürich", "Σ1"] * 4)])
        shutil.copy(tmp_path / "prices.csv", root)
        shutil.copy(tmp_path / "meta.csv", root)
        matrix = ["--matrix", "analyze/corr_matrix.csv"]
        _cli(["analyze", "--input", "prices.csv", "--format", "wide", "--out-dir", "analyze"], root, env)
        _cli(["sectors", *matrix, "--metadata", "meta.csv", "--u-c", "0.3", "--out-dir", "sectors"], root, env)
        _cli(["anticorr", *matrix, "--u-c", "0.3", "--trials", "100", "--out-dir", "anticorr"], root, env)
    files = sorted(p.relative_to(runs["default"]) for p in runs["default"].rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(runs["ascii"]) for p in runs["ascii"].rglob("*") if p.is_file())
    for path in files:
        assert (runs["default"] / path).read_bytes() == (runs["ascii"] / path).read_bytes(), path
    assert "Zürich" in (runs["ascii"] / "synth" / "metadata.csv").read_text(encoding="utf-8")
    header = (runs["ascii"] / "analyze" / "corr_matrix.csv").read_text(encoding="utf-8").splitlines()[0]
    assert "Σ1" in header and "Zürich" in header
    assert "Σ1" in (runs["ascii"] / "sectors" / "sectors.csv").read_text(encoding="utf-8")


def test_error_line_escapes_a_non_ascii_name_under_an_ascii_locale(tmp_path):
    """stderr takes the locale's encoding, where Python escapes what it cannot encode."""
    rows = "".join(f"2015-01-{5 + i:02d},{100 + i},7,{50 + i * i}\n" for i in range(6))
    (tmp_path / "prices.csv").write_text("date,AAA,Zürich,CCC\n" + rows, encoding="utf-8")
    argv = ["analyze", "--input", "prices.csv", "--format", "wide", "--out-dir", "out"]
    done = _cli(argv, tmp_path, {**os.environ, **ASCII_LOCALE}, code=2)
    assert done.stderr.decode("ascii").splitlines() == [
        "error: zero-variance return series for: Z\\xfcrich. "
        "Drop these assets (CLI: --drop-zero-variance) or fix the input."
    ]
