"""End-to-end command-line runs, in process, against synthetic panels."""

import json

import numpy as np
import pytest

from eigensectors import eigendecompose, load_matrix, mode_scan, mp_bounds, report_to_dict
from eigensectors.cli import main

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


NEGATIVE_SEED = "seed must be a non-negative integer, got -1"


@pytest.mark.parametrize(
    ("text", "flags", "message"),
    [
        ("{not json", [], "not valid JSON"),
        (json.dumps({**MARKET_CONFIG, "seed": "x"}), [], "bad market config value"),
        (json.dumps({**MARKET_CONFIG, "seed": -1}), [], NEGATIVE_SEED),
        (json.dumps(MARKET_CONFIG), ["--seed", "-1"], NEGATIVE_SEED),
    ],
    ids=["invalid_json", "bad_seed", "negative_config_seed", "negative_seed_flag"],
)
def test_synth_malformed_config_exits_1(tmp_path, capsys, text, flags, message):
    cfg = tmp_path / "config.json"
    cfg.write_text(text)
    assert main(["synth", "--config", str(cfg), *flags, "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1


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


def test_non_utf8_metadata_is_a_data_error(market_dir, tmp_path, capsys):
    meta = tmp_path / "meta.csv"
    meta.write_bytes(b"asset,category\nA000,Split\nA001,Spl\xe9t\n")
    rc = main(["sectors", "--input", str(market_dir / "panel.csv"), "--format", "wide",
               "--metadata", str(meta), "--u-c", "0.3", "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 3: not UTF-8") and err.count("\n") == 1
    assert "Traceback" not in err


def test_sectors_requires_a_source(tmp_path, capsys):
    rc = main(["sectors", "--out-dir", str(tmp_path)])
    assert rc == 1
    assert "--input or --matrix" in capsys.readouterr().err


def test_sectors_rejects_bad_threshold_ladder(market_dir, tmp_path, capsys):
    rc = main(
        ["sectors", "--input", str(market_dir / "panel.csv"), "--format", "wide",
         "--u-c", "0.3", "--u-c", "0.2", "--out-dir", str(tmp_path)]
    )
    assert rc == 1
    assert "ascending" in capsys.readouterr().err


# ------------------------------------------------------------------ anticorr


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
            PANEL_KEYS | {"u_c", "u_c_zero_scan", "trials", "seed", "include_market_mode"},
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
