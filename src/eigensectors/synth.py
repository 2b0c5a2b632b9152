"""Synthetic factor-model markets with planted sign-split correlation blocks.

Raw returns are built as

    x_i(t) = m * f_0(t) + s_i * g_b * f_b(t) [i in block b] + eps_i(t)

with independent standard-normal factors, planted signs s_i = +-1, and
iid noise of scale noise_std; rows are then standardized, so generate()
hands back a NormalizedReturns panel plus the planted ground truth. The
exact population correlation matrix is available analytically as an oracle.
"""

from __future__ import annotations

import datetime as dt
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corrmatrix import CorrelationMatrix
from .exceptions import ConfigurationError
from .timeseries import NormalizedReturns, PricePanel


@dataclass(frozen=True)
class BlockSpec:
    """One planted block: member indices, factor loading, optional sign split."""

    assets: tuple[int, ...]
    loading: float
    sign_pattern: tuple[int, ...] | None = None
    name: str = ""

    def signs(self) -> np.ndarray:
        if self.sign_pattern is None:
            return np.ones(len(self.assets))
        return np.asarray(self.sign_pattern, dtype=float)


@dataclass(frozen=True)
class MarketSpec:
    """Layout of a synthetic market. Block asset sets must be pairwise disjoint."""

    n_assets: int
    n_observations: int
    market_strength: float = 0.0
    noise_std: float = 1.0
    blocks: tuple[BlockSpec, ...] = ()

    def __post_init__(self):
        if self.n_assets < 2:
            raise ConfigurationError("need at least 2 assets")
        if self.n_observations < 3:
            raise ConfigurationError("need at least 3 observations")
        if self.market_strength < 0:
            raise ConfigurationError("market_strength must be >= 0")
        if self.noise_std <= 0:
            raise ConfigurationError("noise_std must be > 0")
        seen: set[int] = set()
        for k, block in enumerate(self.blocks):
            if block.loading <= 0:
                raise ConfigurationError(f"block {k}: loading must be > 0")
            if not block.assets:
                raise ConfigurationError(f"block {k}: empty asset set")
            idx = set(block.assets)
            if len(idx) != len(block.assets):
                raise ConfigurationError(f"block {k}: repeated asset index")
            if min(idx) < 0 or max(idx) >= self.n_assets:
                raise ConfigurationError(f"block {k}: asset index out of range")
            if idx & seen:
                raise ConfigurationError(
                    f"block {k} overlaps an earlier block: {sorted(idx & seen)}"
                )
            seen |= idx
            if block.sign_pattern is not None:
                if len(block.sign_pattern) != len(block.assets):
                    raise ConfigurationError(
                        f"block {k}: sign pattern length != member count"
                    )
                if any(s not in (-1, 1) for s in block.sign_pattern):
                    raise ConfigurationError(f"block {k}: signs must be +-1")


@dataclass
class PlantedBlock:
    """Ground-truth record of one generated block."""

    name: str
    assets: tuple[int, ...]
    positive: tuple[int, ...]
    negative: tuple[int, ...]
    loading: float


@dataclass
class GroundTruth:
    """What generate() planted, for recovery scoring."""

    blocks: list[PlantedBlock]
    market_strength: float
    noise_std: float
    seed: int


def asset_names(n: int) -> tuple[str, ...]:
    width = max(3, len(str(n - 1)))
    return tuple(f"A{i:0{width}d}" for i in range(n))


def _weekday_run(count: int, start: dt.date = dt.date(2000, 1, 3)) -> list[dt.date]:
    """Consecutive weekdays (Mon-Fri), starting at a Monday."""
    out = []
    d = start
    while len(out) < count:
        if d.weekday() < 5:
            out.append(d)
        d += dt.timedelta(days=1)
    return out


def generate(spec: MarketSpec, seed: int = 0) -> tuple[NormalizedReturns, GroundTruth]:
    """Draw one market. Deterministic per (spec, seed): SeedSequence(seed)
    spawns 2 + len(blocks) substreams consumed in a fixed order -- 0 the
    market factor, 1 the idiosyncratic noise, 2+k the factor of block k in
    declaration order. The layout is a stable contract so factor series can
    be reconstructed independently from the same seed."""
    if int(seed) != seed or seed < 0:
        raise ConfigurationError(f"seed must be a non-negative integer, got {seed!r}")
    n, t = spec.n_assets, spec.n_observations
    streams = np.random.SeedSequence(seed).spawn(2 + len(spec.blocks))
    market_rng = np.random.default_rng(streams[0])
    noise_rng = np.random.default_rng(streams[1])

    raw = np.zeros((n, t))
    if spec.market_strength > 0:
        raw += spec.market_strength * market_rng.standard_normal(t)[None, :]
    truth_blocks: list[PlantedBlock] = []
    for k, block in enumerate(spec.blocks):
        factor = np.random.default_rng(streams[2 + k]).standard_normal(t)
        signs = block.signs()
        idx = list(block.assets)
        raw[idx, :] += (signs * block.loading)[:, None] * factor[None, :]
        truth_blocks.append(
            PlantedBlock(
                name=block.name or f"BLK{k}",
                assets=tuple(block.assets),
                positive=tuple(a for a, s in zip(block.assets, signs) if s > 0),
                negative=tuple(a for a, s in zip(block.assets, signs) if s < 0),
                loading=block.loading,
            )
        )
    raw += spec.noise_std * noise_rng.standard_normal((n, t))

    values = (raw - raw.mean(axis=1)[:, None]) / raw.std(axis=1)[:, None]
    dates = tuple(_weekday_run(t + 1)[1:])
    nr = NormalizedReturns(assets=asset_names(n), dates=dates, values=values)
    return nr, GroundTruth(
        blocks=truth_blocks,
        market_strength=spec.market_strength,
        noise_std=spec.noise_std,
        seed=int(seed),
    )


def population_correlation(spec: MarketSpec) -> CorrelationMatrix:
    """Exact analytic correlation of the model (infinite-T limit).

    cov_ij = m^2 + s_i s_j g_b^2 [same block] + noise_std^2 delta_ij,
    scaled to unit diagonal. Returned as a CorrelationMatrix carrying the
    spec's nominal T so it can flow through the spectral pipeline.
    """
    n = spec.n_assets
    m2 = spec.market_strength**2
    cov = np.full((n, n), m2)
    for block in spec.blocks:
        signed = np.zeros(n)
        signed[list(block.assets)] = block.signs() * block.loading
        cov += np.outer(signed, signed)
    cov[np.diag_indices(n)] += spec.noise_std**2
    d = np.sqrt(np.diag(cov))
    corr = cov / np.outer(d, d)
    corr = (corr + corr.T) / 2.0
    np.fill_diagonal(corr, 1.0)
    return CorrelationMatrix(
        assets=asset_names(n),
        values=corr,
        n_observations=spec.n_observations,
    )


def prices_from_returns(
    nr: NormalizedReturns,
    scale: float = 0.02,
    initial_price: float = 100.0,
) -> PricePanel:
    """Integrate normalized returns into a positive price panel.

    Round-trips: loading the panel and recomputing normalized log-returns
    at delta_t=1 reproduces ``nr.values`` up to float rounding, since
    normalization absorbs both ``scale`` and ``initial_price``.
    """
    log_prices = np.cumsum(scale * nr.values, axis=1)
    prices = initial_price * np.exp(np.hstack([np.zeros((nr.n_assets, 1)), log_prices]))
    first = nr.dates[0]
    prev = first - dt.timedelta(days=1)
    while prev.weekday() >= 5:
        prev -= dt.timedelta(days=1)
    return PricePanel(
        assets=nr.assets,
        dates=(prev,) + nr.dates,
        prices=prices,
    )


def write_panel_wide(panel: PricePanel, path) -> None:
    """Export a panel in the wide delimited layout load_prices understands; NaN is an empty cell."""
    row = "%s" + ",%.17g" * panel.n_assets + "\n"
    body = "".join([row % (d.isoformat(), *p.tolist()) for d, p in zip(panel.dates, panel.prices.T)])
    with Path(path).open("w") as out:
        out.write("date," + ",".join(panel.assets) + "\n")
        out.write(body.replace(",nan", ","))  # dates are ISO and '%.17g' writes only NaN as 'nan'


def truth_to_dict(truth: GroundTruth, assets: tuple[str, ...]) -> dict:
    return {
        "seed": truth.seed,
        "market_strength": truth.market_strength,
        "noise_std": truth.noise_std,
        "blocks": [
            {
                "name": b.name,
                "assets": [assets[i] for i in b.assets],
                "positive": [assets[i] for i in b.positive],
                "negative": [assets[i] for i in b.negative],
                "loading": b.loading,
            }
            for b in truth.blocks
        ],
    }


def metadata_from_truth(truth: GroundTruth, assets: tuple[str, ...]) -> dict[str, str]:
    """Asset -> block-name mapping; assets outside every block stay uncovered."""
    out: dict[str, str] = {}
    for b in truth.blocks:
        for i in b.assets:
            out[assets[i]] = b.name
    return out


def spec_from_dict(cfg: dict) -> MarketSpec:
    """Build a MarketSpec from a parsed configuration document."""
    try:
        blocks = tuple(
            BlockSpec(
                assets=tuple(int(i) for i in b["assets"]),
                loading=float(b["loading"]),
                sign_pattern=(
                    tuple(int(s) for s in b["sign_pattern"])
                    if b.get("sign_pattern") is not None
                    else None
                ),
                name=str(b.get("name", "")),
            )
            for b in cfg.get("blocks", ())
        )
        return MarketSpec(
            n_assets=int(cfg["n_assets"]),
            n_observations=int(cfg["n_observations"]),
            market_strength=float(cfg.get("market_strength", 0.0)),
            noise_std=float(cfg.get("noise_std", 1.0)),
            blocks=blocks,
        )
    except KeyError as exc:
        raise ConfigurationError(f"market config missing key: {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad market config value: {exc}") from None


def load_market_spec(path) -> tuple[MarketSpec, int]:
    """Read a MarketSpec and its seed (default 0) from a JSON configuration file."""
    try:
        cfg = json.loads(Path(path).read_text())
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise ConfigurationError(f"market config is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigurationError("market config must be a JSON object")
    try:
        seed = int(cfg.get("seed", 0))
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad market config value: {exc}") from None
    return spec_from_dict(cfg), seed
