"""Synthetic factor-model markets with planted sign-split correlation blocks.

Raw returns are built as

    x_i(t) = m * f_0(t) + s_i * g_b * f_b(t) [i in block b] + eps_i(t)

with independent standard-normal factors, planted signs s_i = +-1, and
iid noise of scale noise_std; rows are then standardized, so generate()
hands back a NormalizedReturns panel plus the planted ground truth. The
exact population correlation matrix is available analytically as an oracle.
"""

__all__ = [
    "BlockSpec",
    "GroundTruth",
    "MarketSpec",
    "generate",
    "load_market_spec",
    "metadata_from_truth",
    "population_correlation",
    "prices_from_returns",
    "write_panel_wide",
]

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .corrmatrix import CorrelationMatrix, _correlation
from .exceptions import ConfigurationError
from .timeseries import (
    NormalizedReturns, PricePanel, ReturnMatrix, _integer, _json_kind, _whole, _write_grid, normalize_returns,
)

# generate() dates its returns on the weekdays after Monday 2000-01-03; the calendar ends in 9999
MAX_OBSERVATIONS = int(np.busday_count("2000-01-04", "9999-12-31"))
# Largest market strength, noise scale or loading: the squares that standardize
# a row of MAX_OBSERVATIONS raw returns stay far from float overflow. The noise
# scale is at least 1 / MAX_SCALE, so the squares of pure noise do not underflow.
MAX_SCALE = 1e100


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
        object.__setattr__(self, "n_assets", _whole(self.n_assets, "n_assets", None))
        object.__setattr__(self, "n_observations", _whole(self.n_observations, "n_observations", None))
        if self.n_assets < 2:
            raise ConfigurationError("need at least 2 assets")
        if not 3 <= self.n_observations <= MAX_OBSERVATIONS:
            raise ConfigurationError(f"need 3 to {MAX_OBSERVATIONS} observations")
        if not 0 <= self.market_strength <= MAX_SCALE:  # NaN fails too
            raise ConfigurationError(f"market_strength must be >= 0 and <= {MAX_SCALE:g}")
        if not 1 / MAX_SCALE <= self.noise_std <= MAX_SCALE:
            raise ConfigurationError(f"noise_std must be >= {1 / MAX_SCALE:g} and <= {MAX_SCALE:g}")
        seen: set[int] = set()
        blocks = []
        for k, block in enumerate(self.blocks):
            if not 0 < block.loading <= MAX_SCALE:
                raise ConfigurationError(f"block {k}: loading must be > 0 and <= {MAX_SCALE:g}")
            if not block.assets:
                raise ConfigurationError(f"block {k}: empty asset set")
            assets = tuple(_whole(i, f"block {k}: asset index", 0) for i in block.assets)
            idx = set(assets)
            if len(idx) != len(assets):
                raise ConfigurationError(f"block {k}: repeated asset index")
            if max(idx) >= self.n_assets:
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
            blocks.append(replace(block, assets=assets))
        object.__setattr__(self, "blocks", tuple(blocks))


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


def generate(spec: MarketSpec, seed: int = 0) -> tuple[NormalizedReturns, GroundTruth]:
    """Draw one market. Deterministic per (spec, seed): SeedSequence(seed)
    spawns 2 + len(blocks) substreams consumed in a fixed order -- 0 the
    market factor, 1 the idiosyncratic noise, 2+k the factor of block k in
    declaration order. The layout is a stable contract so factor series can
    be reconstructed independently from the same seed."""
    seed = _whole(seed, "seed", 0)
    n, t = spec.n_assets, spec.n_observations
    streams = np.random.SeedSequence(seed).spawn(2 + len(spec.blocks))
    market_rng = np.random.default_rng(streams[0])
    noise_rng = np.random.default_rng(streams[1])

    try:
        raw = np.zeros((n, t))
    except ValueError:  # numpy cannot even describe a grid this large
        raise MemoryError(f"a {n} x {t} return grid does not fit in memory") from None
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

    dates = np.busday_offset("2000-01-04", np.arange(t)).tolist()  # the weekdays from Tuesday 2000-01-04
    nr = normalize_returns(ReturnMatrix(asset_names(n), dates, raw))
    return nr, GroundTruth(
        blocks=truth_blocks,
        market_strength=spec.market_strength,
        noise_std=spec.noise_std,
        seed=seed,
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
    return _correlation(asset_names(n), cov / np.outer(d, d), spec.n_observations)


def prices_from_returns(nr: NormalizedReturns) -> PricePanel:
    """Integrate normalized returns into a positive price panel.

    Log-prices step by 0.02 times each normalized return from a start price
    of 100. Round-trips: loading the panel and recomputing normalized
    log-returns at delta_t=1 reproduces ``nr.values`` up to float rounding,
    since normalization absorbs both the step scale and the start price.
    """
    log_prices = np.cumsum(0.02 * nr.values, axis=1)
    prices = 100.0 * np.exp(np.hstack([np.zeros((nr.n_assets, 1)), log_prices]))
    prev = np.busday_offset(nr.dates[0], -1, roll="forward").item()  # the latest weekday before it
    return PricePanel(
        assets=nr.assets,
        dates=(prev,) + nr.dates,
        prices=prices,
    )


def write_panel_wide(panel: PricePanel, path) -> None:
    """Export a panel in the wide delimited layout load_prices understands; NaN is an empty cell."""
    _write_grid(path, ("date", *panel.assets), panel.prices.T, [d.isoformat() for d in panel.dates])


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
                assets=tuple(_integer(i) for i in b["assets"]),
                loading=float(_json_kind(b["loading"], (int, float), "number")),
                sign_pattern=(
                    tuple(_integer(s) for s in b["sign_pattern"])
                    if b.get("sign_pattern") is not None
                    else None
                ),
                name=_json_kind(b.get("name", ""), str, "string"),
            )
            for b in cfg.get("blocks", ())
        )
        return MarketSpec(
            n_assets=_integer(cfg["n_assets"]),
            n_observations=_integer(cfg["n_observations"]),
            market_strength=float(_json_kind(cfg.get("market_strength", 0.0), (int, float), "number")),
            noise_std=float(_json_kind(cfg.get("noise_std", 1.0), (int, float), "number")),
            blocks=blocks,
        )
    except KeyError as exc:
        raise ConfigurationError(f"market config missing key: {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(f"bad market config value: {exc}") from None


def _finite(token: str) -> float:
    """A JSON number that is finite; NaN, Infinity and literals such as 1e400 are not."""
    value = float(token)
    if not math.isfinite(value):
        raise ConfigurationError(f"market config numbers must be finite, got {token}")
    return value


def load_market_spec(path) -> tuple[MarketSpec, int]:
    """Read a MarketSpec and its seed (default 0) from a JSON configuration file."""
    try:
        cfg = json.loads(Path(path).read_text(encoding="utf-8"), parse_float=_finite, parse_constant=_finite)
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise ConfigurationError(f"market config is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigurationError("market config must be a JSON object")
    try:
        seed = _integer(cfg.get("seed", 0))
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad market config value: {exc}") from None
    return spec_from_dict(cfg), seed
