"""The package's public surface: each module's __all__, re-exported once by eigensectors."""

import importlib
import inspect
from pathlib import Path

import eigensectors

MODULES = ("anticorr", "corrmatrix", "exceptions", "rmt", "sectors", "synth", "timeseries")

PUBLIC = {
    "AnticorrReport", "BaselineStats", "BlockAverages", "BlockSpec", "ConfigurationError",
    "CorrelationMatrix", "DEFAULT_STOCK_THRESHOLDS", "DataError", "DomainError", "EigenSpectrum",
    "EigensectorsError", "GroundTruth", "InsufficientDataError", "LabelReport", "MarketSpec",
    "ModeScanRow", "NormalizedReturns", "NumericalError", "ParseError", "PricePanel",
    "ReturnMatrix", "SectorRow", "ShiftRule", "SignificantSet", "SkippedMode",
    "SubsectorPartition", "ValidationError", "WishartLaw", "ZeroVarianceError", "align_calendar",
    "block_averages", "correlation_matrix", "drop_assets", "eigendecompose", "forward_fill",
    "generate", "is_single_signed", "label_subsector", "load_market_spec", "load_matrix",
    "load_metadata", "load_prices", "log_returns", "mean_offdiagonal", "metadata_from_truth",
    "mode_scan", "mp_bounds", "mp_cdf", "mp_density", "normalize_returns",
    "prices_from_returns", "random_baseline", "report_to_dict", "save_matrix",
    "sector_table", "select_components", "significant_eigenvalues", "trim_to_common_range", "write_panel_wide",
    "write_scan_delimited",
}


def _modules():
    return [importlib.import_module(f"eigensectors.{name}") for name in MODULES]


def test_package_exports_exactly_the_public_names():
    assert len(eigensectors.__all__) == len(PUBLIC)
    assert set(eigensectors.__all__) == PUBLIC
    namespace: dict = {}
    exec("from eigensectors import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == PUBLIC


def test_each_name_is_its_modules_object():
    for module in _modules():
        for name in module.__all__:
            assert getattr(eigensectors, name) is getattr(module, name), (module.__name__, name)


def test_each_module_lists_only_its_own_names_and_no_name_twice():
    seen: dict[str, str] = {}
    for module in _modules():
        for name in module.__all__:
            assert name not in seen, (name, seen.get(name), module.__name__)
            seen[name] = module.__name__
            value = getattr(module, name)
            if inspect.isclass(value) or inspect.isfunction(value):
                assert value.__module__ == module.__name__, (module.__name__, name)
            else:  # a constant: bound by an assignment in the module itself
                assert f"\n{name} = " in Path(module.__file__).read_text(encoding="utf-8"), (module.__name__, name)
