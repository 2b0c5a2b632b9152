"""Equal-time correlation matrices and their eigenmode decomposition."""

__all__ = [
    "CorrelationMatrix",
    "EigenSpectrum",
    "correlation_matrix",
    "eigendecompose",
    "load_matrix",
    "mean_offdiagonal",
    "save_matrix",
]

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .exceptions import ConfigurationError, NumericalError, ParseError, ValidationError
from .timeseries import NormalizedReturns, _read_bytes, _rows, _whole, _write_grid, _write_json

SYMMETRY_TOL = 1e-12
ENTRY_TOL = 1e-12
PSD_TOL = -1e-9
ORTHONORMALITY_TOL = 1e-10
RECONSTRUCTION_TOL = 1e-9


@dataclass
class CorrelationMatrix:
    """Symmetric N x N correlation matrix with its sample size T attached.

    The diagonal is set to exactly 1, entries lie in [-1, 1] (within fp
    tolerance), and the matrix is positive semi-definite up to -1e-9
    (checked when eigendecomposed).
    """

    assets: tuple[str, ...]
    values: np.ndarray
    n_observations: int

    def __post_init__(self):
        self.assets = tuple(self.assets)
        self.values = np.ascontiguousarray(self.values, dtype=float)
        n = len(self.assets)
        if len(set(self.assets)) != n:
            raise ValidationError("duplicate asset names in correlation matrix")
        if self.values.shape != (n, n):
            raise ValidationError(f"matrix shape {self.values.shape} != ({n}, {n})")
        if self.n_observations < 1:
            raise ValidationError("n_observations must be positive")
        if not np.isfinite(self.values).all():
            raise ValidationError("correlation matrix has non-finite entries")
        if not np.all(np.diag(self.values) == 1.0):
            raise ValidationError("correlation matrix diagonal must be exactly 1")
        asym = np.abs(self.values - self.values.T).max(initial=0.0)
        if asym > SYMMETRY_TOL:
            raise ValidationError(f"matrix asymmetry {asym:.3e} exceeds {SYMMETRY_TOL}")
        extreme = np.abs(self.values).max(initial=1.0)
        if extreme > 1.0 + ENTRY_TOL:
            raise ValidationError(f"entry magnitude {extreme!r} exceeds 1")

    @property
    def n_assets(self) -> int:
        return len(self.assets)


@dataclass
class EigenSpectrum:
    """Eigenvalues (descending) and orthonormal eigenvectors of a correlation matrix.

    Column alpha of ``eigenvectors`` belongs to ``eigenvalues[alpha]``. Each
    vector is sign-fixed so its largest-magnitude component is positive
    (ties broken toward the lowest asset index); exactly degenerate
    eigenvalues are ordered by that anchor index.
    """

    assets: tuple[str, ...]
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    n_observations: int

    def __post_init__(self):
        self.assets = tuple(self.assets)
        self.eigenvalues = np.asarray(self.eigenvalues, dtype=float)
        self.eigenvectors = np.asarray(self.eigenvectors, dtype=float)

    @property
    def n_assets(self) -> int:
        return len(self.assets)

    def vector(self, alpha: int) -> np.ndarray:
        """Eigenvector for mode alpha (0 = largest eigenvalue)."""
        n = self.n_assets
        if not 0 <= alpha < n:
            raise IndexError(f"mode {alpha} out of range 0..{n - 1}")
        return self.eigenvectors[:, alpha]

    def anchor_index(self, alpha: int) -> int:
        """Index of the component that fixes mode alpha's sign convention."""
        return int(np.argmax(np.abs(self.vector(alpha))))


def _correlation(assets, c: np.ndarray, n_observations: int) -> CorrelationMatrix:
    """The CorrelationMatrix of c made symmetric, with its diagonal set to exactly 1."""
    c = (c + c.T) / 2.0
    np.fill_diagonal(c, 1.0)
    return CorrelationMatrix(assets=assets, values=c, n_observations=n_observations)


def correlation_matrix(nr: NormalizedReturns) -> CorrelationMatrix:
    """C = (1/T) r r^T over normalized rows, symmetrized, unit diagonal set."""
    return _correlation(nr.assets, (nr.values @ nr.values.T) / nr.n_observations, nr.n_observations)


def _mean_offdiagonal(values: np.ndarray) -> float:
    """Average over the m(m-1) off-diagonal entries of an m x m block, m >= 2."""
    m = len(values)
    return float((values.sum() - np.trace(values)) / (m * (m - 1)))


def mean_offdiagonal(c: CorrelationMatrix) -> float:
    """Average correlation over the N(N-1) off-diagonal entries."""
    return _mean_offdiagonal(c.values)


def eigendecompose(c: CorrelationMatrix) -> EigenSpectrum:
    """Full symmetric eigendecomposition with deterministic ordering and signs.

    Raises NumericalError if the eigensolver fails or the matrix is not
    positive semi-definite beyond tolerance.
    """
    try:
        w, v = np.linalg.eigh(c.values)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"eigendecomposition failed: {exc} "
            f"(N={c.n_assets}, max|C|={np.abs(c.values).max():.3e})"
        ) from exc

    anchors = np.argmax(np.abs(v), axis=0)
    # primary: descending eigenvalue; exact ties: ascending anchor index
    order = np.lexsort((anchors, -w))
    w = w[order]
    v = v[:, order]
    anchors = anchors[order]

    signs = np.where(v[anchors, np.arange(v.shape[1])] < 0.0, -1.0, 1.0)
    v = v * signs

    if w[-1] < PSD_TOL:
        raise NumericalError(
            f"matrix is not positive semi-definite: smallest eigenvalue {w[-1]:.3e}"
        )
    n = c.n_assets
    gram_err = np.abs(v.T @ v - np.eye(n)).max()
    if gram_err > ORTHONORMALITY_TOL:
        raise NumericalError(f"eigenvector orthonormality error {gram_err:.3e}")
    recon_err = np.abs((v * w) @ v.T - c.values).max()
    if recon_err > RECONSTRUCTION_TOL:
        raise NumericalError(f"spectral reconstruction error {recon_err:.3e}")
    trace_err = abs(w.sum() - n)
    if trace_err > 1e-9 * max(1.0, n):
        raise NumericalError(f"trace not preserved: |sum(lambda) - N| = {trace_err:.3e}")

    return EigenSpectrum(
        assets=c.assets,
        eigenvalues=w,
        eigenvectors=v,
        n_observations=c.n_observations,
    )


def save_matrix(c: CorrelationMatrix, path) -> Path:
    """Write the matrix as a delimited grid plus a JSON sidecar.

    The grid file has an asset-header row and one row per asset in the same
    order; the sidecar (same stem, '.meta.json') records N and T. Floats are
    written with 17 significant digits so the round trip is exact.
    """
    path = Path(path)
    _write_grid(path, c.assets, c.values)
    sidecar = path.with_suffix(".meta.json")
    _write_json(sidecar, {"n_assets": c.n_assets, "n_observations": c.n_observations})
    return sidecar


def load_matrix(path) -> CorrelationMatrix:
    """Read a matrix written by save_matrix (grid + sidecar).

    The grid is read as UTF-8 like a price file; LF, CRLF and CR all end a line.
    The header is read as csv, so a quoted name may hold a comma or a line break.
    """
    path = Path(path)
    data = _read_bytes(path)
    if not data:
        raise ParseError("empty matrix file", 1)
    with _rows(data, ",") as reader:
        assets = tuple(s.strip() for s in next(reader))
    if not assets or "" in assets:
        raise ParseError("empty asset name in matrix header", 1)
    n = len(assets)
    rows = []
    lines = [line.decode() for line in data.splitlines()]
    for line_no, line in enumerate(lines[reader.line_num :], start=reader.line_num + 1):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != n:
            raise ParseError(f"expected {n} values, got {len(cells)}", line_no)
        try:
            if not line.isascii() or "_" in line:  # float() reads them, the grid writer writes neither
                bad = next(cell for cell in cells if not cell.isascii() or "_" in cell)
                raise ValueError(f"could not convert string to float: {bad!r}")
            rows.append(np.array(cells, dtype=float))  # else accepts and rejects what float() does
        except ValueError as exc:
            raise ParseError(str(exc), line_no) from None
    if len(rows) != n:
        raise ParseError(f"expected {n} matrix rows, got {len(rows)}", len(lines))
    sidecar = path.with_suffix(".meta.json")
    if not sidecar.exists():
        raise ValidationError(f"missing matrix sidecar {sidecar}")
    try:
        meta = json.loads(sidecar.read_text(encoding="utf-8"))
        n_observations = _whole(meta["n_observations"], "n_observations", None)
    except (ValueError, TypeError, KeyError, ConfigurationError) as exc:
        raise ValidationError(f"matrix sidecar {sidecar} lacks a valid n_observations: {exc!r}") from None
    try:
        if _whole(n_assets := meta.get("n_assets", n), "n_assets", None) != n:
            raise ValueError
    except (ValueError, ConfigurationError):
        raise ValidationError(f"matrix sidecar {sidecar} has n_assets {n_assets!r}; the header names {n}") from None
    return CorrelationMatrix(
        assets=assets,
        values=np.asarray(rows),
        n_observations=n_observations,
    )
