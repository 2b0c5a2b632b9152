"""Random-matrix analysis of financial cross-correlations.

The pipeline: load a price panel, take normalized log-returns, build the
equal-time correlation matrix, compare its spectrum against the pure-noise
eigenvalue band, split significant eigenvectors into sign-defined subsectors,
and measure the anti-correlation between the two sides of each split.
A synthetic market generator with planted block structure closes the loop
for end-to-end validation.
"""

from . import anticorr, corrmatrix, exceptions, rmt, sectors, synth, timeseries
from .anticorr import *
from .corrmatrix import *
from .exceptions import *
from .rmt import *
from .sectors import *
from .synth import *
from .timeseries import *

__version__ = "0.1.0"

__all__ = [name for m in (anticorr, corrmatrix, exceptions, rmt, sectors, synth, timeseries) for name in m.__all__]
