"""vsakit: vector-symbolic architectures with capacity sizing and validation.

Five encodings of symbol sets as fixed-width vectors, each with the
estimators and decision thresholds its guarantees support:

- :mod:`vsakit.mapi`     sign-matrix sums; norm/dot/intersection estimators
- :mod:`vsakit.mapb`     thresholded sign bundles; membership decision tests
- :mod:`vsakit.bloom`    saturating sparse binary filters; h_{m,k} inversion
- :mod:`vsakit.cbloom`   counting filters; weighted-intersection estimator
- :mod:`vsakit.hopfield` associative recall and the Hopfield± matrix bundle

plus :mod:`vsakit.codebook` (seeded atomic vectors of three kinds: dense
signs, with-replacement sparse binary and exactly-k sparse binary columns),
:mod:`vsakit.setalg` (the exact oracle: intersection size, wedgedot and l1
distance), :mod:`vsakit.sizing` (dimension formulas and empirical
calibration) and :mod:`vsakit.harness` (seeded Monte Carlo experiments, CSV
output).
"""

from .codebook import Codebook
from .hypervector import rotate
from .rng import RNG_VERSION
from .setalg import (
    BindingBundleSpec,
    SequenceSpec,
    SymbolSet,
    intersection_size,
    l1_distance,
    wedgedot,
)
from .sizing import CONSTANTS, CalibrationResult, SizingResult, calibrate, size

__version__ = "0.1.0"

__all__ = [
    "BindingBundleSpec",
    "CONSTANTS",
    "CalibrationResult",
    "Codebook",
    "RNG_VERSION",
    "SequenceSpec",
    "SizingResult",
    "SymbolSet",
    "calibrate",
    "intersection_size",
    "l1_distance",
    "rotate",
    "size",
    "wedgedot",
    "__version__",
]
