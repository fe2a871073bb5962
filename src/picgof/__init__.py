"""Goodness-of-fit tests for uniformity under progressive Type-I interval censoring.

The pipeline: a :class:`CensoringScheme` fixes inspection times and
withdrawal percentages; a :class:`CensoredSample` holds observed failure and
removal counts; :func:`survival_values` turns counts into survival
estimates, :func:`deviations` compares them to a hypothesized model, and
:func:`compute_statistics` condenses the gap into six statistics whose null
distributions are simulated by :func:`critical_values` / :func:`p_value`.
Arbitrary continuous nulls reduce to the uniform case through
:func:`transform_scheme` / :func:`test_general`.
"""

import os as _os
import sys as _sys

# picgof makes no BLAS call, yet numpy's OpenBLAS thread pool costs each process about 75 ms
# of CPU at import: cap it at one thread unless the user set it or numpy is already loaded.
if "numpy" not in _sys.modules and not _os.environ.get("OPENBLAS_NUM_THREADS"):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .distributions import (
    DEFAULT_PARAMETER_GRIDS,
    UNIFORM,
    AlternativeFamily,
    TabulatedCdf,
    parse_family,
    test_general,
    transform_scheme,
)
from .errors import CensoringError, FamilySyntaxError
from .gof import STAT_NAMES, StatisticSet, compute_statistics, reject
from .montecarlo import (
    CriticalValueTable,
    critical_values,
    derive_stream,
    p_value,
    power,
    replicated_statistics,
)
from .reliability import deviations, survival_values
from .sampling import simulate_sample
from .schemes import (
    BUNDLED_SCHEME_NAMES,
    CensoredSample,
    CensoringScheme,
    load_scheme,
    sample_from_csv,
    sample_from_json,
    sample_to_csv,
    sample_to_json,
    scheme_id,
)

__version__ = "0.1.0"

__all__ = [
    "AlternativeFamily",
    "BUNDLED_SCHEME_NAMES",
    "CensoredSample",
    "CensoringError",
    "CensoringScheme",
    "CriticalValueTable",
    "DEFAULT_PARAMETER_GRIDS",
    "FamilySyntaxError",
    "STAT_NAMES",
    "StatisticSet",
    "TabulatedCdf",
    "UNIFORM",
    "compute_statistics",
    "critical_values",
    "derive_stream",
    "deviations",
    "load_scheme",
    "p_value",
    "parse_family",
    "power",
    "reject",
    "replicated_statistics",
    "sample_from_csv",
    "sample_from_json",
    "sample_to_csv",
    "sample_to_json",
    "scheme_id",
    "simulate_sample",
    "survival_values",
    "test_general",
    "transform_scheme",
]
