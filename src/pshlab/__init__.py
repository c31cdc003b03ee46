"""Exact and numeric singularity analysis of weighted line arrangements in C^2.

The symbolic side computes multiplier ideals, singularity classes and the
monotonicity structure of the approximation sequence with exact rational
arithmetic; the numeric side rebuilds the same weights from orthonormal
bases of weighted Bergman spaces and cross-checks slopes and memberships.
"""

import importlib
import sys

from .arrangement import (
    ArrangementError,
    DuplicateLineError,
    Line,
    NegativeCoefficientError,
    WeightedArrangement,
    ZeroFormError,
    ZeroWeightError,
    lct,
    load_arrangement,
    new_arrangement,
    phi_value,
    preset,
    save_arrangement,
)
from .gaussian import GaussianRational
from .multiplier_ideal import (
    IdealDescriptor,
    contains,
    generator_strings,
    generators,
    ideal_of,
    is_trivial,
)
from .polynomials import BivariatePolynomial, ZeroPolynomialError
from .sequence import (
    MonotonicityReport,
    SequenceEntry,
    SubsequenceVerdict,
    VerificationReport,
    adjacent_violations,
    build_sequence,
    check_subsequence,
    entry,
    monotonicity_report,
    pattern_violations,
    verify_paper,
)
from .singularity import (
    ArrangementMismatchError,
    ComparisonResult,
    Relation,
    SingularityClass,
    boundedness_probe,
    class_of_ideal,
    class_of_weight,
    compare,
    lelong,
    more_singular_or_equal,
)

__version__ = "0.1.0"

# The numeric layer needs numpy, which costs more to import than the whole
# exact layer; its names are resolved on first access (PEP 562) so that
# exact-only users and CLI commands never load it.
_NUMERIC = {
    "GramResult": "bergman",
    "NonIntegrableExponentError": "bergman",
    "QuadratureSpec": "bergman",
    "admissible_basis": "bergman",
    "bergman_phi": "bergman",
    "curve_scan": "bergman",
    "diagonal_curve": "bergman",
    "gram_matrix": "bergman",
    "kernel_values": "bergman",
    "lelong_estimate": "bergman",
    "radial_factor": "bergman",
    "ray_curve": "bergman",
    "IntegrabilityVerdict": "integrability",
    "integrability_estimate": "integrability",
}


def __getattr__(name: str):
    if name in ("bergman", "integrability"):
        return importlib.import_module(f".{name}", __name__)
    if name not in _NUMERIC:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Not cached here: the submodule's own binding stays the one source,
    # so anything that rebinds it (a monkeypatch, a tracer) is seen.  Only
    # the first access imports; later ones look the submodule up.
    module = f"{__name__}.{_NUMERIC[name]}"
    return getattr(sys.modules.get(module) or importlib.import_module(module),
                   name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_NUMERIC))


# the public names: those bound above and the lazy numeric ones
__all__ = sorted([name for name, value in globals().items()
                  if not name.startswith("_")
                  and not isinstance(value, type(importlib))] + [*_NUMERIC])
