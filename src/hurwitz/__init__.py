"""Exact arithmetic for double Hurwitz numbers of four flavours (simple,
monotone, strictly monotone, triply mixed), computed three independent ways:
direct enumeration of transposition tuples, character/content sums, and
commutation-pattern expansion of operator correlators.  Plus the piecewise
polynomial structure: chambers, walls, chamber polynomials, wall crossing.
"""

from .algebra import (
    ExponentOverflow,
    MultiPoly,
    NotDivisible,
    PolyRing,
    Space,
    TruncSeries,
    bernoulli,
    s_inverse_of,
    s_of,
    s_power_series,
    s_ratio_of,
)
from .charactereval import (
    hurwitz_connected_simple,
    hurwitz_disconnected,
    tau_coefficient,
    tau_dictionary_value,
)
from .oracle import (
    BoundExceeded,
    FactorizationCount,
    FactorizationSpec,
    MAX_DEGREE,
    count_factorizations,
)
from .partitions import Signature, SizeMismatch, character, partitions, compositions
from .wallcross import (
    InvalidSplit,
    WallCrossingProblem,
    refined_series,
    verify_wallcrossing,
    wallcrossing_polynomial,
)
from .wedge import (
    ArityMismatch,
    Chamber,
    DegenerateSignature,
    OnWall,
    SigmaProduct,
    Wall,
    ZeroEnergyIntermediate,
    chamber_of,
    chamber_polynomial,
    commutation_patterns,
    evaluate,
    johnson_expand,
    standard_word,
    walls,
)

__version__ = "0.1.0"

__all__ = [
    "ArityMismatch",
    "BoundExceeded",
    "Chamber",
    "DegenerateSignature",
    "ExponentOverflow",
    "FactorizationCount",
    "FactorizationSpec",
    "InvalidSplit",
    "MAX_DEGREE",
    "MultiPoly",
    "NotDivisible",
    "OnWall",
    "PolyRing",
    "SigmaProduct",
    "Signature",
    "SizeMismatch",
    "Space",
    "TruncSeries",
    "Wall",
    "WallCrossingProblem",
    "ZeroEnergyIntermediate",
    "bernoulli",
    "chamber_of",
    "chamber_polynomial",
    "character",
    "commutation_patterns",
    "compositions",
    "count_factorizations",
    "evaluate",
    "hurwitz_connected_simple",
    "hurwitz_disconnected",
    "johnson_expand",
    "partitions",
    "refined_series",
    "s_inverse_of",
    "s_of",
    "s_power_series",
    "s_ratio_of",
    "standard_word",
    "tau_coefficient",
    "tau_dictionary_value",
    "verify_wallcrossing",
    "wallcrossing_polynomial",
    "walls",
]
