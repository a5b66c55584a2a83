"""Fixed-point data of cyclic actions on closed non-orientable surfaces.

Signatures of non-euclidean crystallographic groups are parsed and
validated, smooth epimorphisms onto cyclic groups are checked and
enumerated, and the resulting actions are analyzed: isolated fixed points
of every power, ovals of the involution with their twist types, and the
Scherrer bound |F| + 2|V| <= p + 2.  A brute-force oracle recomputes every
count in the finite quotient without the gcd formulas.
"""

from .census import (
    enumerate_epimorphisms,
    enumerate_signatures,
    max_cyclic_order,
    run_census,
)
from .epimorphism import (
    CyclicEpimorphism,
    ValidationReport,
    format_map_text,
    image_order,
    parse_map_text,
    validate,
)
from .fixedpoints import (
    FixedPointReport,
    full_report,
    isolated_fixed_points,
)
from .oracle import (
    OracleTranscript,
    cross_check,
    exponents,
    involution_sweep,
    oval_classes_doublecoset,
)
from .signature import (
    NecSignature,
    ParseError,
    Sign,
    format_signature,
    kernel_genus,
    orbifold_measure,
    parse_signature,
)

__all__ = [
    "CyclicEpimorphism",
    "FixedPointReport",
    "NecSignature",
    "OracleTranscript",
    "ParseError",
    "Sign",
    "ValidationReport",
    "cross_check",
    "enumerate_epimorphisms",
    "enumerate_signatures",
    "exponents",
    "format_map_text",
    "format_signature",
    "full_report",
    "image_order",
    "involution_sweep",
    "isolated_fixed_points",
    "kernel_genus",
    "max_cyclic_order",
    "orbifold_measure",
    "oval_classes_doublecoset",
    "parse_map_text",
    "parse_signature",
    "run_census",
    "validate",
]
