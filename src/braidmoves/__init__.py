"""Exact braid-group representations over Z[q^±1, t^±1], the intersection
pairing on homology of the punctured plane, and pairing-vanishing
certificates for reducing and exchange moves on closed braids.

All arithmetic is exact; there is no floating point anywhere.
"""

from .detect import (
    EXCHANGE,
    REDUCE_NEGATIVE,
    REDUCE_POSITIVE,
    DetectionResult,
    InvariantViolation,
    SimpleClass,
    SpecialFormReport,
    braid_words,
    detect_exchange,
    detect_reducing,
    enumerate_simple,
    exchange_certificates,
    find_joint_braid,
    reducing_certificates,
    rewrite_exchange,
    special_form_tests,
)
from .homology import (
    GroupRingElement,
    HomologyClassX,
    HomologyClassY,
    ProvenanceError,
    fox_x,
    fox_y,
    left_action,
    left_action_y,
    star_x_components,
    star_x_to_y,
    star_y_to_x,
)
from .krammer import BlockMatrix, entry, is_identity, tau_plus, tau_plus_generator
from .laurent import ONE, Q, T, ZERO, LaurentPoly
from .magnus import (
    MagnusElement,
    burau_block,
    deg,
    rho_sigma,
    rho_x,
    tau,
    unreduced_burau,
)
from .pairing import PairingValue, pair, t_element, x_prefix
from .words import (
    BraidWord,
    FreeWord,
    WordError,
    y_basis_word,
)

__version__ = "0.1.0"

__all__ = [
    "BlockMatrix",
    "BraidWord",
    "DetectionResult",
    "EXCHANGE",
    "FreeWord",
    "GroupRingElement",
    "HomologyClassX",
    "HomologyClassY",
    "InvariantViolation",
    "LaurentPoly",
    "MagnusElement",
    "ONE",
    "PairingValue",
    "ProvenanceError",
    "Q",
    "REDUCE_NEGATIVE",
    "REDUCE_POSITIVE",
    "SimpleClass",
    "SpecialFormReport",
    "T",
    "WordError",
    "ZERO",
    "braid_words",
    "burau_block",
    "deg",
    "detect_exchange",
    "detect_reducing",
    "entry",
    "enumerate_simple",
    "exchange_certificates",
    "find_joint_braid",
    "reducing_certificates",
    "fox_x",
    "fox_y",
    "is_identity",
    "left_action",
    "left_action_y",
    "pair",
    "rewrite_exchange",
    "rho_sigma",
    "rho_x",
    "special_form_tests",
    "star_x_components",
    "star_x_to_y",
    "star_y_to_x",
    "t_element",
    "tau",
    "tau_plus",
    "tau_plus_generator",
    "unreduced_burau",
    "x_prefix",
    "y_basis_word",
]
