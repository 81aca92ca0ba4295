"""curvepi: finitely presented group toolkit and plane-curve complement
classifier for curves of degree at most five."""

from .words import Word
from .presentations import (
    Presentation,
    SubstitutionMap,
    substitute,
    format_presentation,
    format_word,
)
from .dsl import parse_presentation, parse_word, ParseError
from .abelian import (
    IntMatrix,
    InvariantFactors,
    abelian_invariants,
    curve_abelianization,
    smith_normal_form,
)
from .coset_table import (
    CosetTable,
    EnumStats,
    Overflow,
    todd_coxeter,
    validate_table,
)
from .schreier import subgroup_presentation, simplify
from .derive import ProofTrace, Inconclusive, derive_relator, replay_trace
from .homomorphisms import Verified, Refuted, check_homomorphism, verify_isomorphism
from .catalog import GroupTag, build, parse_tag
from .geometry import (
    CombinatorialType,
    Singularity,
    BlowUpLedger,
    blow_up,
    nori_check,
    validate_combinatorial_type,
)
from .classify import ClassificationEntry, NotCovered, canonical_key, classify, lookup_case
from .verify import run_suite, SuiteConfig

__version__ = "0.1.0"

__all__ = [
    "Word",
    "Presentation",
    "SubstitutionMap",
    "substitute",
    "format_presentation",
    "format_word",
    "parse_presentation",
    "parse_word",
    "ParseError",
    "IntMatrix",
    "InvariantFactors",
    "abelian_invariants",
    "curve_abelianization",
    "smith_normal_form",
    "CosetTable",
    "EnumStats",
    "Overflow",
    "todd_coxeter",
    "validate_table",
    "subgroup_presentation",
    "simplify",
    "ProofTrace",
    "Inconclusive",
    "derive_relator",
    "replay_trace",
    "Verified",
    "Refuted",
    "check_homomorphism",
    "verify_isomorphism",
    "GroupTag",
    "build",
    "parse_tag",
    "CombinatorialType",
    "Singularity",
    "BlowUpLedger",
    "blow_up",
    "nori_check",
    "validate_combinatorial_type",
    "ClassificationEntry",
    "NotCovered",
    "canonical_key",
    "classify",
    "lookup_case",
    "run_suite",
    "SuiteConfig",
    "__version__",
]
