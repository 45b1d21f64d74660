"""Typed-graph double-pushout rewriting with effect-oriented rules."""

from types import ModuleType as _Module

__version__ = "0.1.0"

from .core import (
    DanglingViolation,
    Diagnostic,
    Edge,
    EdgeType,
    EffectGraphError,
    ElementSet,
    Morphism,
    TypeGraph,
    TypedGraph,
    check_morphism,
    find_injective_extensions,
    pushout_complement,
    validate_graph,
)
from .rules import (
    Nac,
    NacViolated,
    NotInjective,
    Rule,
    TransformationRecord,
    apply_rule,
    satisfies_nacs,
    shift_nacs,
)
from .effect import (
    EffectOrientedRule,
    InducedRule,
    InducedSelection,
    InvalidSelection,
    build_induced_rule,
    count_bounds,
    enumerate_selections,
    validate_selection,
)
from .matching import (
    InvalidPreMatch,
    MatchResult,
    MatchStats,
    PreMatch,
    find_all_locally_complete,
    find_base_prematches,
    find_globally_maximal,
    find_locally_complete,
    find_locally_maximal,
)
from .semantics import (
    AuditEntry,
    AuditFailure,
    AuditReport,
    EffectTransformation,
    StrategyArgumentMismatch,
    audit_effect,
    transform,
)
from .documents import (
    ParseError,
    TraceData,
    ValidationError,
    canonical_text,
    decode_audit_report,
    decode_graph,
    decode_match,
    decode_rule,
    decode_trace,
    decode_type_graph,
    encode_audit_report,
    encode_graph,
    encode_match,
    encode_rule,
    encode_trace,
    encode_type_graph,
    prematch_from_maps,
    rebuild_transformation,
)
from .fixtures import (
    bank_graph,
    banking_type_graph,
    builtin_type_graphs,
    client_match,
    ensure_account_rule,
    ensure_no_account_rule,
    fixture_path,
    fixture_text,
    shared_accounts_graph,
)

__all__ = [n for n in dir() if n[0] != "_" and not isinstance(globals()[n], _Module)]
