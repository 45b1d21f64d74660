"""Applying effect-oriented rules and auditing the outcome.

:func:`transform` picks a match according to a strategy (locally complete
for a given pre-match, locally maximal for a given pre-match, or globally
maximal over the whole host) and applies the chosen induced rule.

:func:`audit_effect` re-examines a finished transformation: every potential
deletion that was skipped must be justified by the shape of the output
(either the element was acted on after all, or every way of extending the
interface embedding onto it lands on reused structure), and every performed
potential creation must be justified by the shape of the input (every way
of extending the interface embedding onto it collides with the match, or no
such extension exists).  A violation means the transformation was not as
effective as claimed and raises :class:`AuditFailure`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import EffectGraphError, Morphism, TypedGraph, find_injective_extensions
from .effect import EffectOrientedRule, InducedSelection
from .matching import (
    MatchResult,
    PreMatch,
    _largest_leaves,
    _least_built,
    find_base_prematches,
    find_locally_complete,
    validate_prematch,
)
from .rules import TransformationRecord, apply_rule

LOCALLY_COMPLETE = "locally_complete"
LOCALLY_MAXIMAL = "locally_maximal"
GLOBALLY_MAXIMAL = "globally_maximal"
STRATEGIES = (LOCALLY_COMPLETE, LOCALLY_MAXIMAL, GLOBALLY_MAXIMAL)


class StrategyArgumentMismatch(EffectGraphError):
    """A pre-match was required but missing, or given but not accepted."""


class AuditFailure(EffectGraphError):
    """An audit clause failed for the named element."""

    def __init__(self, element: str, message: str) -> None:
        super().__init__(f"audit failed for {element!r}: {message}")
        self.element = element


@dataclass(frozen=True)
class EffectTransformation:
    """A transformation obtained by one of the matching strategies."""

    eor: EffectOrientedRule
    strategy: str
    result: TransformationRecord
    selection: InducedSelection
    base_prematch: PreMatch


@dataclass(frozen=True)
class AuditEntry:
    kind: str  # "deletion" or "creation"
    element: str
    clause: str
    witness: tuple[tuple[str, str], ...] | None = None


@dataclass(frozen=True)
class AuditReport:
    entries: tuple[AuditEntry, ...]


def _from_match_result(
    eor: EffectOrientedRule, strategy: str, mr: MatchResult, host: TypedGraph
) -> EffectTransformation:
    record = apply_rule(mr.induced.rule, host, mr.match)
    return EffectTransformation(
        eor=eor,
        strategy=strategy,
        result=record,
        selection=mr.induced.selection,
        base_prematch=mr.base_prematch,
    )


def transform(
    eor: EffectOrientedRule,
    host: TypedGraph,
    strategy: str,
    pm: PreMatch | None = None,
) -> EffectTransformation | None:
    """Apply ``eor`` under ``strategy``; ``None`` when no match exists.

    The two local strategies require a pre-match; the global strategy
    refuses one.  Ties under the maximal strategies are broken by the
    deterministic result order."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    if strategy == GLOBALLY_MAXIMAL:
        if pm is not None:
            raise StrategyArgumentMismatch(
                "the globally maximal strategy searches all pre-matches itself"
            )
        pms = find_base_prematches(eor, host)
        mr = _least_built(eor, host, _largest_leaves(eor, host, pms, None))
    elif pm is None:
        raise StrategyArgumentMismatch(f"strategy {strategy!r} needs a pre-match")
    elif strategy == LOCALLY_COMPLETE:
        mr = find_locally_complete(eor, host, pm)
    else:
        validate_prematch(eor, host, pm)
        mr = _least_built(eor, host, _largest_leaves(eor, host, [pm], None))
    return None if mr is None else _from_match_result(eor, strategy, mr, host)


def _interface_plus_element(
    interface: TypedGraph, source: TypedGraph, element: str
) -> TypedGraph | None:
    """The interface extended by one source element, or ``None`` when an
    edge's endpoints are not all interface nodes."""
    if element in source.nodes:
        return interface.with_elements(nodes={element: source.nodes[element]})
    edge = source.edges[element]
    if edge.src not in interface.nodes or edge.tgt not in interface.nodes:
        return None
    return interface.with_elements(edges={element: edge})


def _image_of(m: Morphism, element: str) -> str:
    if element in m.node_map:
        return m.node_map[element]
    return m.edge_map[element]


def _witness(ext: Morphism, base_keys: tuple[set[str], set[str]]) -> tuple:
    pairs = [
        (k, v) for k, v in ext.node_map.items() if k not in base_keys[0]
    ] + [(k, v) for k, v in ext.edge_map.items() if k not in base_keys[1]]
    return tuple(sorted(pairs))


def audit_effect(t: EffectTransformation) -> AuditReport:
    """Check both outcome guarantees of a finished transformation.

    Skipped potential deletions are checked against the output through the
    comatch; performed potential creations are checked against the input
    through the match.  Elements whose interface extension is not a graph
    are recorded as skipped."""
    eor = t.eor
    interface = eor.interface
    record = t.result
    entries: list[AuditEntry] = []
    base_keys = (set(interface.nodes), set(interface.edges))

    comatch_on_interface = (
        {n: record.comatch.node_map[n] for n in interface.nodes},
        {e: record.comatch.edge_map[e] for e in interface.edges},
    )
    reused_nodes = frozenset(record.comatch.node_map.values())
    reused_edges = frozenset(record.comatch.edge_map.values())
    acted = t.selection.del_extra
    for element in sorted(eor.potential_deletions.nodes) + sorted(
        eor.potential_deletions.edges
    ):
        is_node = element in eor.maximal.lhs.nodes
        if element in (acted.nodes if is_node else acted.edges):
            # The deletion was carried out; nothing left to justify.
            entries.append(AuditEntry("deletion", element, "alternative-action"))
            continue
        extended = _interface_plus_element(interface, eor.maximal.lhs, element)
        if extended is None:
            entries.append(AuditEntry("deletion", element, "skipped:not-a-graph"))
            continue
        extensions = list(
            find_injective_extensions(extended, record.output, comatch_on_interface)
        )
        if not extensions:
            entries.append(AuditEntry("deletion", element, "no-extension"))
            continue
        for ext in extensions:
            image = _image_of(ext, element)
            if image in (reused_nodes if is_node else reused_edges):
                entries.append(
                    AuditEntry(
                        "deletion",
                        element,
                        "alternative-creation",
                        _witness(ext, base_keys),
                    )
                )
            else:
                raise AuditFailure(
                    element,
                    f"host element {image!r} was neither deleted nor reused",
                )

    match_on_interface = (
        {n: record.match.node_map[n] for n in interface.nodes},
        {e: record.match.edge_map[e] for e in interface.edges},
    )
    matched_nodes = frozenset(record.match.node_map.values())
    matched_edges = frozenset(record.match.edge_map.values())
    performed = eor.potential_creations - t.selection.preserve_extra
    for element in sorted(performed.nodes) + sorted(performed.edges):
        extended = _interface_plus_element(interface, eor.maximal.rhs, element)
        if extended is None:
            entries.append(AuditEntry("creation", element, "skipped:not-a-graph"))
            continue
        extensions = list(
            find_injective_extensions(extended, record.input, match_on_interface)
        )
        if not extensions:
            entries.append(AuditEntry("creation", element, "no-extension"))
            continue
        is_node = element in eor.maximal.rhs.nodes
        for ext in extensions:
            image = _image_of(ext, element)
            if image in (matched_nodes if is_node else matched_edges):
                entries.append(
                    AuditEntry(
                        "creation",
                        element,
                        "alternative-action",
                        _witness(ext, base_keys),
                    )
                )
            else:
                raise AuditFailure(
                    element,
                    f"host element {image!r} could have been reused instead of creating",
                )
    return AuditReport(tuple(entries))
