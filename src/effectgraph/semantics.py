"""Applying effect-oriented rules and auditing the outcome.

:func:`find_match` picks a match according to a strategy (locally complete
for a given pre-match, locally maximal for a given pre-match, or globally
maximal over the whole host), and :func:`transform` applies the chosen
induced rule.

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
from typing import Iterator

from .core import (
    EffectGraphError,
    ElementSet,
    Morphism,
    TypedGraph,
    find_injective_extensions,
)
from .effect import EffectOrientedRule, InducedSelection
from .matching import (
    MatchResult,
    PreMatch,
    _entered,
    _largest_leaves,
    find_base_prematches,
    find_locally_complete,
)
from .rules import TransformationRecord, _apply

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


def find_match(
    eor: EffectOrientedRule,
    host: TypedGraph,
    strategy: str,
    pm: PreMatch | None = None,
) -> MatchResult | None:
    """The match :func:`transform` applies under ``strategy``; ``None`` when
    no match exists.

    The two local strategies require a pre-match; the global strategy
    refuses one.  Under the maximal strategies this is the first result of
    :func:`find_locally_maximal` or :func:`find_globally_maximal`, found
    without building the other ties."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    if strategy == GLOBALLY_MAXIMAL:
        if pm is not None:
            raise StrategyArgumentMismatch(
                "the globally maximal strategy searches all pre-matches itself"
            )
        pms = find_base_prematches(eor, host)
    elif pm is None:
        raise StrategyArgumentMismatch(f"strategy {strategy!r} needs a pre-match")
    elif strategy == LOCALLY_COMPLETE:
        return find_locally_complete(eor, host, pm)
    else:
        _entered(eor, host, pm)
        pms = [pm]
    results = _largest_leaves(eor, host, pms, None, least=True)
    return results[0] if results else None


def transform(
    eor: EffectOrientedRule,
    host: TypedGraph,
    strategy: str,
    pm: PreMatch | None = None,
) -> EffectTransformation | None:
    """Apply the match :func:`find_match` picks; ``None`` when no match
    exists."""
    mr = find_match(eor, host, strategy, pm)
    if mr is None:
        return None
    record = _apply(mr.induced.rule, host, mr.match)  # passes apply_rule's checks
    return EffectTransformation(
        eor, strategy, record, mr.induced.selection, mr.base_prematch
    )


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


def _justify(
    kind: str,
    elements: ElementSet,
    acted: ElementSet,
    side: TypedGraph,
    target: TypedGraph,
    m: Morphism,
    interface: TypedGraph,
    clause: str,
    failure: str,
) -> Iterator[AuditEntry]:
    """The audit entries of ``elements`` of ``side``, nodes then edges by
    id.  An element in ``acted`` was acted on after all.  For any other,
    every way of extending ``m`` on the interface onto it in ``target``
    must land on an image of ``m``: each is recorded under ``clause`` with
    the element and its image as witness, and the first that does not
    raises :class:`AuditFailure` with ``failure``."""
    on_interface = (
        {n: m.node_map[n] for n in interface.nodes},
        {e: m.edge_map[e] for e in interface.edges},
    )
    for element in sorted(elements.nodes) + sorted(elements.edges):
        is_node = element in side.nodes
        if element in (acted.nodes if is_node else acted.edges):
            yield AuditEntry(kind, element, "alternative-action")
            continue
        extended = _interface_plus_element(interface, side, element)
        if extended is None:
            yield AuditEntry(kind, element, "skipped:not-a-graph")
            continue
        extensions = list(find_injective_extensions(extended, target, on_interface))
        if not extensions:
            yield AuditEntry(kind, element, "no-extension")
            continue
        images = m.node_images if is_node else m.edge_images
        for ext in extensions:
            image = (ext.node_map if is_node else ext.edge_map)[element]
            if image not in images:
                raise AuditFailure(element, f"host element {image!r} {failure}")
            yield AuditEntry(kind, element, clause, ((element, image),))


def audit_effect(t: EffectTransformation) -> AuditReport:
    """Check both outcome guarantees of a finished transformation.

    Skipped potential deletions are checked against the output through the
    comatch; performed potential creations are checked against the input
    through the match.  Elements whose interface extension is not a graph
    are recorded as skipped."""
    eor, record, sel = t.eor, t.result, t.selection
    deletions = _justify(
        "deletion",
        eor.potential_deletions,
        sel.del_extra,
        eor.maximal.lhs,
        record.output,
        record.comatch,
        eor.interface,
        "alternative-creation",
        "was neither deleted nor reused",
    )
    creations = _justify(
        "creation",
        eor.potential_creations - sel.preserve_extra,
        ElementSet(),
        eor.maximal.rhs,
        record.input,
        record.match,
        eor.interface,
        "alternative-action",
        "could have been reused instead of creating",
    )
    return AuditReport((*deletions, *creations))
