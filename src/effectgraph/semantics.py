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

from typing import Iterator, NamedTuple

from .core import EffectGraphError, ElementSet, Morphism, TypedGraph
from .effect import EffectOrientedRule, InducedSelection
from .matching import MatchResult, PreMatch, _largest_leaves, find_locally_complete
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


class EffectTransformation(NamedTuple):
    """A transformation obtained by one of the matching strategies."""

    eor: EffectOrientedRule
    strategy: str
    result: TransformationRecord
    selection: InducedSelection
    base_prematch: PreMatch


class AuditEntry(NamedTuple):
    kind: str  # "deletion" or "creation"
    element: str
    clause: str
    witness: tuple[tuple[str, str], ...] | None = None


class AuditReport(NamedTuple):
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
    :func:`find_locally_maximal` or :func:`find_globally_maximal`, found by
    their search without building the other ties: by a search in key order
    for a match at the rule's bound, which costs the candidates that sort
    below it plus their degree, and only if there is none by branch and
    bound."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    if strategy == GLOBALLY_MAXIMAL:
        if pm is not None:
            raise StrategyArgumentMismatch(
                "the globally maximal strategy searches all pre-matches itself"
            )
    elif pm is None:
        raise StrategyArgumentMismatch(f"strategy {strategy!r} needs a pre-match")
    elif strategy == LOCALLY_COMPLETE:
        return find_locally_complete(eor, host, pm)
    results = _largest_leaves(eor, host, pm, None, least=True)
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
    raises :class:`AuditFailure` with ``failure``.  For one element those
    ways are its type bucket in ``target``, or for an edge between
    interface nodes its class between their images, less the images of the
    interface."""
    on_nodes = {m.node_map[n] for n in interface.nodes}
    on_edges = {m.edge_map[e] for e in interface.edges}
    for element in sorted(elements.nodes) + sorted(elements.edges):
        is_node = element in side.nodes
        if element in (acted.nodes if is_node else acted.edges):
            yield AuditEntry(kind, element, "alternative-action")
            continue
        # ``target`` is read only for an element that needs it: reading a
        # step's output replays the step, and the store stays at the input.
        if is_node:
            ids = target._rooted().nodes_by_type.get(side.nodes[element], ())
            extensions = [y for y in ids if y not in on_nodes]
        else:
            e = side.edges[element]
            if e.src not in interface.nodes or e.tgt not in interface.nodes:
                yield AuditEntry(kind, element, "skipped:not-a-graph")
                continue
            key = e.type, m.node_map[e.src], m.node_map[e.tgt]
            ids = target._rooted().edge_classes.get(key, ())
            extensions = [y for y in ids if y not in on_edges]
        if not extensions:
            yield AuditEntry(kind, element, "no-extension")
            continue
        images = m.node_images if is_node else m.edge_images
        for image in extensions:
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
