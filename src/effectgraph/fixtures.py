"""The built-in banking corpus.

A small retail-banking model: a bank owns clients, accounts, and
portfolios; clients hold accounts and portfolios; an account can be backed
by a portfolio.  The corpus ships two effect-oriented rules over it —
``ensure_account`` provisions a client with an account and a backing
portfolio, reusing whatever already exists, and ``ensure_no_account``
removes as much of that structure as it can — together with two host
graphs and ready-made base matches for both clients of the first host.
"""

from __future__ import annotations

from functools import cache
from pathlib import Path

from .core import TypeGraph, TypedGraph
from .documents import decode_graph, decode_match, decode_rule, decode_type_graph
from .effect import EffectOrientedRule

TYPE_GRAPH_FILE = "type_graph_banking.json"
BANK_GRAPH_FILE = "graph_bank.json"
SHARED_ACCOUNTS_GRAPH_FILE = "graph_shared_accounts.json"
ENSURE_ACCOUNT_FILE = "rule_ensure_account.json"
ENSURE_NO_ACCOUNT_FILE = "rule_ensure_no_account.json"
MATCH_C1_FILE = "match_c1.json"
MATCH_C2_FILE = "match_c2.json"

ALL_FILES = (
    TYPE_GRAPH_FILE,
    BANK_GRAPH_FILE,
    SHARED_ACCOUNTS_GRAPH_FILE,
    ENSURE_ACCOUNT_FILE,
    ENSURE_NO_ACCOUNT_FILE,
    MATCH_C1_FILE,
    MATCH_C2_FILE,
)


def fixture_path(name: str) -> Path:
    path = Path(__file__).parent / "fixtures" / name
    if not path.is_file():
        raise FileNotFoundError(f"no fixture file named {name!r}")
    return path


def fixture_text(name: str) -> str:
    return fixture_path(name).read_text(encoding="utf-8")


@cache
def banking_type_graph() -> TypeGraph:
    return decode_type_graph(fixture_text(TYPE_GRAPH_FILE))


def builtin_type_graphs() -> dict[str, TypeGraph]:
    """Type graphs the document loaders know without a file."""
    tg = banking_type_graph()
    return {tg.name: tg}


@cache
def bank_graph() -> TypedGraph:
    """One bank, two clients; c1 holds two accounts, one backed by the
    only portfolio; c2 holds nothing."""
    return decode_graph(fixture_text(BANK_GRAPH_FILE), builtin_type_graphs())


@cache
def shared_accounts_graph() -> TypedGraph:
    """Two clients sharing an account, plus one exclusively held account."""
    return decode_graph(
        fixture_text(SHARED_ACCOUNTS_GRAPH_FILE), builtin_type_graphs()
    )


@cache
def ensure_account_rule() -> EffectOrientedRule:
    return decode_rule(fixture_text(ENSURE_ACCOUNT_FILE), builtin_type_graphs())[1]


@cache
def ensure_no_account_rule() -> EffectOrientedRule:
    return decode_rule(
        fixture_text(ENSURE_NO_ACCOUNT_FILE), builtin_type_graphs()
    )[1]


@cache
def client_match(name: str) -> tuple[dict[str, str], dict[str, str]]:
    """The stored base-match maps binding the rule client to ``name``."""
    return decode_match(fixture_text(f"match_{name}.json"))
