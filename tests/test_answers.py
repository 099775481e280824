"""Answers pinned across engine changes.

A fixed, interleaved sequence of derive_le and infer_bounded queries over
several built-in theories, with seed sets that repeat and distinct seed sets
that build one universe.  The sha256 of the repr of each answer is recorded
in data/answer_fingerprints.json; scripts/regen_fixtures.py
rewrites that file from this module.
"""

import hashlib
import json
import random
from pathlib import Path

from ittlab import assignment
from ittlab.assignment import Basis, infer_bounded
from ittlab.sensibility import builtin_theories
from ittlab.subtyping import derive_le, saturated_ctx
from ittlab.terms import parse_term
from ittlab.types import parse_ty

FINGERPRINTS = Path(__file__).parent / "data" / "answer_fingerprints.json"
THEORIES = ("T4", "EP", "TCDZ", "Park", "T0", "T2inv", "Tsharp", "T3")
ROUNDS = 100  # each adds four derive_le and four infer_bounded queries
FUEL = 300


def _leaf(rng: random.Random, consts: list[str]) -> str:
    return rng.choice(consts + ["U"])


def _ty(rng: random.Random, consts: list[str], leaves: int) -> str:
    if leaves == 1:
        return _leaf(rng, consts)
    k = rng.randint(1, leaves - 1)
    op = rng.choice(("->", "&"))
    return f"({_ty(rng, consts, k)} {op} {_ty(rng, consts, leaves - k)})"


def _term(rng: random.Random, n: int, scope: list[str]) -> str:
    """A random term of exactly n nodes whose free names are in scope."""
    if n == 1:
        return rng.choice(scope)
    if n == 2 or not scope or rng.random() < 0.35:
        x = f"v{len(scope)}"
        return f"(\\{x}. {_term(rng, n - 1, scope + [x])})"
    k = rng.randint(1, n - 2)
    return f"({_term(rng, k, scope)} {_term(rng, n - 1 - k, scope)})"


def answer_queries() -> list[tuple]:
    """("le", theory, a, b) and ("infer", theory, basis, term, target) rows.

    Each round asks, in one theory: A -> B <= A and A -> B <= B, whose seed
    sets differ but build one universe; B <= A -> B, which repeats the
    second seed set; a random pair; and four typings, two of them under the
    basis x : A -> B at targets A and B (again one universe)."""
    rng = random.Random("answer-fingerprints")
    reg = builtin_theories()
    out: list[tuple] = []
    for r in range(ROUNDS):
        name = THEORIES[r % len(THEORIES)]
        consts = sorted(reg.lookup(name).spec.constants)
        a, b = _ty(rng, consts, 1), _ty(rng, consts, rng.randint(1, 2))
        f = f"({a} -> {b})"
        out.append(("le", name, f, a))
        out.append(("infer", name, "", _term(rng, rng.randint(4, 12), []), _leaf(rng, consts)))
        out.append(("le", name, f, b))
        out.append(("infer", name, f"x : {f}", _term(rng, rng.randint(2, 8), ["x"]), a))
        out.append(("le", name, b, f))
        out.append(("infer", name, f"x : {f}", _term(rng, rng.randint(2, 8), ["x"]), b))
        lhs, rhs = _ty(rng, consts, rng.randint(1, 3)), _ty(rng, consts, rng.randint(1, 3))
        out.append(("le", name, lhs, rhs))
        out.append(("infer", name, "", _term(rng, rng.randint(4, 12), []), _leaf(rng, consts)))
    return out


def _basis(text: str) -> Basis:
    if not text:
        return Basis.of()
    x, ty = text.split(":", 1)
    return Basis.of({x.strip(): parse_ty(ty)})


def answer_fingerprints() -> list[str]:
    """sha256 of repr(answer) for every query, asked in order from a cold cache."""
    reg = builtin_theories()
    saturated_ctx.cache_clear()
    out = []
    for row in answer_queries():
        t = reg.lookup(row[1]).spec
        if row[0] == "le":
            answer = derive_le(t, parse_ty(row[2]), parse_ty(row[3]))
        else:
            g, m, a = _basis(row[2]), parse_term(row[3]), parse_ty(row[4])
            answer = infer_bounded(t, g, m, a, fuel=FUEL)
        out.append(hashlib.sha256(repr(answer).encode()).hexdigest())
    return out


def test_answers_match_recorded_fingerprints():
    queries = answer_queries()
    got = answer_fingerprints()
    want = json.loads(FINGERPRINTS.read_text(encoding="utf-8"))
    assert len(got) == len(want) == len(queries)
    for row, g, w in zip(queries, got, want):
        assert g == w, f"answer changed for {row}"


# goals expanded, table hits and cycle cut-offs of every search in the
# sequence, summed.  They pin how much work the search does, not what it
# answers: settling each cycle once (a None stored when the goals it leaned
# on fail) lowered them from (5202, 3120, 8197) with every answer unchanged
SEARCH_WORK = (2134, 655, 852)


def test_search_work_over_the_answer_sequence(monkeypatch):
    searches = []

    class Recorded(assignment._Search):
        def __init__(self, *args):
            super().__init__(*args)
            searches.append(self)

    monkeypatch.setattr(assignment, "_Search", Recorded)
    answer_fingerprints()
    assert len(searches) == sum(row[0] == "infer" for row in answer_queries())
    work = tuple(
        sum(getattr(s, k) for s in searches)
        for k in ("expanded", "hits", "cycle_events")
    )
    assert work == SEARCH_WORK
