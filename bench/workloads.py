"""Seeded inputs and checked query runners for the four benchmark workloads.

Every input reaches the library as text and is parsed with ``parse_ty`` /
``parse_term``, the way a command-line user passes it.  Each runner answers
one query and re-checks the answer independently of the engine that produced
it, and checks that the certificate concludes the question that was asked; a
wrong or unchecked answer raises ``WrongAnswer``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# The CLI's budgets (``ittlab corpus``, ``ittlab infer``) and the library's
# default intersection width.
CORPUS_FUEL = 10_000
CORPUS_WIDTH = 2
CORPUS_DEPTH = 3
SUBTYPE_WIDTH = 2
INFER_FUEL = 5_000
INFER_WIDTH = 2
PROBE_DEPTH = 3

SUBTYPE_THEORIES = (
    "T4", "EP", "Ainf5", "T3", "Tflat", "TCDZ", "Park", "T0", "Tsharp", "T2inv",
)
INFER_THEORIES = ("T4", "Park", "TCDZ", "T2inv", "Tsharp", "T3")
INFER_TERM_NODES = range(6, 21)
# Theories whose beta probe at depth 3 finds no counterexample within about
# 2 s.  T2, T2inv, Ainf1 and TCDZ take 7 to 14 s each, too long to repeat in
# a run.
PROBE_THEORIES = ("T1", "T0le", "Park", "Tstar", "Tstarup", "Tflat")

# Queries per pass.  A pass is the unit that wall_ref costs; each is fixed by
# the seed, so decided_ratio is a deterministic function of the seed.
# subtype and infer ask about as many distinct queries as fit in a 25 s run.
PASS_QUERIES = {"corpus": 21, "subtype": 1600, "infer": 7200, "probe": 6}


class WrongAnswer(Exception):
    """An answer differed from the known one or failed its certificate check."""


@dataclass(frozen=True)
class Query:
    """One question, as the text a user would type."""

    theory: str
    text: str


# -- input generation -----------------------------------------------------------


class _Deck:
    """Draws without replacement, reshuffling when empty, so that a pass asks
    about as many distinct types as the pool allows and the number of fresh
    universes varies little from seed to seed."""

    def __init__(self, rng: random.Random, items: list[str]):
        self.rng, self.items, self.left = rng, items, []

    def draw(self) -> str:
        if not self.left:
            self.left = list(self.items)
            self.rng.shuffle(self.left)
        return self.left.pop()


def _type_decks(rng: random.Random, leaves: list[str]) -> dict[int, _Deck]:
    """Types of one leaf and of two leaves (at most 4 nodes), keyed by leaves."""
    pairs = [f"({x} {op} {y})" for x in leaves for y in leaves for op in ("->", "&")]
    return {1: _Deck(rng, list(leaves)), 2: _Deck(rng, pairs)}


def _random_term(rng: random.Random, n: int, scope: list[str]) -> str:
    """A random closed term of exactly n nodes (variables, abstractions and
    applications), built inside the given scope of bound names."""
    if n == 1:
        return rng.choice(scope)
    if n == 2 or not scope or rng.random() < 0.35:
        x = f"x{len(scope)}"
        return f"(\\{x}. {_random_term(rng, n - 1, scope + [x])})"
    k = rng.randint(1, n - 2)
    fun = _random_term(rng, k, scope)
    arg = _random_term(rng, n - 1 - k, scope)
    return f"({fun} {arg})"


def _cells(rng: random.Random, strata: list[tuple], count: int) -> list[tuple]:
    """count strata in shuffled order, each stratum equally often, so that the
    mix of theories and sizes is the same for every seed."""
    out = strata * (count // len(strata))
    rng.shuffle(out)
    return out


def make_queries(workload: str, seed: int, registry) -> list[Query]:
    """The seed's fixed query list for one pass of the workload."""
    rng = random.Random(f"{workload}:{seed}")
    count = PASS_QUERIES[workload]
    if workload == "corpus":
        names = list(registry.names())
        rng.shuffle(names)
        return [Query(name, "") for name in names]
    if workload == "subtype":
        leaves = (1, 2)  # the keys of _type_decks
        strata = [(t, i, j) for t in SUBTYPE_THEORIES for i in leaves for j in leaves]
        decks = {
            t: _type_decks(rng, sorted(registry.lookup(t).spec.constants) + ["U"])
            for t in SUBTYPE_THEORIES
        }
        out = []
        for name, i, j in _cells(rng, strata, count):
            a, b = decks[name][i].draw(), decks[name][j].draw()
            out.append(Query(name, f"{a} <= {b}"))
        return out
    if workload == "infer":
        strata = [(t, n) for t in INFER_THEORIES for n in INFER_TERM_NODES]
        out = []
        for name, n in _cells(rng, strata, count):
            target = rng.choice(sorted(registry.lookup(name).spec.constants))
            out.append(Query(name, f"{_random_term(rng, n, [])} : {target}"))
        return out
    if workload == "probe":
        names = list(PROBE_THEORIES)
        rng.shuffle(names)
        return [Query(name, str(PROBE_DEPTH)) for name in names]
    raise ValueError(f"unknown workload {workload!r}")


# -- checked query runners --------------------------------------------------------
#
# Each runner takes the library module, the registry and one query, and returns
# whether the query was decided.  The library is passed in, not imported here,
# so that the caller decides where it is loaded from.


def _golden(lib) -> dict:
    path = Path(lib.__file__).parent / "corpus" / "verdicts.json"
    return json.loads(path.read_text(encoding="utf-8"))


def corpus_runner(lib, registry) -> Callable[[Query], bool]:
    from ittlab.sensibility import evidence_summary

    golden = _golden(lib)

    def run(q: Query) -> bool:
        v = lib.verdict(
            registry.lookup(q.theory).spec,
            fuel=CORPUS_FUEL,
            inter_width=CORPUS_WIDTH,
            depth=CORPUS_DEPTH,
        )
        got = {"verdict": type(v).__name__, "evidence": evidence_summary(v)}
        if got != golden.get(q.theory):
            raise WrongAnswer(f"{q.theory}: got {got}, golden {golden.get(q.theory)}")
        return isinstance(v, (lib.Sensible, lib.NonSensible))

    return run


def subtype_runner(lib, registry) -> Callable[[Query], bool]:
    from ittlab.subtyping import Valid

    def run(q: Query) -> bool:
        spec = registry.lookup(q.theory).spec
        lhs, rhs = q.text.split("<=", 1)
        a, b = lib.parse_ty(lhs), lib.parse_ty(rhs)
        v = lib.derive_le(spec, a, b, SUBTYPE_WIDTH)
        if isinstance(v, lib.Proven):
            if lib.check_subproof(spec, v.proof) != Valid():
                raise WrongAnswer(f"{q.theory}: subproof for {q.text} does not check")
            got = tuple(lib.canonicalize(t) for t in v.proof.conclusion)
            if got != (lib.canonicalize(a), lib.canonicalize(b)):
                raise WrongAnswer(f"{q.theory}: subproof for {q.text} proves {got}")
            return True
        return False

    return run


def infer_runner(lib, registry) -> Callable[[Query], bool]:
    from ittlab.subtyping import Valid

    def run(q: Query) -> bool:
        spec = registry.lookup(q.theory).spec
        term_text, ty_text = q.text.rsplit(":", 1)
        m, a = lib.parse_term(term_text), lib.parse_ty(ty_text)
        r = lib.infer_bounded(spec, lib.Basis.of(), m, a, INFER_FUEL, INFER_WIDTH)
        if isinstance(r, lib.Found):
            if lib.check_derivation(spec, r.derivation) != Valid():
                raise WrongAnswer(f"{q.theory}: derivation for {q.text} does not check")
            c = r.derivation.conclusion
            if (c.basis, c.term, lib.canonicalize(c.ty)) != (lib.Basis.of(), m, lib.canonicalize(a)):
                raise WrongAnswer(f"{q.theory}: derivation for {q.text} concludes {c}")
            return True
        return False

    return run


def probe_runner(lib, registry) -> Callable[[Query], bool]:
    from ittlab import probes

    def run(q: Query) -> bool:
        depth = int(q.text)
        r = probes.beta_soundness_probe(registry.lookup(q.theory).spec, depth=depth)
        if r != probes.NoCounterexampleUpTo(depth):
            raise WrongAnswer(f"{q.theory}: beta probe at depth {depth} gave {r}")
        return True

    return run


RUNNERS = {
    "corpus": corpus_runner,
    "subtype": subtype_runner,
    "infer": infer_runner,
    "probe": probe_runner,
}
