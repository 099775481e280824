"""Sensibility verdicts for theories, plus the built-in theory corpus.

A theory is sensible when every unsolvable term types only at types
equivalent to U.  The pipeline combines three one-sided criteria: the
syntactic polarity check (sufficient for sensibility of natural theories),
verified embeddings (sensibility transfers backward, non-sensibility
forward), and a bounded search for a typed unsolvable witness.  Each
criterion's own result is the verdict's evidence: a PolarityPass, a
TransferCertificate, or a Witness.  What crosses an embedding is computed
too: the target's PolarityPass, or a Witness the probe found in the source.
"""

from __future__ import annotations

from functools import cache
from importlib import resources
from typing import Union

from .assignment import DEFAULT_FUEL, Found, infer_bounded
from .embedding import ConstantMap, TransferCertificate, compose_maps, transfer
from .errors import InvalidInput
from .kernel import Basis, Derivation
from .polarity import PolarityPass, PolarityVerdict, check_positive_polarity, completion
from .records import Record
from .subtyping import DEFAULT_WIDTH, refuted
from .terms import FuelExhausted, Term, head_reduce, parse_term
from .theory import TheorySpec, parse_theory, validate_natural
from .types import TOP, Const, Ty, print_ty, ty_key
from .sexpr import parse_constant_map

DEFAULT_CHAIN_DEPTH = 3


# -- registry ----------------------------------------------------------------


class RegistryEntry(Record):
    spec: TheorySpec


class TheoryRegistry(Record):
    entries: tuple[tuple[str, RegistryEntry], ...]

    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.entries)

    def lookup(self, name: str) -> RegistryEntry:
        """Exact name first, then a unique case-insensitive substring."""
        for key, entry in self.entries:
            if key == name:
                return entry
        hits = [e for key, e in self.entries if name.lower() in key.lower()]
        if len(hits) == 1:
            return hits[0]
        detail = "ambiguous" if hits else "not found"
        raise InvalidInput(f"theory {name!r} {detail} in registry")


_BUILTIN_NAMES = (
    "T0",
    "T0le",
    "T1",
    "T2",
    "T2prime",
    "T2inv",
    "T3",
    "T4",
    "TCDZ",
    "Tsharp",
    "Asharp",
    "EP",
    "Park",
    "Tstar",
    "Tstarup",
    "Tflat",
    "Ainf1",
    "Ainf2",
    "Ainf3",
    "Ainf4",
    "Ainf5",
)

def _corpus_text(*relpath: str) -> str:
    node = resources.files("ittlab").joinpath("corpus")
    for part in relpath:
        node = node.joinpath(part)
    return node.read_text(encoding="utf-8")


@cache
def builtin_theories() -> TheoryRegistry:
    entries = []
    for name in _BUILTIN_NAMES:
        entries.append((name, RegistryEntry(parse_theory(_corpus_text(f"{name}.itt")))))
    return TheoryRegistry(tuple(entries))


# registered source -> target constant maps shipped with the corpus
REGISTERED_EMBEDDINGS = (
    ("T3", "TCDZ", "t3_to_tcdz.map"),
    ("Tstar", "TCDZ", "tstar_to_tcdz.map"),
    ("Tstarup", "TCDZ", "tstarup_to_tcdz.map"),
    ("Tflat", "TCDZ", "tflat_to_tcdz.map"),
    ("T2", "T2prime", "t2_to_t2prime.map"),
    ("Park", "T2inv", "park_to_t2inv.map"),
)


@cache
def registered_maps() -> tuple[ConstantMap, ...]:
    reg = builtin_theories()
    out = []
    for src, tgt, fname in REGISTERED_EMBEDDINGS:
        mapping = parse_constant_map(_corpus_text("maps", fname))
        out.append(ConstantMap.of(reg.lookup(src).spec, reg.lookup(tgt).spec, mapping))
    return tuple(out)


# -- unsolvable-typing probe ---------------------------------------------------

_OMEGA2 = r"(\x. x x) (\x. x x)"
UNSOLVABLE_POOL: tuple[Term, ...] = (
    parse_term(_OMEGA2),
    parse_term(r"(\x. x x x) (\x. x x x)"),
    parse_term(rf"({_OMEGA2}) (\y. y)"),
)


class Witness(Record):
    term: Term
    ty: Ty
    derivation: Derivation
    head_trace: FuelExhausted


class NoneFound(Record):
    fuel: int
    inter_width: int


def _probe_targets(t: TheorySpec) -> tuple[Ty, ...]:
    """Constants and axiom sides certified below U: some chain model of t,
    of height 2 or 3, refutes U <= A (refuted), so A ~ U is underivable and
    a term typed at A is a witness.  Where neither height has a bank nothing
    is certified, and the probe has no target."""
    raw: list[Ty] = [Const(c) for c in sorted(t.constants)]
    for pair in t.canonical_pairs:
        raw.extend(pair)
    return tuple(ty for ty in sorted(set(raw), key=ty_key) if refuted(t, TOP, ty))


def probe_unsolvable_typing(
    t: TheorySpec,
    fuel: int = DEFAULT_FUEL,
    inter_width: int = DEFAULT_WIDTH,
    extra_pool: tuple[Term, ...] = (),
) -> Witness | NoneFound:
    """Search the unsolvable pool for a typing at a non-U type.

    A Found derivation only counts with a fuel-exhausted head trace, so a
    solvable term slipped into extra_pool cannot fake a witness.  A term is
    reduced once, at its first Found: one that reaches a head normal form
    is no witness at any target, so the probe moves on to the next term.
    """
    targets = _probe_targets(t)
    empty = Basis.of()
    for term in UNSOLVABLE_POOL + tuple(extra_pool):
        for ty in targets:
            r = infer_bounded(t, empty, term, ty, fuel, inter_width)
            if isinstance(r, Found):
                trace = head_reduce(term, fuel)
                if isinstance(trace, FuelExhausted):
                    return Witness(term, ty, r.derivation, trace)
                break
    return NoneFound(fuel, inter_width)


# -- verdict pipeline ----------------------------------------------------------


class Sensible(Record):
    evidence: PolarityPass | TransferCertificate


class NonSensible(Record):
    evidence: Witness | TransferCertificate


class Unknown(Record):
    tried: tuple[str, ...]


SensibilityVerdict = Union[Sensible, NonSensible, Unknown]


def evidence_summary(v: SensibilityVerdict) -> dict | None:
    """Stable one-line JSON shape of a verdict's evidence, for goldens."""
    if isinstance(v, Unknown):
        return None
    e = v.evidence
    if isinstance(e, PolarityPass):
        return {"kind": "PolarityPass", "detail": "caveats" if e.caveats else ""}
    if isinstance(e, TransferCertificate):
        if e.kind == "sensible":
            return {"kind": "EmbeddingInto", "detail": e.map.target.name}
        return {"kind": "EmbeddingFrom", "detail": e.map.source.name}
    return {"kind": "UnsolvableTyped", "detail": print_ty(e.ty)}

_ORDER_CAVEAT = (
    "order axioms present: the polarity criterion covers the characteristic "
    "axioms, the declared constant order is assumed compatible"
)


def polarity_stage(t: TheorySpec) -> PolarityVerdict | None:
    """verdict's polarity stage: None when t is not natural, else the
    polarity check of its completed characteristic set.  A pass carries the
    order caveat when t declares a constant order."""
    if not t.natural:
        return None
    pol = check_positive_polarity(completion(validate_natural(t).axioms))
    if isinstance(pol, PolarityPass) and t.order:
        return PolarityPass(pol.caveats + (_ORDER_CAVEAT,))
    return pol


def _chains(
    t: TheorySpec, pool: tuple[ConstantMap, ...], depth: int, into: bool
) -> list[ConstantMap]:
    """Composites of up to depth pool maps leaving t, or reaching t if into.

    Maps meet where their theories have one key, and only the end at t is
    rebased to t itself.  A chain is never extended back to t or by a
    self-map, and each far end keeps a given mapping once.
    """

    def near(k: ConstantMap) -> TheorySpec:
        return k.target if into else k.source

    def far(k: ConstantMap) -> TheorySpec:
        return k.source if into else k.target

    def rebase(k: ConstantMap) -> ConstantMap:
        if into:
            return ConstantMap.of(k.source, t, k.as_dict())
        return ConstantMap.of(t, k.target, k.as_dict())

    frontier = [rebase(k) for k in pool if near(k).key == t.key]
    out: list[ConstantMap] = []
    for _ in range(depth):
        out.extend(frontier)
        nxt = []
        for chain in frontier:
            end = far(chain).key
            for k in pool:
                if near(k).key != end or far(k).key in (t.key, end):
                    continue
                if into:
                    nxt.append(compose_maps(k, chain))
                else:
                    nxt.append(compose_maps(chain, k))
        frontier = nxt
    seen: set[tuple[TheorySpec, tuple[tuple[str, Ty], ...]]] = set()
    unique = []
    for k in out:
        key = (far(k), k.mapping)
        if key not in seen:
            seen.add(key)
            unique.append(k)
    return unique


def verdict(
    t: TheorySpec,
    fuel: int = DEFAULT_FUEL,
    inter_width: int = DEFAULT_WIDTH,
    depth: int = DEFAULT_CHAIN_DEPTH,
    extra_maps: tuple[ConstantMap, ...] = (),
    extra_pool: tuple[Term, ...] = (),
) -> SensibilityVerdict:
    """Polarity, then embeddings into targets that pass polarity, then
    witness search plus embeddings from sources in which the probe finds a
    witness, else Unknown."""
    if depth < 1:
        raise InvalidInput("chain depth must be >= 1")
    if fuel < 0 or inter_width < 1:
        raise InvalidInput("fuel must be nonnegative and inter_width >= 1")
    tried: list[str] = []

    pol = polarity_stage(t)
    if isinstance(pol, PolarityPass):
        return Sensible(pol)
    tried.append(
        "polarity: Fail (criterion is sufficient only)"
        if t.natural
        else "polarity: not applicable (theory not marked natural)"
    )

    pool = registered_maps() + tuple(extra_maps)
    for k in _chains(t, pool, depth, into=False):
        target_pol = polarity_stage(k.target)
        if not isinstance(target_pol, PolarityPass):
            tried.append(
                f"embedding into {k.target.name}: target not sensible by polarity"
            )
            continue
        r = transfer(k, "sensible", target_pol, inter_width)
        if isinstance(r, TransferCertificate):
            return Sensible(r)
        tried.append(f"embedding into {k.target.name}: {type(r).__name__}")

    w = probe_unsolvable_typing(t, fuel, inter_width, extra_pool)
    if isinstance(w, Witness):
        return NonSensible(w)
    tried.append(f"unsolvable-typing probe: NoneFound at fuel {fuel}")

    for k in _chains(t, pool, depth, into=True):
        sw = probe_unsolvable_typing(k.source, fuel, inter_width)
        if not isinstance(sw, Witness):
            tried.append(
                f"embedding from {k.source.name}: source probe NoneFound at fuel {fuel}"
            )
            continue
        r = transfer(k, "nonsensible", sw, inter_width)
        if isinstance(r, TransferCertificate):
            return NonSensible(r)
        tried.append(f"embedding from {k.source.name}: {type(r).__name__}")

    return Unknown(tuple(tried))
