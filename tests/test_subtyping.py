import dataclasses
import gc
import hashlib
import json
import os
import subprocess
import sys
import weakref
from itertools import combinations, product
from pathlib import Path
from typing import Iterator

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import ittlab
from ittlab import subtyping
from ittlab.assignment import Basis, infer_bounded
from ittlab.errors import InvalidInput, UniverseTooLarge
from ittlab.probes import (
    CounterexampleFound,
    NoCounterexampleUpTo,
    _arrow_meets,
    _types_up_to,
    beta_soundness_probe,
)
from ittlab.sensibility import builtin_theories
from ittlab.sexpr import unparse_subproof
from ittlab.subtyping import (
    Invalid,
    Proven,
    SubProof,
    SubtypeCtx,
    UnknownWithin,
    Valid,
    bits,
    build_universe,
    check_subproof,
    context_for,
    derive_equiv,
    derive_le,
    is_top_equiv,
    saturated_ctx,
)
from ittlab.terms import parse_term
from ittlab.theory import AxiomDecl, RuleFlag, TheorySpec, parse_theory
from ittlab.types import (
    TOP,
    Arrow,
    Const,
    Inter,
    canonicalize,
    inter_parts,
    make_inter,
    parse_ty,
    print_ty,
    subterms,
    ty_key,
    ty_size,
)

T0 = parse_theory("theory T0; constants c0 c1; axiom c0 -> c0 <= c1 -> c0")
T1 = parse_theory("theory T1; constants c0 c1")
TCDZ = parse_theory(
    "theory TCDZ; natural; constants c3 c4; flags arrow arrow-U arrow-cap U-leq\n"
    "axiom c3 ~ c4 -> c3; axiom c4 ~ c3 -> c4; order c3 <= c4"
)


# -- universes ---------------------------------------------------------------


def test_universe_width1_atoms():
    u = build_universe(T1, [Const("c0"), Const("c1")], 1)
    assert u.members == {TOP, Const("c0"), Const("c1")}


def test_universe_width1_arrows():
    u = build_universe(T0, [parse_ty("c0 -> c0"), parse_ty("c1 -> c0")], 1)
    assert u.members == {
        TOP,
        Const("c0"),
        Const("c1"),
        parse_ty("c0 -> c0"),
        parse_ty("c1 -> c0"),
    }


def test_universe_width2_adds_intersections():
    u = build_universe(T1, [Const("c0"), Const("c1")], 2)
    assert parse_ty("c0 & c1") in u.members


def test_universe_cap(monkeypatch):
    seeds = [parse_ty(f"a -> a") for _ in range(1)]
    t = parse_theory("constants a b c d e f g h")
    big = [Const(c) for c in "abcdefgh"]
    monkeypatch.setattr(subtyping, "DEFAULT_CAP", 40)
    with pytest.raises(UniverseTooLarge):
        build_universe(t, big, 8)


def test_universe_rejects_zero_width():
    with pytest.raises(InvalidInput):
        build_universe(T1, [], 0)


def test_width_past_the_pool_adds_nothing():
    # the closure of these seeds has 5 members, so width 5 already meets
    # them all; a width of ten million must not walk the empty k-subsets
    seeds = [parse_ty("c0 -> c0"), parse_ty("c1 -> c0")]
    sizes = [len(build_universe(T0, seeds, w).members) for w in (1, 2, 3, 5, 10**7)]
    assert sizes == [5, 11, 15, 16, 16]


def test_probe_width_past_the_pool_adds_nothing():
    # at depth 1 the T1 pool is c0, c1, U: nine arrows
    assert beta_soundness_probe(T1, 1, 10**7) == beta_soundness_probe(T1, 1, 9)


# -- shared theory bases --------------------------------------------------------

BUILTINS = {n: builtin_theories().lookup(n).spec for n in builtin_theories().names()}


def reference_universe(t: TheorySpec, seeds, inter_width=subtyping.DEFAULT_WIDTH):
    """The members of build_universe(t, seeds, inter_width), built from
    scratch as before theories shared their base: the closure of U, the axiom
    sides and the seeds, and every meet of 2..inter_width of its members."""
    if inter_width < 1:
        raise InvalidInput("inter_width must be >= 1")
    cap = subtyping.DEFAULT_CAP
    base = {TOP}
    for s in seeds:
        base.add(canonicalize(s))
    for lhs, rhs in t.canonical_pairs:
        base.add(lhs)
        base.add(rhs)
    closed = set()
    for m in base:
        closed.update(subterms(m))
    members = set(closed)
    pool = sorted(closed, key=ty_key)
    for k in range(2, min(inter_width, len(pool)) + 1):
        for combo in combinations(pool, k):
            members.add(canonicalize(make_inter(combo)))
            if len(members) > cap:
                raise UniverseTooLarge(cap)
    if len(members) > cap:
        raise UniverseTooLarge(cap)
    return frozenset(members)


@st.composite
def universe_queries(draw):
    """A built-in theory, a width of 1 to 3, and up to three seeds: members
    of the theory's closure, or small types over its constants and U."""
    t = BUILTINS[draw(st.sampled_from(sorted(BUILTINS)))]
    width = draw(st.sampled_from([1, 2, 3]))
    leaves = st.sampled_from([TOP, *(Const(c) for c in sorted(t.constants))])
    fresh = st.recursive(
        leaves,
        lambda sub: st.builds(Arrow, sub, sub) | st.builds(Inter, sub, sub),
        max_leaves=4,
    )
    inside = st.sampled_from(sorted(reference_universe(t, (), 1), key=ty_key))
    seeds = draw(st.lists(inside | fresh, max_size=3))
    return t, seeds, width


@given(universe_queries())
def test_shared_base_builds_the_reference_universe(query):
    t, seeds, width = query
    assert build_universe(t, seeds, width).members == reference_universe(t, seeds, width)


@given(universe_queries(), st.data())
def test_shared_base_blows_the_bound_when_the_reference_does(query, data):
    t, seeds, width = query
    held = build_universe(t, (), width)  # its base is built under the real cap
    full = reference_universe(t, seeds, width)
    caps = {0, len(held.members) - 1, len(held.members), len(full) - 1, len(full)}
    cap = data.draw(st.sampled_from(sorted(caps)))
    blown = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(subtyping, "DEFAULT_CAP", cap)
        for build in (build_universe, reference_universe):
            try:
                build(t, seeds, width)
                blown.append(False)
            except UniverseTooLarge:
                blown.append(True)
    assert blown[0] == blown[1] == (len(full) > cap)
    assert held.base is build_universe(t, seeds, width).base


def add_meets_reference(members: set, new: list, old: tuple, width: int) -> None:
    """_add_meets as build_universe called it before the base kept its meets:
    add to members the canonical meet of every set of 2..width distinct
    canonical types of new and old that holds at least one of new."""
    cap = subtyping.DEFAULT_CAP
    for j in range(1, min(width, len(new)) + 1):
        for fresh in combinations(new, j):
            for i in range(max(0, 2 - j), min(width - j, len(old)) + 1):
                for rest in combinations(old, i):
                    parts = set()
                    for m in fresh + rest:
                        parts.update(inter_parts(m))
                    members.add(make_inter(sorted(parts, key=ty_key)))
                    if len(members) > cap:
                        raise UniverseTooLarge(cap)


def unmemoised_universe(t: TheorySpec, seeds, width: int) -> frozenset:
    """The members build_universe gave before the base kept its meets."""
    closed = set(subterms(TOP))
    for lhs, rhs in t.canonical_pairs:
        closed.update(subterms(lhs))
        closed.update(subterms(rhs))
    pool = tuple(sorted(closed, key=ty_key))
    members = set(closed)
    add_meets_reference(members, list(pool), (), width)
    new = {m for s in seeds for m in subterms(canonicalize(s))} - closed
    members.update(new)
    add_meets_reference(members, sorted(new, key=ty_key), pool, width)
    if len(members) > subtyping.DEFAULT_CAP:
        raise UniverseTooLarge(subtyping.DEFAULT_CAP)
    return frozenset(members)


@given(universe_queries(), st.data())
def test_memoised_meets_build_the_unmemoised_universe(query, data):
    t, seeds, width = query
    held = build_universe(t, seeds, width)  # fills the memo under the real cap
    assert held.members == unmemoised_universe(t, seeds, width)
    base = len(held.base.members)
    caps = {0, base - 1, base, len(held.members) - 1, len(held.members)}
    cap = data.draw(st.sampled_from(sorted(caps)))
    for memo in (dict(held.base.meets), {}):
        held.base.meets.clear()
        held.base.meets.update(memo)
        blown = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(subtyping, "DEFAULT_CAP", cap)
            for build in (build_universe, unmemoised_universe):
                try:
                    build(t, seeds, width)
                    blown.append(False)
                except UniverseTooLarge:
                    blown.append(True)
        assert blown[0] == blown[1] == (len(held.members) > cap)
    assert held.base is build_universe(t, seeds, width).base


def test_universe_keeps_a_member_only_identity():
    # Universe is saturated_ctx's key: its base takes no part in ==, hash or repr
    u = build_universe(T1, [Const("c0")], 1)
    bare = subtyping.Universe(u.members)
    assert u.base is not None and bare.base is None
    assert u == bare and hash(u) == hash(bare) and repr(u) == repr(bare)


def test_theory_base_dies_with_the_cache(monkeypatch):
    a, b = parse_ty("c0 -> c0"), parse_ty("c1 -> c0")
    derive_le(T0, a, b)
    assert (T0, 2) in subtyping._BASES
    saturated_ctx.cache_clear()
    gc.collect()
    assert len(subtyping._BASES) == 0
    built = []
    real = subtyping._build_base

    def counting(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(subtyping, "_build_base", counting)
    derive_le(T0, a, b)
    derive_le(T0, a, Const("c0"))  # another universe on the same base
    assert built == [(T0, 2)]


# -- derive_le / derive_equiv -------------------------------------------------


def test_t0_axiom_instance_proven():
    v = derive_le(T0, parse_ty("c0 -> c0"), parse_ty("c1 -> c0"))
    assert isinstance(v, Proven)
    assert v.proof.rule == "Axiom"
    assert check_subproof(T0, v.proof) == Valid()


def test_anything_below_top():
    v = derive_le(T1, parse_ty("(c0 -> c1) & c0"), TOP)
    assert isinstance(v, Proven)
    assert v.proof.rule == "Utop"


def test_tcdz_intersection_collapse():
    v = derive_le(TCDZ, parse_ty("c4 & (c4 -> c3)"), parse_ty("c3"))
    assert isinstance(v, Proven)
    assert check_subproof(TCDZ, v.proof) == Valid()
    both = derive_equiv(TCDZ, parse_ty("c4 & (c4 -> c3)"), parse_ty("c4 & c3"))
    assert all(isinstance(d, Proven) for d in both)


def test_t0_converse_unknown():
    v = derive_le(T0, Const("c1"), Const("c0"))
    assert isinstance(v, UnknownWithin)
    assert v.universe_size >= 3 and v.inter_width == 2


def test_arrow_cap_equivalence():
    t = parse_theory("constants a b; flags arrow-cap")
    both = derive_equiv(t, parse_ty("(b -> a) & (b -> b)"), parse_ty("b -> a & b"))
    assert all(isinstance(d, Proven) for d in both)
    for d in both:
        assert check_subproof(t, d.proof) == Valid()


def test_arrow_top_equivalence():
    t = parse_theory("constants a; flags arrow-U")
    both = derive_equiv(t, TOP, parse_ty("a -> U"))
    assert all(isinstance(d, Proven) for d in both)


def test_trivial_equiv():
    both = derive_equiv(T1, Const("c0"), Const("c0"))
    assert all(isinstance(d, Proven) for d in both)


def test_top_le_rule():
    # U <= a -> b forces U <= b when the U-leq scheme is on.
    t = parse_theory("constants a b; flags U-leq; axiom U <= a -> b")
    assert isinstance(derive_le(t, TOP, Const("b")), Proven)
    t2 = parse_theory("constants a b; axiom U <= a -> b")
    assert isinstance(derive_le(t2, TOP, Const("b")), UnknownWithin)


def test_is_top_equiv():
    assert isinstance(is_top_equiv(T1, TOP), Proven)
    t = parse_theory("constants a; flags arrow-U")
    assert isinstance(is_top_equiv(t, parse_ty("a -> U")), Proven)
    assert isinstance(is_top_equiv(T1, Const("c0")), UnknownWithin)


# -- the seed index ------------------------------------------------------------


def test_seed_index_entries_die_with_the_cache(monkeypatch):
    a, b = parse_ty("c0 -> c0"), parse_ty("c1 -> c0")
    earlier = weakref.ref(context_for(T0, (a, b)))
    built = []
    real = subtyping.build_universe

    def counting(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(subtyping, "build_universe", counting)
    derive_le(T0, a, b)
    assert built == []  # the seed set is indexed
    saturated_ctx.cache_clear()
    gc.collect()
    assert earlier() is None
    derive_le(T0, a, b)
    assert len(built) == 1


def test_seed_sets_with_one_universe_share_one_context():
    f = parse_ty("c0 -> c1")
    saturated_ctx.cache_clear()
    ctx = context_for(T1, (f, Const("c0")))
    assert context_for(T1, (f, Const("c1"))) is ctx
    assert context_for(T1, (f,)) is ctx
    assert saturated_ctx.cache_info().misses == 1


def test_seed_index_keys_theory_and_width():
    seeds = (Const("c0"), Const("c1"))
    for t in (T0, T1):
        for width in (1, 2):
            ctx = context_for(t, seeds, width)
            assert ctx.theory == t
            assert ctx.universe == build_universe(t, seeds, width)


def test_saturations_count_distinct_universes():
    reg = builtin_theories()
    t4, park = reg.lookup("T4").spec, reg.lookup("Park").spec
    f = parse_ty("c0 -> c1")
    calls = [
        ("le", T0, parse_ty("c0 -> c0"), parse_ty("c1 -> c0")),
        ("infer", t4, Basis.of(), parse_term(r"(\x. x x) (\x. x x)"), parse_ty("c3")),
        ("le", t4, f, Const("c0")),
        ("le", t4, f, Const("c1")),  # another seed set, the same universe
        ("infer", t4, Basis.of(x=f), parse_term("x"), Const("c0")),
        ("le", t4, Const("c1"), f),  # a repeated seed set
        ("infer", park, Basis.of(), parse_term(r"\x. x"), parse_ty("c")),
        ("le", T0, parse_ty("c1 -> c0"), parse_ty("c0 -> c0")),
        ("infer", t4, Basis.of(), parse_term(r"\y. y"), parse_ty("c3")),
        ("le", park, Const("c"), parse_ty("c -> c")),
    ]
    saturated_ctx.cache_clear()
    universes = set()
    for kind, t, *args in calls:
        if kind == "le":
            derive_le(t, *args)
            seeds = args
        else:
            g, m, a = args
            infer_bounded(t, g, m, a, fuel=200)
            seeds = [a, *g.types()]
        universes.add((t, build_universe(t, seeds)))
    assert saturated_ctx.cache_info().misses == len(universes) < len(calls)


def test_index_hits_keep_their_context_recent():
    # More universes pass than the cache holds.  A context asked for at every
    # step stays recent, so it is saturated once, as when every query builds
    # its universe.
    t = parse_theory("constants c0 c1")
    hot = (Const("c0"), Const("c1"))
    atoms = ("c0", "c1", "U")
    chains = [parse_ty(f"{a} -> {b} -> {c}") for a, b, c in product(atoms, repeat=3)]
    maxsize = saturated_ctx.cache_info().maxsize
    cold = list(combinations(chains, 2))[: maxsize + 40]
    assert len(cold) > maxsize
    # a pair's universe holds its two chains and no other, so all differ
    assert len({build_universe(t, pair, 1) for pair in [hot, *cold]}) == 1 + len(cold)
    saturated_ctx.cache_clear()
    for pair in cold:
        context_for(t, hot, 1)
        context_for(t, pair, 1)
    assert saturated_ctx.cache_info().misses == 1 + len(cold)


# -- chain models ----------------------------------------------------------------


def schema_tables(flag: RuleFlag, h: int) -> set[tuple[int, ...]]:
    """The arrow tables of height h under which every instance of the flag's
    schema, its metavariables read over the chain 0 < .. < h - 1, takes true
    premises to a true conclusion.  An instance is a list of premises and a
    conclusion, each a pair lo <= hi; table f reads x -> y as f[h * x + y]."""
    r, top = range(h), h - 1
    out = set()
    for f in product(r, repeat=h * h):

        def arr(x, y):
            return f[h * x + y]

        if flag is RuleFlag.ARROW:  # B' <= B and A <= A' give B -> A <= B' -> A'
            rules = (
                ([(b2, b), (a, a2)], (arr(b, a), arr(b2, a2)))
                for b, b2, a, a2 in product(r, repeat=4)
            )
        elif flag is RuleFlag.ARROW_TOP:  # U ~ A -> U
            rules = (([], (top, arr(a, top))) for a in r)
        elif flag is RuleFlag.ARROW_CAP:  # (B -> A) & (B -> A') ~ B -> A & A'
            rules = (
                ([], pair)
                for b, a, a2 in product(r, repeat=3)
                for both, meet in [(min(arr(b, a), arr(b, a2)), arr(b, min(a, a2)))]
                for pair in ((both, meet), (meet, both))
            )
        else:  # U <= B -> A gives U <= A
            rules = (([(top, arr(b, a))], (top, a)) for b, a in product(r, repeat=2))
        if all(lo <= hi for prems, (lo, hi) in rules if all(p <= q for p, q in prems)):
            out.add(f)
    return out


@pytest.mark.parametrize("flag", list(RuleFlag))
def test_each_flag_admits_the_tables_its_schema_holds_in(flag):
    for h in subtyping.HEIGHTS:
        assert set(subtyping._tables(frozenset({flag}), h)) == schema_tables(flag, h)


@st.composite
def model_queries(draw):
    """A theory with any flags, order pairs and axioms, among them axioms
    U <= d -> d, and a pair at width 1 or 2."""
    consts = sorted(draw(st.sets(st.sampled_from(["c0", "c1", "c2"]), min_size=1)))
    leaf = st.sampled_from([TOP, *map(Const, consts)])
    tys = st.recursive(
        leaf, lambda s: st.builds(Arrow, s, s) | st.builds(Inter, s, s), max_leaves=3
    )
    axiom = st.builds(AxiomDecl, st.sampled_from(["le", "eq"]), tys, tys) | st.builds(
        lambda d: AxiomDecl("le", TOP, Arrow(d, d)), tys
    )
    pairs = st.tuples(st.sampled_from(consts), st.sampled_from(consts))
    t = TheorySpec(
        "rnd",
        frozenset(consts),
        draw(st.frozensets(st.sampled_from(list(RuleFlag)))),
        tuple(draw(st.lists(axiom, max_size=3))),
        tuple(draw(st.lists(pairs, max_size=2))),
    )
    return t, draw(tys), draw(tys), draw(st.integers(1, 2))


def schema_query(flags: str, axiom: str, a: str, b: str, constants: str = "c0 c1 c2") -> tuple:
    text = f"constants {constants}; flags {flags}" + (f"; axiom {axiom}" if axiom else "")
    return parse_theory(text), parse_ty(a), parse_ty(b), 2


def builtin_query(name: str, a: str, b: str) -> tuple:
    return BUILTINS[name], parse_ty(a), parse_ty(b), 2


@settings(max_examples=200, deadline=None)
@given(model_queries())
# one instance of each flag's schema, which random pairs rarely assemble, in
# theories with a two-element bank only
@example(schema_query("arrow", "", "c0 -> c0", "c0 -> U"))
@example(schema_query("arrow-U", "", "U", "c0 -> U"))
@example(schema_query("arrow-cap", "", "c0 -> c1 & c2", "(c0 -> c1) & (c0 -> c2)"))
@example(schema_query("U-leq", "U <= c0 -> c0", "U", "c0"))
# and in theories with a three-element bank
@example(schema_query("arrow arrow-U U-leq", "", "U -> c0", "c0 -> c0", "c0"))
@example(schema_query("arrow-U U-leq", "", "U", "c0 -> U", "c0"))
@example(
    schema_query(
        "arrow-cap arrow-U U-leq", "", "c0 -> c0 & c1", "(c0 -> c0) & (c0 -> c1)", "c0 c1"
    )
)
@example(schema_query("arrow-U U-leq", "U <= c0 -> c0", "U", "c0", "c0"))
# pairs that only a three-element model refutes
@example(builtin_query("Park", "c", "U -> c"))
@example(builtin_query("Tsharp", "c2", "c0"))
def test_no_model_refutes_a_saturated_fact(query):
    t, a, b, width = query
    universe = build_universe(t, (a, b), width)
    assume(len(universe.members) <= 60)
    ctx = SubtypeCtx(t, universe)
    for h in subtyping.HEIGHTS:
        bank = subtyping.chain_models(t, h)
        if bank is None:
            continue
        for x, row in enumerate(ctx.succ):
            for y in bits(row):
                assert not bank.refutes(ctx.members[x], ctx.members[y]), (h, x, y)
    got = derive_le(t, a, b, width)
    if ctx.holds(a, b):
        assert isinstance(got, Proven)
        assert unparse_subproof(got.proof) == unparse_subproof(ctx.proof(a, b))
    else:
        assert got == UnknownWithin(len(universe.members), width)


@pytest.mark.parametrize("name, a, b", [("Park", "c", "U -> c"), ("Tsharp", "c2", "c0")])
def test_a_three_element_model_refutes_what_no_two_element_one_does(name, a, b):
    t, a, b = BUILTINS[name], parse_ty(a), parse_ty(b)
    assert not subtyping.chain_models(t, 2).refutes(a, b)
    assert subtyping.chain_models(t, 3).refutes(a, b)
    assert subtyping.refuted(t, a, b)


def test_a_refuted_query_builds_no_context():
    a, b = parse_ty("c1 -> c1"), Const("c0")
    assert subtyping.refuted(T0, a, b)
    saturated_ctx.cache_clear()
    universe = build_universe(T0, (a, b))
    assert universe.base.members < universe.members
    assert derive_le(T0, a, b) == UnknownWithin(len(universe.members), 2)
    assert saturated_ctx.cache_info().misses == 0
    assert (T0, frozenset((a, b)), 2) not in subtyping._BY_SEEDS
    # the bank outlives the cache
    bank = subtyping.chain_models(T0, 2)
    saturated_ctx.cache_clear()
    gc.collect()
    assert subtyping.chain_models(T0, 2) is bank


def test_the_bank_stops_at_the_member_bound():
    wide = parse_theory("constants " + " ".join(f"c{i}" for i in range(11)))
    assert subtyping.chain_models(wide, 2) is None
    a, b = parse_ty("c1 -> c1"), Const("c0")
    assert not subtyping.refuted(wide, a, b)
    saturated_ctx.cache_clear()
    assert isinstance(derive_le(wide, a, b), UnknownWithin)
    assert saturated_ctx.cache_info().misses == 1
    ten = parse_theory("constants " + " ".join(f"c{i}" for i in range(10)))
    assert subtyping.refuted(ten, a, b)


@pytest.mark.parametrize(
    "name, height_3",
    [
        ("T0", False),
        ("EP", False),
        ("Ainf5", False),
        ("T4", True),
        ("T3", True),
        ("Tflat", True),
        ("TCDZ", True),
        ("T2inv", True),
        ("Park", True),
        ("Tsharp", True),
    ],
)
def test_the_height_3_bank_stops_at_the_member_bound(monkeypatch, name, height_3):
    # a copy under another name has no bank yet
    t = dataclasses.replace(BUILTINS[name], name="copy")
    enumerated = []
    real = subtyping._tables
    monkeypatch.setattr(
        subtyping, "_tables", lambda flags, h: enumerated.append(h) or real(flags, h)
    )
    assert subtyping.chain_models(t, 2) is not None
    assert (subtyping.chain_models(t, 3) is not None) == height_3
    assert enumerated == ([2, 3] if height_3 else [2])


def test_an_undeclared_constant_skips_the_bank():
    assert subtyping.refuted(T0, Const("c1"), Const("c0"))
    assert not subtyping.refuted(T0, Const("z"), Const("c0"))
    assert not subtyping.refuted(T0, Const("c1"), parse_ty("c0 & z"))
    park = BUILTINS["Park"]
    assert not subtyping.refuted(park, Const("c"), parse_ty("(U -> c) & z"))


def test_an_extension_shares_the_base_proofs():
    ctx = context_for(T0, (parse_ty("c1 -> c1"),))
    lo, hi = parse_ty("c0 -> c0"), parse_ty("c1 -> c0")
    assert ctx.base_ctx is not None
    assert ctx.proof(lo, hi) is ctx.base_ctx.proof(lo, hi)


# -- checker -----------------------------------------------------------------


def test_checker_rejects_trans_middle_mismatch():
    bad = SubProof(
        "Trans",
        (Const("c0"), Const("c1")),
        (
            SubProof("Refl", (Const("c0"), Const("c0"))),
            SubProof("Refl", (Const("c1"), Const("c1"))),
        ),
    )
    out = check_subproof(T1, bad)
    assert isinstance(out, Invalid)


def test_checker_rejects_unflagged_rule():
    p = SubProof(
        "ArrowRule",
        (parse_ty("c0 -> c0"), parse_ty("c0 -> c0")),
        (
            SubProof("Refl", (Const("c0"), Const("c0"))),
            SubProof("Refl", (Const("c0"), Const("c0"))),
        ),
    )
    out = check_subproof(T1, p)
    assert isinstance(out, Invalid) and "flag" in out.reason
    flagged = parse_theory("constants c0 c1; flags arrow")
    assert check_subproof(flagged, p) == Valid()


def test_checker_rejects_fake_axiom():
    p = SubProof("Axiom", (Const("c1"), Const("c0")))
    assert isinstance(check_subproof(T0, p), Invalid)


def test_checker_reports_path():
    bad_leaf = SubProof("Refl", (Const("c0"), Const("c1")))
    root = SubProof(
        "Trans",
        (Const("c0"), Const("c1")),
        (bad_leaf, SubProof("Refl", (Const("c1"), Const("c1")))),
    )
    out = check_subproof(T1, root)
    assert isinstance(out, Invalid)
    assert out.path == (0,)


# -- random theories against a naive fixed-point oracle ------------------------


def naive_closure(t: TheorySpec, universe) -> set:
    """Full-recompute fixed point over the universe; no worklist, no indexes."""
    members = sorted(universe.members, key=ty_key)
    arrows = [m for m in members if isinstance(m, Arrow)]
    inters = [m for m in members if isinstance(m, Inter)]
    pairs: set = set()
    for m in members:
        pairs.add((m, m))
        pairs.add((m, TOP))
    for lhs, rhs in t.le_axiom_pairs():
        pairs.add((canonicalize(lhs), canonicalize(rhs)))
    for z in inters:
        for p in inter_parts(z):
            pairs.add((z, p))
    if RuleFlag.ARROW_TOP in t.flags:
        for m in arrows:
            if m.cod == TOP:
                pairs.add((TOP, m))
    if RuleFlag.ARROW_CAP in t.flags:
        for z in inters:
            parts = inter_parts(z)
            if all(isinstance(p, Arrow) for p in parts) and len({p.dom for p in parts}) == 1:
                rhs = canonicalize(Arrow(parts[0].dom, make_inter([p.cod for p in parts])))
                if rhs in universe.members:
                    pairs.add((z, rhs))
                    pairs.add((rhs, z))

    while True:
        new = set()
        for x, y in pairs:
            for y2, z in pairs:
                if y2 == y:
                    new.add((x, z))
        for z in inters:
            parts = inter_parts(z)
            for x in members:
                if all((x, p) in pairs for p in parts):
                    new.add((x, z))
        for f in arrows:
            for g in arrows:
                dom_le = (g.dom, f.dom) in pairs
                cod_le = (f.cod, g.cod) in pairs
                if RuleFlag.ARROW in t.flags and dom_le and cod_le:
                    new.add((f, g))
                if dom_le and cod_le and (f.dom, g.dom) in pairs and (g.cod, f.cod) in pairs:
                    new.add((f, g))
                    new.add((g, f))
        if RuleFlag.TOP_LE in t.flags:
            for x, y in pairs:
                if x == TOP and isinstance(y, Arrow) and y.cod in universe.members:
                    new.add((TOP, y.cod))
        if new <= pairs:
            return pairs
        pairs |= new


@st.composite
def tiny_setup(draw):
    consts = draw(st.sets(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=3))
    base = st.one_of(st.builds(Const, st.sampled_from(sorted(consts))), st.just(TOP))
    tys = st.recursive(
        base,
        lambda s: st.one_of(st.builds(Arrow, s, s), st.builds(Inter, s, s)),
        max_leaves=3,
    )
    axioms = tuple(
        AxiomDecl(draw(st.sampled_from(["le", "eq"])), draw(tys), draw(tys))
        for _ in range(draw(st.integers(0, 2)))
    )
    flags = draw(st.frozensets(st.sampled_from(list(RuleFlag))))
    t = TheorySpec("rnd", frozenset(consts), flags, axioms)
    seeds = [draw(tys), draw(tys)]
    width = draw(st.integers(1, 2))
    return t, seeds, width


@given(tiny_setup())
def test_engine_matches_naive_closure(setup):
    t, seeds, width = setup
    universe = build_universe(t, seeds, width)
    assume(len(universe.members) <= 11)
    ctx = saturated_ctx(t, universe)
    assert ctx.facts == naive_closure(t, universe)


@given(tiny_setup())
def test_proofs_validate_and_relation_is_preordered(setup):
    t, seeds, width = setup
    universe = build_universe(t, seeds, width)
    assume(len(universe.members) <= 9)
    ctx = saturated_ctx(t, universe)
    for m in universe.members:
        assert (m, m) in ctx.facts
    facts = sorted(ctx.facts, key=lambda p: (ty_key(p[0]), ty_key(p[1])))
    for x, y in facts[:60]:
        assert check_subproof(t, ctx.proof(x, y)) == Valid()
    by_lhs = {}
    for x, y in facts:
        by_lhs.setdefault(x, set()).add(y)
    for x, y in facts:
        for z in by_lhs.get(y, ()):
            assert (x, z) in ctx.facts


# -- contexts that extend their theory's base ------------------------------------


def assert_extension_is_the_fixed_point(t: TheorySpec, seeds, width: int) -> None:
    """The context of seeds has the rows of the same universe saturated from
    nothing, and every fact's proof checks."""
    ctx = context_for(t, seeds, width)
    base = ctx.universe.base
    assert (ctx.base_ctx is not None) == (base.members < ctx.universe.members)
    alone = SubtypeCtx(t, subtyping.Universe(ctx.universe.members))
    assert alone.base_ctx is None
    assert ctx.members == alone.members
    assert ctx.succ == alone.succ
    assert ctx.pred == alone.pred
    seen: set[int] = set()
    for a, row in enumerate(ctx.succ):
        for b in bits(row):
            proof = ctx.proof(ctx.members[a], ctx.members[b])
            assert check_subproof(t, proof, seen) == Valid()


@st.composite
def extension_queries(draw):
    """A built-in theory, a width of 1 or 2, and one to three seeds: arrows
    and intersections of up to three leaves over its constants and U."""
    t = BUILTINS[draw(st.sampled_from(sorted(BUILTINS)))]
    leaves = st.sampled_from([TOP, *(Const(c) for c in sorted(t.constants))])
    node = st.builds(Arrow, leaves, leaves) | st.builds(Inter, leaves, leaves)
    seed = node | st.builds(Arrow, node, leaves) | st.builds(Inter, node, leaves)
    seeds = draw(st.lists(seed, min_size=1, max_size=3))
    return t, seeds, draw(st.sampled_from([1, 2]))


@settings(max_examples=60)
@given(extension_queries())
def test_extension_reaches_the_fixed_point_on_builtin_theories(query):
    assert_extension_is_the_fixed_point(*query)


@settings(max_examples=150)
@given(tiny_setup())
def test_extension_reaches_the_fixed_point_on_random_theories(setup):
    t, seeds, width = setup
    assert_extension_is_the_fixed_point(t, seeds, width)


def test_a_universe_equal_to_its_base_gets_the_base_context(monkeypatch):
    saturated_ctx.cache_clear()
    t = BUILTINS["TCDZ"]
    own = context_for(t, (), 2)
    # a seed the base holds already adds nothing to the universe
    assert context_for(t, (Const("c3"),), 2) is own
    assert own is own.universe.base.ctx and own.base_ctx is None
    grown = context_for(t, (parse_ty("c3 -> c3 -> c4"),), 2)
    assert grown.base_ctx is own
    # two universes on the base and the base's own: three saturations by the
    # LRU's count, and the base saturated once, before the first extension
    built = []
    real = subtyping.SubtypeCtx.__init__

    def counting(self, *args):
        real(self, *args)
        built.append(len(self.members))

    monkeypatch.setattr(subtyping.SubtypeCtx, "__init__", counting)
    size = len(own.members)
    del own, grown
    saturated_ctx.cache_clear()
    gc.collect()
    context_for(t, (parse_ty("c4 -> c4"), Const("c3")))
    context_for(t, (parse_ty("c3 -> c3"), Const("c3")))
    context_for(t, (parse_ty("c4 -> c3"), Const("c4")))  # the base's own universe
    assert built[0] == size and size not in built[1:]
    assert len(built) == 3
    assert saturated_ctx.cache_info().misses == 3


def test_the_base_context_dies_with_the_cache():
    saturated_ctx.cache_clear()
    ctx = context_for(T0, (parse_ty("c1 -> c1"),))
    base = weakref.ref(ctx.base_ctx)
    assert saturated_ctx.cache_info().misses == 1  # the base is off the LRU
    del ctx
    saturated_ctx.cache_clear()
    gc.collect()
    assert base() is None


def test_repeated_proofs_are_one_shared_object():
    t = builtin_theories().lookup("TCDZ").spec
    universe = build_universe(t, [parse_ty("c3 -> c4"), parse_ty("c4 & U")], 2)
    warm, cold = SubtypeCtx(t, universe), SubtypeCtx(t, universe)
    facts = sorted(warm.facts, key=lambda p: (ty_key(p[0]), ty_key(p[1])))
    first = [warm.proof(x, y) for x, y in facts]
    for (x, y), p in zip(facts, first):
        again = warm.proof(x, y)
        assert again is p
        assert repr(again) == repr(SubtypeCtx(t, universe).proof(x, y))
    for (x, y), p in zip(reversed(facts), reversed(first)):
        assert repr(cold.proof(x, y)) == repr(p)


@given(tiny_setup())
def test_aci_laws_proven_everywhere(setup):
    t, seeds, _ = setup
    a = seeds[0]
    both = derive_equiv(t, a, canonicalize(a), inter_width=2)
    assert all(isinstance(d, Proven) for d in both)


@given(tiny_setup())
def test_arrow_congruence_always_on(setup):
    t, seeds, _ = setup
    a, b = seeds
    lhs = Arrow(a, b)
    rhs = Arrow(canonicalize(a), canonicalize(b))
    both = derive_equiv(t, lhs, rhs, inter_width=1)
    assert all(isinstance(d, Proven) for d in both)


@given(tiny_setup())
def test_width_monotone(setup):
    t, seeds, _ = setup
    a, b = seeds
    v1 = derive_le(t, a, b, inter_width=1)
    if isinstance(v1, Proven):
        assert isinstance(derive_le(t, a, b, inter_width=2), Proven)


def test_inter_commutes_and_associates():
    a, b, c = Const("c0"), Const("c1"), parse_ty("c0 -> c0")
    t = T1
    for lhs, rhs in [
        (Inter(a, b), Inter(b, a)),
        (Inter(Inter(a, b), c), Inter(a, Inter(b, c))),
        (Inter(a, a), a),
        (Inter(a, TOP), a),
    ]:
        both = derive_equiv(t, lhs, rhs)
        assert all(isinstance(d, Proven) for d in both)


# -- probes ------------------------------------------------------------------


def test_beta_probe_t0_counterexample():
    v = beta_soundness_probe(T0, 3)
    assert isinstance(v, CounterexampleFound)
    assert v.lhs == parse_ty("c0 -> c0") and v.rhs == parse_ty("c1 -> c0")
    assert v.bounded_only


def test_beta_probe_t1_clean():
    assert beta_soundness_probe(T1, 3) == NoCounterexampleUpTo(3)


def test_beta_probe_repaired_t0_clean():
    t = parse_theory(
        "constants c0 c1; axiom c0 -> c0 <= c1 -> c0; axiom c1 <= c0"
    )
    assert beta_soundness_probe(t, 3) == NoCounterexampleUpTo(3)


def test_beta_probe_left_sides_match_the_plain_enumeration():
    # the left sides are enumerated without building over-size meets; they
    # must be exactly those the plain enumeration keeps, in the same order
    pool = _types_up_to(T0.constants, 3)
    for arrows, width, caps in (
        ([Arrow(b, a) for b in pool for a in pool], 2, (5, 7)),
        ([Arrow(b, a) for b in pool[:8] for a in pool[:8]], 3, (7, 9, 11, 13)),
    ):
        meets = [(ar, (ar,)) for ar in arrows]
        for k in range(2, width + 1):
            for combo in combinations(arrows, k):
                ty = canonicalize(make_inter(combo))
                if isinstance(ty, Inter):
                    meets.append((ty, combo))
        meets.sort(key=lambda pair: ty_key(pair[0]))
        for cap in caps:
            want = [(ty, c) for ty, c in meets if len(c) == 1 or ty_size(ty) <= cap]
            assert _arrow_meets(arrows, cap, width) == want


PROBE_VERDICTS = Path(__file__).parent / "data" / "probe_verdicts.json"
# Small theories whose first counterexample depends on the order in which a
# probe visits its right sides, or on its ~ U filter.
PROBE_ORDER_THEORIES = {
    # two unjustified right sides for one left side
    "TwoRhs": "theory TwoRhs; constants c0 c1 c2; "
    "axiom c0 -> c0 <= c1 -> c0; axiom c0 -> c0 <= c2 -> c0",
    # c1 lies below two arrows into c0
    "URhs": "theory URhs; constants c0 c1; axiom c1 <= U -> c0; axiom c1 <= c0 -> c0",
    # c0 ~ U, so the ~ U filter drops every arrow into c0
    "TopConst": "theory TopConst; constants c0 c1; axiom U <= c0",
}
# theories whose probes at depth 3, width 2 take a few seconds at most
DEPTH3_PROBE_THEORIES = (
    "T0", "T0le", "T1", "Park", "Tstar", "Tstarup", "Tflat", *PROBE_ORDER_THEORIES,
)


def probe_theories() -> dict[str, TheorySpec]:
    reg = builtin_theories()
    out = {name: reg.lookup(name).spec for name in reg.names()}
    out.update((name, parse_theory(src)) for name, src in PROBE_ORDER_THEORIES.items())
    return out


def probe_cases() -> list[tuple[str, int, int]]:
    """(theory, depth, width): every theory above at depths 1-2 and widths
    1-3, and the depth-3 ones at depth 3, width 2."""
    cases = [(name, d, w) for name in probe_theories() for d in (1, 2) for w in (1, 2, 3)]
    cases += [(name, 3, 2) for name in DEPTH3_PROBE_THEORIES]
    return cases


def probe_verdicts() -> dict[str, str]:
    """repr of the beta probe's verdicts, keyed by probe, theory, depth and
    width."""
    theories = probe_theories()
    out = {}
    for name, d, w in probe_cases():
        key = f"beta_soundness_probe {name} depth={d} width={w}"
        out[key] = repr(beta_soundness_probe(theories[name], d, w))
    return out


def test_probe_verdicts_match_recorded():
    # the first counterexample the probe reports is pinned, so a probe that
    # walks its right sides in another order, or drops a filter, fails here
    got = probe_verdicts()
    want = json.loads(PROBE_VERDICTS.read_text(encoding="utf-8"))
    assert got.keys() == want.keys()
    for key in want:
        assert got[key] == want[key], key


def test_probes_deterministic():
    assert beta_soundness_probe(T0, 3) == beta_soundness_probe(T0, 3)


def test_probes_reject_bad_depth():
    with pytest.raises(InvalidInput):
        beta_soundness_probe(T1, 0)


# -- the fixed point and its certificates, pinned ------------------------------

FINGERPRINTS = Path(__file__).parent / "data" / "saturation_fingerprints.json"


def saturation_fingerprint(t: TheorySpec, width: int) -> dict:
    """Fact count and sha256 of the sorted printed facts of t's own universe
    (axiom sides and U, no seeds) at the given intersection width."""
    ctx = saturated_ctx(t, build_universe(t, [], width))
    lines = sorted(f"{print_ty(a)} <= {print_ty(b)}" for a, b in ctx.facts)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return {"facts": len(lines), "sha256": digest}


def saturation_fingerprints() -> dict:
    reg = builtin_theories()
    return {
        name: {str(w): saturation_fingerprint(reg.lookup(name).spec, w) for w in (1, 2, 3)}
        for name in reg.names()
    }


def test_fixed_point_matches_recorded_fingerprints():
    assert saturation_fingerprints() == json.loads(FINGERPRINTS.read_text(encoding="utf-8"))


JUSTIFICATIONS = Path(__file__).parent / "data" / "justification_fingerprints.json"

# U <= c -> c under (U<=) gives U <= c by TopLe, which no built-in theory fires
TOP_LE_THEORY = parse_theory("theory TopLe; constants c; flags U-leq; axiom U <= c -> c")

RULES = {
    "Refl", "Axiom", "IncL", "IncR", "Utop", "ArrowTop", "ArrowCap",
    "ArrowRule", "TopLe", "ArrCong", "Glb", "Trans",
}


def justification_lines(ctx: SubtypeCtx) -> list[str]:
    """The sorted lines `a <= b : rule : premises` of the context's
    justifications, each premise printed as a pair in its recorded order."""
    ms = ctx.members

    def pair(fact: tuple[int, int]) -> str:
        return f"{print_ty(ms[fact[0]])} <= {print_ty(ms[fact[1]])}"

    lines = []
    for a, row in enumerate(ctx.succ):
        for b in bits(row):
            rule, prems = ctx.justification((a, b))
            lines.append(f"{pair((a, b))} : {rule} : {', '.join(pair(p) for p in prems)}")
    return sorted(lines)


def justification_contexts() -> Iterator[tuple[str, str, SubtypeCtx]]:
    """(theory, key, context) for every built-in theory's own universe at
    widths 1-3 (keyed by width), the universe derive_le builds for each of
    CERTIFIED_PAIRS (keyed by the query), which fire ArrCong in both premise
    orders, ArrowTop and ArrowCap, and TOP_LE_THEORY's own universe."""
    reg = builtin_theories()
    for name in reg.names():
        t = reg.lookup(name).spec
        for w in (1, 2, 3):
            yield name, str(w), saturated_ctx(t, build_universe(t, [], w))
    for name, a, b in CERTIFIED_PAIRS:
        t = reg.lookup(name).spec
        yield name, f"{a} <= {b}", context_for(t, (parse_ty(a), parse_ty(b)))
    yield TOP_LE_THEORY.name, "1", saturated_ctx(
        TOP_LE_THEORY, build_universe(TOP_LE_THEORY, [], 1)
    )


def justification_fingerprints() -> dict:
    """sha256 of each context's justification_lines, by theory and key."""
    out: dict[str, dict[str, str]] = {}
    for name, key, ctx in justification_contexts():
        lines = justification_lines(ctx)
        out.setdefault(name, {})[key] = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return out


def test_justifications_match_recorded_fingerprints():
    # the fact set alone would not notice a saturation that proves the same
    # facts by other rules or premises
    assert justification_fingerprints() == json.loads(
        JUSTIFICATIONS.read_text(encoding="utf-8")
    )


def test_justification_fixture_fires_every_rule():
    # a rule no pinned context fires could change its premises unnoticed:
    # check_subproof compares ArrCong premises as a set, for one
    fired = {
        line.split(" : ")[1]
        for _, _, ctx in justification_contexts()
        for line in justification_lines(ctx)
    }
    assert fired == RULES


CERTIFIED_PAIRS = (
    ("T4", "c0 -> c3", "c0"),
    ("T4", "(c0 -> c1) & (c0 -> c2)", "c0 -> c1 & c2"),
    ("EP", "c3 & c2", "c5 & c2"),
    ("EP", "c3", "c1 -> c3"),
    ("EP", "c3", "c2 -> c3"),
    ("TCDZ", "c4 & c3", "c3 -> U"),
    ("TCDZ", "U -> c3", "c4 & c3"),
    ("TCDZ", "c4 -> c3", "c4 -> c4"),
    ("Park", "c", "(c -> c) -> c"),
    ("Park", "(c -> c) -> c", "c"),
    ("Park", "c", "U -> U"),
)

_PRINT_CERTIFICATES = """
import json
import sys
from ittlab.sensibility import builtin_theories
from ittlab.subtyping import derive_le
from ittlab.types import parse_ty
for name, a, b in json.loads(sys.argv[1]):
    t = builtin_theories().lookup(name).spec
    print(repr(derive_le(t, parse_ty(a), parse_ty(b)).proof))
"""


def test_certificates_do_not_depend_on_the_hash_seed():
    src = str(Path(ittlab.__file__).resolve().parents[1])
    outs = []
    for seed in ("0", "4242"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        run = subprocess.run(
            [sys.executable, "-c", _PRINT_CERTIFICATES, json.dumps(CERTIFIED_PAIRS)],
            env=env, capture_output=True, text=True, timeout=300, check=True,
        )
        outs.append(run.stdout)
    assert outs[0].count("\n") == len(CERTIFIED_PAIRS)
    assert outs[0] == outs[1]
