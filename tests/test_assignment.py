"""Derivation checking, bounded inference and its exactness against a
search that re-expands, expansion, and filters."""

import hashlib
import json
import os
import random
import subprocess
import sys
from collections import Counter
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ittlab
from ittlab import assignment, kernel
from ittlab.assignment import (
    DEFAULT_FUEL,
    Basis,
    Derivation,
    Found,
    Judgment,
    NotFoundWithinFuel,
    check_derivation,
    expand_derivation,
    infer_bounded,
    le_left,
    subject_reduction_probe,
    weaken,
)
from ittlab.errors import InvalidInput
from ittlab.sensibility import builtin_theories
from ittlab.sexpr import parse_derivation, unparse_derivation
from ittlab.filters import (
    FilterRep,
    filter_apply,
    filter_contains,
    filter_members,
    filter_up,
)
from ittlab.subtyping import (
    DEFAULT_WIDTH,
    Invalid,
    SubProof,
    Valid,
    build_universe,
    context_for,
)
from ittlab.terms import Abs, App, Var, alpha_eq, parse_term, print_term, substitute
from ittlab.theory import parse_theory
from ittlab.types import TOP, Arrow, Inter, canonicalize, parse_ty
from ittlab.terms import free_vars

T0 = parse_theory("theory T0\nconstants c0 c1\naxiom c0 -> c0 <= c1 -> c0\n")
T1 = parse_theory("theory T1\nconstants a b\n")
PARK = parse_theory("theory Park\nnatural\nconstants c\naxiom c ~ c -> c\n")
TCDZ = parse_theory(
    "theory TCDZ\nnatural\nconstants c3 c4\n"
    "flags arrow arrow-U arrow-cap U-leq\n"
    "axiom c3 ~ c4 -> c3\naxiom c4 ~ c3 -> c4\n"
)
OMEGA = parse_term(r"(\x.x x) (\x.x x)")


class TestBasis:
    def test_sorted_and_canonical(self):
        g = Basis.of(y=parse_ty("b & a & a"), x=parse_ty("a"))
        assert g.bindings == (("x", parse_ty("a")), ("y", canonicalize(parse_ty("a & b"))))

    def test_double_binding_rejected(self):
        with pytest.raises(InvalidInput):
            Basis((("x", parse_ty("a")), ("x", parse_ty("b"))))

    def test_extend_shadow_rejected(self):
        with pytest.raises(InvalidInput):
            Basis.of(x=parse_ty("a")).extend("x", parse_ty("b"))


class TestCheckDerivation:
    def test_axiom_node(self):
        g = Basis.of(x=parse_ty("a"))
        d = Derivation("Ax", Judgment(g, Var("x"), parse_ty("a")))
        assert check_derivation(T1, d) == Valid()

    def test_axiom_wrong_type(self):
        g = Basis.of(x=parse_ty("a"))
        d = Derivation("Ax", Judgment(g, Var("x"), parse_ty("b")))
        out = check_derivation(T1, d)
        assert isinstance(out, Invalid) and out.path == ()

    def test_topu_must_conclude_top(self):
        d = Derivation("TopU", Judgment(Basis(), Var("x"), parse_ty("a")))
        assert isinstance(check_derivation(T1, d), Invalid)

    def test_arri_basis_must_extend(self):
        body = Derivation("Ax", Judgment(Basis.of(x=parse_ty("b")), Var("x"), parse_ty("b")))
        lam = Derivation(
            "ArrI", Judgment(Basis(), parse_term(r"\x.x"), parse_ty("a -> a")), (body,)
        )
        out = check_derivation(T1, lam)
        assert isinstance(out, Invalid)

    def test_arre_domain_mismatch_path(self):
        g = Basis.of(f=parse_ty("a -> a"), y=parse_ty("b"))
        df = Derivation("Ax", Judgment(g, Var("f"), parse_ty("a -> a")))
        dy = Derivation("Ax", Judgment(g, Var("y"), parse_ty("b")))
        d = Derivation("ArrE", Judgment(g, App(Var("f"), Var("y")), parse_ty("a")), (df, dy))
        out = check_derivation(T1, d)
        assert isinstance(out, Invalid) and out.path == ()

    def test_capi_concludes_meet(self):
        g = Basis.of(x=parse_ty("a & b"))
        d1 = Derivation("Le", Judgment(g, Var("x"), parse_ty("a")),
                        (Derivation("Ax", Judgment(g, Var("x"), parse_ty("a & b"))),),
                        SubProof("IncL", (parse_ty("a & b"), parse_ty("a"))))
        d2 = Derivation("Le", Judgment(g, Var("x"), parse_ty("b")),
                        (Derivation("Ax", Judgment(g, Var("x"), parse_ty("a & b"))),),
                        SubProof("IncR", (parse_ty("a & b"), parse_ty("b"))))
        cap = Derivation("CapI", Judgment(g, Var("x"), parse_ty("a & b")), (d1, d2))
        assert check_derivation(T1, cap) == Valid()
        bad = Derivation("CapI", Judgment(g, Var("x"), parse_ty("a")), (d1, d2))
        assert isinstance(check_derivation(T1, bad), Invalid)

    def test_le_requires_valid_certificate(self):
        g = Basis.of(x=parse_ty("a"))
        ax = Derivation("Ax", Judgment(g, Var("x"), parse_ty("a")))
        bad = Derivation("Le", Judgment(g, Var("x"), parse_ty("b")), (ax,),
                         SubProof("Axiom", (parse_ty("a"), parse_ty("b"))))
        out = check_derivation(T1, bad)
        assert isinstance(out, Invalid) and "certificate" in out.reason

    def test_last_child_is_checked_first(self):
        g = Basis.of(x=parse_ty("a"))
        bad = Derivation("Ax", Judgment(g, Var("x"), parse_ty("b")))
        worse = Derivation("TopU", Judgment(g, Var("x"), parse_ty("a")))
        cap = Derivation("CapI", Judgment(g, Var("x"), parse_ty("a & b")), (bad, worse))
        out = check_derivation(T1, cap)
        assert out.path == (1,) and "TopU" in out.reason

    def test_nested_error_path(self):
        g = Basis.of(x=parse_ty("a"))
        bad_leaf = Derivation("Ax", Judgment(g, Var("x"), parse_ty("b")))
        lam = Derivation(
            "ArrI",
            Judgment(g.without("x"), Abs("x", Var("x")), parse_ty("a -> b")),
            (bad_leaf,),
        )
        out = check_derivation(T1, lam)
        assert isinstance(out, Invalid) and out.path == (0,)

    def test_arri_refusals_keep_their_wording(self):
        g = Basis.of(x=parse_ty("a"))
        ax = Derivation("Ax", Judgment(g, Var("x"), parse_ty("a")))
        lam = Derivation("ArrI", Judgment(g, Abs("x", Var("x")), parse_ty("a -> a")), (ax,))
        assert check_derivation(T1, lam) == Invalid(
            (), "binder 'x' shadows a basis variable"
        )
        other = Derivation("Ax", Judgment(Basis.of(x=parse_ty("a"), y=parse_ty("b")),
                                          Var("x"), parse_ty("a")))
        lam = Derivation(
            "ArrI", Judgment(Basis(), Abs("x", Var("x")), parse_ty("a -> a")), (other,)
        )
        assert check_derivation(T1, lam) == Invalid(
            (), "ArrI child basis must extend the conclusion basis by the binder"
        )

    def test_checking_builds_no_basis(self, monkeypatch):
        t = builtin_theories().lookup("T4").spec
        m = parse_term(r"(\x. x x) (\x. x x)")
        r = infer_bounded(t, Basis.of(), m, parse_ty("c3"), fuel=500)
        assert isinstance(r, Found)
        # a basis is built by the validating constructor or, by extend,
        # through Basis._sorted; the checker must use neither
        built = []
        original = Basis.__init__
        monkeypatch.setattr(
            Basis, "__init__", lambda self, b=(): built.append(self) or original(self, b)
        )
        sorted_ = Basis._sorted
        monkeypatch.setattr(
            Basis, "_sorted", staticmethod(lambda b: built.append(b) or sorted_(b))
        )
        assert check_derivation(t, r.derivation) == Valid()
        assert built == []
        # the probe itself sees both ways of building
        Basis.of(x=parse_ty("c3")).extend("y", parse_ty("c3"))
        assert len(built) == 2


class TestInferBounded:
    def test_variable_lookup_single_fuel(self):
        g = Basis.of(x=parse_ty("a"))
        out = infer_bounded(T1, g, Var("x"), parse_ty("a"), fuel=1)
        assert isinstance(out, Found) and out.derivation.rule == "Ax"

    def test_park_types_omega(self):
        out = infer_bounded(PARK, Basis(), OMEGA, parse_ty("c"), fuel=5000)
        assert isinstance(out, Found)
        assert check_derivation(PARK, out.derivation) == Valid()

    def test_tcdz_does_not_type_omega(self):
        out = infer_bounded(TCDZ, Basis(), OMEGA, parse_ty("c3"), fuel=500)
        assert isinstance(out, NotFoundWithinFuel)

    def test_identity_at_weakened_arrow(self):
        out = infer_bounded(T0, Basis(), parse_term(r"\x.x"), parse_ty("c1 -> c0"), fuel=2000)
        assert isinstance(out, Found)
        assert check_derivation(T0, out.derivation) == Valid()

    def test_negative_fuel_rejected(self):
        with pytest.raises(InvalidInput):
            infer_bounded(T1, Basis(), Var("x"), parse_ty("a"), fuel=-1)

    def test_zero_fuel_gives_up(self):
        g = Basis.of(x=parse_ty("a"))
        out = infer_bounded(T1, g, Var("x"), parse_ty("a"), fuel=0)
        assert isinstance(out, NotFoundWithinFuel)

    def test_found_concludes_requested_judgment(self):
        g = Basis.of(y=parse_ty("c1"))
        out = infer_bounded(T0, g, parse_term(r"(\x.x) y"), parse_ty("c0"), fuel=2000)
        assert isinstance(out, Found)
        c = out.derivation.conclusion
        assert c.basis == g and c.ty == parse_ty("c0")


names = st.sampled_from(["x", "y", "z"])
terms = st.recursive(
    st.builds(Var, names),
    lambda sub: st.one_of(st.builds(Abs, names, sub), st.builds(App, sub, sub)),
    max_leaves=8,
)
t1_types = st.recursive(
    st.sampled_from([parse_ty("a"), parse_ty("b"), TOP]),
    lambda sub: st.one_of(st.builds(Arrow, sub, sub), st.builds(Inter, sub, sub)),
    max_leaves=4,
).map(canonicalize)


class TestSearchProperties:
    @given(terms)
    def test_topu_universality(self, m):
        g = Basis.of(**{x: parse_ty("a") for x in free_vars(m)})
        out = infer_bounded(T1, g, m, TOP, fuel=5)
        assert isinstance(out, Found)
        assert check_derivation(T1, out.derivation) == Valid()

    @given(terms, t1_types)
    @settings(max_examples=200)
    def test_found_derivations_validate(self, m, a):
        g = Basis.of(**{x: parse_ty("a & b") for x in free_vars(m)})
        out = infer_bounded(T1, g, m, a, fuel=300)
        if isinstance(out, Found):
            assert check_derivation(T1, out.derivation) == Valid()
            c = out.derivation.conclusion
            assert c.basis == g and c.term == m and c.ty == canonicalize(a)

    @given(terms, st.sampled_from([parse_ty("c"), parse_ty("c -> c"), TOP]))
    @settings(max_examples=60)
    def test_park_found_derivations_validate(self, m, a):
        g = Basis.of(**{x: parse_ty("c") for x in free_vars(m)})
        out = infer_bounded(PARK, g, m, a, fuel=400)
        if isinstance(out, Found):
            assert check_derivation(PARK, out.derivation) == Valid()


class TestSubjectReduction:
    def test_t0_probe_fails_honestly(self):
        g = Basis.of(y=parse_ty("c1"))
        out = infer_bounded(T0, g, parse_term(r"(\x.x) y"), parse_ty("c0"), fuel=2000)
        assert isinstance(out, Found)
        probe = subject_reduction_probe(T0, out.derivation, fuel=2000)
        assert isinstance(probe, NotFoundWithinFuel)

    def test_top_judgment_always_preserved(self):
        g = Basis.of(y=parse_ty("c1"))
        d = Derivation("TopU", Judgment(g, parse_term(r"(\x.x) y"), TOP))
        probe = subject_reduction_probe(T0, d, fuel=10)
        assert isinstance(probe, Found)
        assert probe.derivation.rule == "TopU"

    def test_park_omega_preserved(self):
        out = infer_bounded(PARK, Basis(), OMEGA, parse_ty("c"), fuel=5000)
        probe = subject_reduction_probe(PARK, out.derivation, fuel=5000)
        assert isinstance(probe, Found)
        assert check_derivation(PARK, probe.derivation) == Valid()

    def test_requires_head_redex(self):
        g = Basis.of(x=parse_ty("a"))
        d = Derivation("Ax", Judgment(g, Var("x"), parse_ty("a")))
        with pytest.raises(InvalidInput):
            subject_reduction_probe(T1, d)

    def test_rejects_invalid_derivation(self):
        d = Derivation("TopU", Judgment(Basis(), parse_term(r"(\x.x) y"), parse_ty("a")))
        with pytest.raises(InvalidInput):
            subject_reduction_probe(T1, d)


class TestExpansion:
    def test_vacuous_abstraction(self):
        g = Basis.of(y=parse_ty("a"))
        d = infer_bounded(T1, g, Var("y"), parse_ty("a"), fuel=10).derivation
        out = expand_derivation(T1, d, "x", Var("y"), parse_term(r"\w.w w"))
        assert check_derivation(T1, out) == Valid()
        assert out.conclusion.ty == parse_ty("a")
        assert out.children[1].rule == "TopU"

    def test_identity_body(self):
        g = Basis.of(y=parse_ty("a"))
        d = infer_bounded(T1, g, Var("y"), parse_ty("a"), fuel=10).derivation
        out = expand_derivation(T1, d, "x", Var("x"), Var("y"))
        assert check_derivation(T1, out) == Valid()
        assert alpha_eq(out.conclusion.term, parse_term(r"(\x.x) y"))

    def test_park_rebuilds_omega(self):
        omega2 = parse_term(r"\x.x x")
        d = infer_bounded(PARK, Basis(), substitute(parse_term("x x"), "x", omega2),
                          parse_ty("c"), fuel=5000).derivation
        out = expand_derivation(PARK, d, "x", parse_term("x x"), omega2)
        assert check_derivation(PARK, out) == Valid()
        assert alpha_eq(out.conclusion.term, OMEGA)
        assert out.conclusion.ty == parse_ty("c")

    def test_mismatched_subject_rejected(self):
        g = Basis.of(y=parse_ty("a"))
        d = infer_bounded(T1, g, Var("y"), parse_ty("a"), fuel=10).derivation
        with pytest.raises(InvalidInput):
            expand_derivation(T1, d, "x", Var("x"), Var("z"))

    @given(terms, st.sampled_from(["x", "y"]),
           st.sampled_from([r"\w.w", r"\w.w w", "y"]), t1_types)
    @settings(max_examples=200)
    def test_round_trip_property(self, m, x, n_src, a):
        n = parse_term(n_src)
        sub = substitute(m, x, n)
        g = Basis.of(**{v: parse_ty("a & b") for v in free_vars(sub) | (free_vars(m) - {x})})
        out = infer_bounded(T1, g, sub, a, fuel=200)
        if not isinstance(out, Found):
            return
        expanded = expand_derivation(T1, out.derivation, x, m, n)
        assert check_derivation(T1, expanded) == Valid()
        c = expanded.conclusion
        assert c.basis == g and c.ty == canonicalize(a)
        assert isinstance(c.term, App) and isinstance(c.term.fun, Abs)
        assert alpha_eq(c.term.arg, n)
        assert alpha_eq(substitute(c.term.fun.body, c.term.fun.binder, n), sub)

    def test_occurrence_typed_at_an_intersection_of_parts(self):
        # x's occurrences are typed c0, c0 & c1 and c0 & c1 -> c0, so the
        # occurrence at c0 & c1 needs a Glb of two Inc steps from x_ty
        t = builtin_theories().lookup("T2inv").spec
        g = Basis.of(y=parse_ty("c0"), z=parse_ty("c1 -> c0"))
        s = parse_term(r"y (y y (y (\v1.v1)))")
        d = infer_bounded(t, g, s, parse_ty("c0 -> c1"), fuel=300).derivation
        out = expand_derivation(t, d, "x", substitute(s, "y", Var("x")), Var("y"))
        assert check_derivation(t, out) == Valid()
        assert out.conclusion.ty == parse_ty("c0 -> c1")
        subs = [n.sub for n in _nodes(out) if n.sub is not None]
        assert any(p.rule == "Glb" for p in subs)

    def test_argument_binder_shadowing_the_basis_is_renamed(self):
        t = builtin_theories().lookup("T1").spec
        n = parse_term(r"\z.z")
        d = infer_bounded(t, Basis.of(z=parse_ty("c0")), n, parse_ty("c1 -> c1")).derivation
        out = expand_derivation(t, d, "x", Var("x"), n)
        assert check_derivation(t, out) == Valid()
        assert alpha_eq(out.conclusion.term, parse_term(r"(\x.x) (\z.z)"))
        assert out.conclusion.term.arg.binder != "z"


def _nodes(d: Derivation) -> list[Derivation]:
    """Every node of d as a tree: a shared node once per path to it."""
    out, stack = [], [d]
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(node.children)
    return out


def _tree_check(t, d: Derivation):
    """check_derivation as a plain tree walk, every path visited."""
    stack = [(d, ())]
    while stack:
        node, path = stack.pop()
        why = kernel._node_reason(t, set(), node)
        if why is not None:
            return Invalid(path, why)
        stack.extend((ch, path + (i,)) for i, ch in enumerate(node.children))
    return Valid()


class TestSharedNodes:
    """The search shares subderivations; the checker visits each node once."""

    def _shared(self) -> Derivation:
        r = infer_bounded(PARK, Basis(), parse_term(r"(\x.x x x) (\y.y)"), parse_ty("c"))
        d = r.derivation
        assert len({id(n) for n in _nodes(d)}) < len(_nodes(d))
        return d

    def test_each_distinct_node_is_checked_once(self, monkeypatch):
        d = self._shared()
        checked = []

        def counted(t, seen, node):
            checked.append(node)
            return reason(t, seen, node)

        reason = kernel._node_reason
        monkeypatch.setattr(kernel, "_node_reason", counted)
        assert check_derivation(PARK, d) == Valid()
        assert len(checked) == len({id(n) for n in checked}) == len(
            {id(n) for n in _nodes(d)}
        )

    def test_corrupted_shared_node_reports_the_tree_walks_path(self):
        d = self._shared()
        paths = Counter(id(n) for n in _nodes(d))
        for shared in [n for n in _nodes(d) if paths[id(n)] > 1]:
            copies: dict[int, Derivation] = {}

            def corrupt(node: Derivation) -> Derivation:
                if id(node) not in copies:
                    if node is shared:
                        copies[id(node)] = Derivation("Bogus", node.conclusion)
                    else:
                        kids = tuple(corrupt(ch) for ch in node.children)
                        copies[id(node)] = Derivation(
                            node.rule, node.conclusion, kids, node.sub
                        )
                return copies[id(node)]

            bad = corrupt(d)
            got = check_derivation(PARK, bad)
            assert isinstance(got, Invalid) and got.reason == "unknown rule 'Bogus'"
            assert got == _tree_check(PARK, bad)


class TestAdmissible:
    def _some_derivation(self):
        g = Basis.of(y=parse_ty("c1"))
        return infer_bounded(T0, g, parse_term(r"(\x.x) y"), parse_ty("c0"), fuel=2000).derivation

    def test_weaken_revalidates(self):
        d = self._some_derivation()
        out = weaken(T0, d, "z", parse_ty("c0 -> c1"))
        assert check_derivation(T0, out) == Valid()
        assert out.conclusion.basis.get("z") == parse_ty("c0 -> c1")

    def test_weaken_rejects_bound_name(self):
        d = self._some_derivation()
        with pytest.raises(InvalidInput):
            weaken(T0, d, "y", parse_ty("c0"))

    def test_le_left_revalidates(self):
        g = Basis.of(y=parse_ty("a"))
        d = infer_bounded(T1, g, Var("y"), parse_ty("a"), fuel=10).derivation
        out = le_left(T1, d, "y", parse_ty("a & b"))
        assert check_derivation(T1, out) == Valid()
        assert out.conclusion.basis.get("y") == canonicalize(parse_ty("a & b"))
        assert out.conclusion.ty == parse_ty("a")

    def test_le_left_requires_derivable_bound(self):
        g = Basis.of(y=parse_ty("a"))
        d = infer_bounded(T1, g, Var("y"), parse_ty("a"), fuel=10).derivation
        with pytest.raises(InvalidInput):
            le_left(T1, d, "y", parse_ty("b"))

    # the ArrI node names its binder w, the root subject names it v; the
    # checker compares subjects up to alpha, so the derivation is valid
    RENAMED = parse_derivation(r"""
(ArrE (f:(a -> a) -> a, z:b |- f (\v.v) : a)
  (Ax (f:(a -> a) -> a, z:b |- f : (a -> a) -> a))
  (ArrI (f:(a -> a) -> a, z:b |- \w.w : a -> a)
    (Ax (f:(a -> a) -> a, w:a, z:b |- w : a))))
""")

    @staticmethod
    def _nodes(d):
        yield d
        for ch in d.children:
            yield from TestAdmissible._nodes(ch)

    def test_renamed_inner_binder_is_kept(self):
        d = self.RENAMED
        assert check_derivation(T1, d) == Valid()
        own = {print_term(node.conclusion.term) for node in self._nodes(d)}
        for out in (
            weaken(T1, d, "x", parse_ty("b")),
            le_left(T1, d, "f", parse_ty("((a -> a) -> a) & b")),
        ):
            assert check_derivation(T1, out) == Valid()
            assert {print_term(node.conclusion.term) for node in self._nodes(out)} == own
            assert print_term(out.children[1].conclusion.term) == r"\w.w"
        with pytest.raises(InvalidInput):
            weaken(T1, d, "w", parse_ty("b"))

    def test_weaken_by_an_inner_binder_is_refused(self):
        g = Basis.of(f=parse_ty("(a -> a) -> a"))
        d = infer_bounded(T1, g, parse_term(r"f (\v.v)"), parse_ty("a"), fuel=50).derivation
        with pytest.raises(InvalidInput):
            weaken(T1, d, "v", parse_ty("b"))

    def test_binder_renamed_by_the_search_survives(self):
        # y is bound at the root, so the search types \y.y as \y_1.y_1
        g = Basis.of(f=parse_ty("(a -> a) -> a"), y=parse_ty("b"))
        d = infer_bounded(T1, g, parse_term(r"f (\y.y)"), parse_ty("a"), fuel=50).derivation
        for out in (
            weaken(T1, d, "x", parse_ty("b")),
            le_left(T1, d, "y", parse_ty("a & b")),
        ):
            assert check_derivation(T1, out) == Valid()
            assert out.conclusion.term == d.conclusion.term

    @given(terms, t1_types)
    @settings(max_examples=100)
    def test_weaken_then_le_left_on_random_derivations(self, m, a):
        g = Basis.of(**{x: parse_ty("a") for x in free_vars(m)})
        assume("w" not in free_vars(m))
        out = infer_bounded(T1, g, m, a, fuel=200)
        if not isinstance(out, Found):
            return
        try:
            widened = weaken(T1, out.derivation, "w", parse_ty("b"))
        except InvalidInput:  # binder named w inside the subject
            return
        assert check_derivation(T1, widened) == Valid()
        narrowed = le_left(T1, widened, "w", parse_ty("a & b"))
        assert check_derivation(T1, narrowed) == Valid()


# -- transformations pinned across rebuilder changes -----------------------------

TRANSFORMATIONS = Path(__file__).parent / "data" / "transformation_fingerprints.json"
PINNED_THEORIES = ("T0", "T1", "Park", "TCDZ", "T2inv", "EP")
PINNED_PER_THEORY = 20  # Found derivations per theory
PINNED_ATTEMPTS = 200  # queries per theory, at most
PINNED_FUEL = 300


def _seeded_ty(rng: random.Random, consts: list[str], leaves: int) -> str:
    if leaves == 1:
        return rng.choice(consts + ["U"])
    k = rng.randint(1, leaves - 1)
    op = rng.choice(("->", "&"))
    return f"({_seeded_ty(rng, consts, k)} {op} {_seeded_ty(rng, consts, leaves - k)})"


def _seeded_term(rng: random.Random, n: int, scope: list[str]) -> str:
    """A random term of exactly n nodes whose free names are in scope; the
    binders are v1, v2, ... by depth."""
    if n == 1:
        return rng.choice(scope)
    if n == 2 or not scope or rng.random() < 0.35:
        v = f"v{len(scope)}"
        return f"(\\{v}. {_seeded_term(rng, n - 1, scope + [v])})"
    k = rng.randint(1, n - 2)
    return f"({_seeded_term(rng, k, scope)} {_seeded_term(rng, n - 1 - k, scope)})"


def pinned_derivations() -> list[tuple]:
    """(label, theory, derivation, type) for seeded infer_bounded answers.

    Each derivation concludes y:A, z:B |- M : T with only y free in M, so z
    is bound but unused; the type C is drawn for weakening and (<=-L)."""
    rng = random.Random("transformation-fingerprints")
    reg = builtin_theories()
    out = []
    for name in PINNED_THEORIES:
        t = reg.lookup(name).spec
        consts = sorted(t.constants)
        found = 0
        for _ in range(PINNED_ATTEMPTS):
            if found == PINNED_PER_THEORY:
                break
            a, b, c, target = (
                parse_ty(_seeded_ty(rng, consts, rng.randint(1, 2))) for _ in range(4)
            )
            m = parse_term(_seeded_term(rng, rng.randint(1, 10), ["y"]))
            r = infer_bounded(t, Basis.of(y=a, z=b), m, target, fuel=PINNED_FUEL)
            if isinstance(r, Found):
                out.append((f"{name}/{found:02d}", t, r.derivation, c))
                found += 1
    return out


def transformation_fingerprints() -> dict[str, str]:
    """sha256 of the printed output of each transformation of each pinned
    derivation, or "InvalidInput" where the transformation refuses."""
    out = {}
    for label, t, d, c in pinned_derivations():
        g, s = d.conclusion.basis, d.conclusion.term
        runs = {
            "weaken w": lambda: weaken(t, d, "w", c),
            "weaken v1": lambda: weaken(t, d, "v1", c),  # v1 binds in s, if any
            "le_left z": lambda: le_left(t, d, "z", Inter(g.get("z"), c)),
            "le_left y": lambda: le_left(t, d, "y", Inter(g.get("y"), c)),
            "expand m=z": lambda: expand_derivation(t, d, "z", Var("z"), s),
            "expand n=y": lambda: expand_derivation(
                t, d, "x", substitute(s, "y", Var("x")), Var("y")
            ),
        }
        for op, run in runs.items():
            try:
                text = unparse_derivation(run())
            except InvalidInput:
                out[f"{label} {op}"] = "InvalidInput"
            else:
                out[f"{label} {op}"] = hashlib.sha256(text.encode()).hexdigest()
    return out


def test_transformations_match_recorded_fingerprints():
    got = transformation_fingerprints()
    want = json.loads(TRANSFORMATIONS.read_text(encoding="utf-8"))
    assert got.keys() == want.keys()
    changed = sorted(k for k in want if got[k] != want[k])
    assert not changed, f"{len(changed)} outputs changed, first {changed[:5]}"


class TestFilters:
    def test_up_single_generator(self):
        u = build_universe(T1, [parse_ty("a"), parse_ty("b")], 2)
        f = filter_up(T1, u, [parse_ty("a")])
        members = filter_members(T1, f)
        assert members == frozenset({TOP, parse_ty("a")})

    def test_up_empty_is_bottom(self):
        u = build_universe(T1, [parse_ty("a")], 2)
        f = filter_up(T1, u, [])
        assert filter_members(T1, f) == frozenset({TOP})

    def test_up_contains_meets(self):
        u = build_universe(T1, [parse_ty("a"), parse_ty("b")], 2)
        f = filter_up(T1, u, [parse_ty("a"), parse_ty("b")])
        assert filter_contains(T1, f, parse_ty("a & b"))

    def test_up_drops_redundant_generators(self):
        u = build_universe(T1, [parse_ty("a"), parse_ty("b")], 2)
        f = filter_up(T1, u, [parse_ty("a"), parse_ty("a & b")])
        assert f.generators == frozenset({canonicalize(parse_ty("a & b"))})

    def test_up_rejects_outside_generators(self):
        u = build_universe(T1, [parse_ty("a")], 1)
        with pytest.raises(InvalidInput):
            filter_up(T1, u, [parse_ty("b -> a & b")])

    def test_apply_instance(self):
        u = build_universe(T1, [parse_ty("b -> a"), parse_ty("b")], 2)
        f = filter_up(T1, u, [parse_ty("b -> a")])
        g = filter_up(T1, u, [parse_ty("b")])
        out = filter_apply(T1, f, g)
        assert filter_contains(T1, out, parse_ty("a"))

    def test_apply_requires_shared_universe(self):
        u1 = build_universe(T1, [parse_ty("a")], 1)
        u2 = build_universe(T1, [parse_ty("b")], 1)
        with pytest.raises(InvalidInput):
            filter_apply(T1, FilterRep(u1, frozenset()), FilterRep(u2, frozenset()))

    def test_apply_on_bottom_gives_bottom(self):
        u = build_universe(T1, [parse_ty("b -> a"), parse_ty("b")], 2)
        bottom = filter_up(T1, u, [])
        out = filter_apply(T1, bottom, filter_up(T1, u, [parse_ty("b")]))
        assert filter_members(T1, out) == frozenset({TOP})

    @given(st.lists(st.sampled_from(["a", "b", "b -> a", "a & b"]), max_size=3),
           st.lists(st.sampled_from(["a", "b", "b -> a", "a & b"]), max_size=3),
           st.lists(st.sampled_from(["a", "b"]), max_size=2),
           st.lists(st.sampled_from(["a", "b"]), max_size=2))
    @settings(max_examples=200)
    def test_apply_monotone(self, f1, f2, g1, g2):
        seeds = [parse_ty(s) for s in ["a", "b", "b -> a", "a & b"]]
        u = build_universe(T1, seeds, 2)
        small_f = filter_up(T1, u, [parse_ty(s) for s in f1])
        big_f = filter_up(T1, u, [parse_ty(s) for s in f1 + f2])
        small_g = filter_up(T1, u, [parse_ty(s) for s in g1])
        big_g = filter_up(T1, u, [parse_ty(s) for s in g1 + g2])
        lo = filter_members(T1, filter_apply(T1, small_f, small_g))
        hi = filter_members(T1, filter_apply(T1, big_f, big_g))
        assert lo <= hi


# -- memoised hashes across processes --------------------------------------------

_MAKE = r"""
from ittlab.assignment import Basis
from ittlab.terms import parse_term
from ittlab.types import parse_ty
term = parse_term(r"\x. \y. x (y z) (\w. w)")
basis = Basis.of(z=parse_ty("c0 -> c1"), f=parse_ty("c1 & c0"))
"""

_DUMP = _MAKE + """
import pickle
hash(term), hash(basis)  # the memoised hashes are now set
print(pickle.dumps((term, basis)).hex())
"""

_LOAD = _MAKE + """
import pickle
import sys
loaded_term, loaded_basis = pickle.loads(bytes.fromhex(sys.stdin.read()))
assert loaded_term == term and loaded_basis == basis
assert hash(loaded_term) == hash(term) and hash(loaded_basis) == hash(basis)
memo = {term: 1, basis: 2, (basis, term): 3}
print(memo[loaded_term], memo[loaded_basis], memo[loaded_basis, loaded_term])
"""


def run_python(code, seed, stdin=""):
    """The standard output of code run by a fresh interpreter under seed."""
    src = str(Path(ittlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, "-c", code], input=stdin, env=env,
        capture_output=True, text=True, timeout=300, check=True,
    ).stdout


def test_pickled_terms_and_bases_hash_as_fresh_ones_under_another_hash_seed():
    # string hashes differ between processes, so a hash stored on the object
    # must not be pickled with it
    dumped = run_python(_DUMP, "0")
    assert run_python(_LOAD, "4242", dumped).split() == ["1", "2", "3"]


_DUMP_AS_READ = _MAKE + """
import pickle
assert term._shape is not None and term._sk is None  # filled by the reader
print(pickle.dumps((term, basis)).hex())
"""


def test_a_pickled_term_as_read_compares_as_a_fresh_one_under_another_hash_seed():
    # the reader fills each node's shape and free variables as it builds
    # it; pickle carries the fields alone, and the loaded term fills its own
    dumped = run_python(_DUMP_AS_READ, "0")
    assert run_python(_LOAD, "4242", dumped).split() == ["1", "2", "3"]


# -- the settled search against the search that re-expands ----------------------
#
# The search stores a None that leaned on a cut-off cycle once every goal it
# leaned on has failed.  RefSearch is the rule it replaced, which stores such
# a None never and expands the goal again each time it is asked.  Wherever
# the reference finishes within its fuel, the settled search must give the
# same answer, print the same derivation and expand no more goals.

_RUNNING = object()


class RefSearch(assignment._Search):
    """The search that re-expands every None that leaned on a cut-off."""

    def goal(self, g, m, a):
        ids = self.ids
        gi = ids.get(id(g))
        if gi is None:
            gi = self._class_id(g)
        mi = ids.get(id(m))
        if mi is None:
            mi = self._class_id(m)
        key = (gi, mi, id(a))
        table = self.table
        d = table.get(key, table)
        if d is not table:
            if d is _RUNNING:
                self.cycle_events += 1
                return None
            self.hits += 1
            return d
        if self.fuel <= 0:
            raise assignment._FuelOut
        self.fuel -= 1
        self.expanded += 1
        table[key] = _RUNNING
        before = self.cycle_events
        d = self._solve(g, m, a)
        if d is not None or self.cycle_events == before:
            table[key] = d
        else:
            del table[key]
        return d


def run_search(cls, t, g: Basis, m, target, fuel: int, width: int = DEFAULT_WIDTH):
    """infer_bounded's search, made by cls: (the search, its derivation or
    None, whether it ran out of fuel)."""
    search = cls(context_for(t, (target, *g.types()), width), fuel)
    try:
        return search, search.goal(g, m, canonicalize(target)), False
    except assignment._FuelOut:
        return search, None, True


PARITY_CONSTS = ["c0", "c1", "c2", "c3"]
PARITY_FLAGS = ("arrow", "arrow-U", "arrow-cap", "U-leq")


def _parity_arrow(rng: random.Random) -> str:
    def side():
        if rng.random() < 0.6:
            return rng.choice(PARITY_CONSTS)
        return f"({rng.choice(PARITY_CONSTS)} -> {rng.choice(PARITY_CONSTS)})"

    return f"({side()} -> {side()})"


def _random_axiom(rng: random.Random) -> str:
    sides = []
    for _ in range(2):
        r = rng.random()
        if r < 0.2:
            sides.append(rng.choice(PARITY_CONSTS))
        elif r < 0.6:
            sides.append(_parity_arrow(rng))
        else:
            sides.append(f"({_parity_arrow(rng)} & {_parity_arrow(rng)})")
    return f"{sides[0]} {rng.choice(('<=', '~'))} {sides[1]}"


def random_theory(rng: random.Random, axioms: list[str] | None = None) -> str:
    """.itt text: four constants, random flags, and the given axioms or
    else 1-5 random ones, whose sides are arrows, meets of two arrows or,
    now and then, a constant."""
    if axioms is None:
        axioms = [_random_axiom(rng) for _ in range(rng.randint(1, 5))]
    lines = [
        "constants " + " ".join(PARITY_CONSTS),
        "flags " + " ".join(f for f in PARITY_FLAGS if rng.random() < 0.5),
        *(f"axiom {ax}" for ax in axioms),
    ]
    return "\n".join(lines) + "\n"


def trap_axioms(rng: random.Random) -> tuple[list[str], str]:
    """UNFOUNDED_TRAP's shape over random constants, and its C: the arrow
    T = (A -> B) -> C lies above a meet of two identity arrows and above a
    meet of U = A -> B with a third, and U lies above T met with that third.
    Typing (\\x. x) (\\x. x) : C tries \\x. x : T through U first, and U
    leans on T while T runs; T is then Found through the identities, so
    U's None must wait for T and not be stored."""
    a, b = rng.sample(PARITY_CONSTS, 2)
    c = rng.choice([k for k in PARITY_CONSTS if k != b])
    p, q, r = (f"({k} -> {k})" for k in rng.sample(PARITY_CONSTS, 3))
    u = f"({a} -> {b})"
    t = f"({u} -> {c})"
    return [f"({p} & {q}) <= {t}", f"({u} & {r}) <= {t}", f"({t} & {r}) <= {u}"], c


def parity_queries(rng: random.Random, count: int, max_fuel: int) -> list[tuple]:
    """(theory text, basis text, term, target, fuel, width) rows.  Half are
    on a built-in theory, a quarter on a random one, and a quarter on the
    trap's shape with 0-2 random axioms, typing (\\x. x) (\\x. x) at its C,
    bare or under an abstraction.  Elsewhere half the terms are closed, half
    have x free under a basis x : A."""
    names = builtin_theories().names()
    corpus = resources.files("ittlab").joinpath("corpus")
    out = []
    for i in range(count):
        fuel_width = (rng.randint(0, max_fuel), rng.randint(1, 2))
        if i % 4 == 2:
            axioms, c = trap_axioms(rng)
            axioms += [_random_axiom(rng) for _ in range(rng.randint(0, 2))]
            rng.shuffle(axioms)
            text = random_theory(rng, axioms)
            if rng.random() < 0.5:
                term, target = r"(\v0. v0) (\v0. v0)", c
            else:
                term, target = r"\v0. (\v1. v1) (\v1. v1)", f"({rng.choice(PARITY_CONSTS)} -> {c})"
            out.append((text, "", term, target, *fuel_width))
            continue
        if i % 2:
            text = corpus.joinpath(f"{rng.choice(names)}.itt").read_text()
        else:
            text = random_theory(rng)
        consts = sorted(parse_theory(text).constants)
        scope = ["x"] if rng.random() < 0.5 else []
        basis = f"x : {_seeded_ty(rng, consts, rng.randint(1, 3))}" if scope else ""
        term = _seeded_term(rng, rng.randint(2, 10), scope)
        target = _seeded_ty(rng, consts, rng.randint(1, 2))
        out.append((text, basis, term, target, *fuel_width))
    return out


def search_parity(row: tuple) -> str | None:
    """How the settled search differs from RefSearch on row, or None."""
    text, basis, term, target, fuel, width = row
    t = parse_theory(text)
    g = Basis.of(x=parse_ty(basis.split(":", 1)[1])) if basis else Basis()
    m, a = parse_term(term), parse_ty(target)
    ref, d_ref, ref_out = run_search(RefSearch, t, g, m, a, fuel, width)
    new, d_new, new_out = run_search(assignment._Search, t, g, m, a, fuel, width)
    if d_new is not None and check_derivation(t, d_new) != Valid():
        return "the settled search's derivation does not check"
    if ref_out:  # only here may the settled search find more
        return None
    if new_out:
        return f"ran out of fuel, where the reference finished in {ref.expanded}"
    if (d_ref is None) != (d_new is None) or (
        d_ref is not None and unparse_derivation(d_ref) != unparse_derivation(d_new)
    ):
        return "the answers differ"
    if new.expanded > ref.expanded:
        return f"expanded {new.expanded} goals, the reference {ref.expanded}"
    return None


# A None that leaned on a cut-off must wait for the goals it leaned on:
# storing it at once, or storing it when the goal it waited on is Found,
# loses this Found.
UNFOUNDED_TRAP = parse_theory(
    "constants c1 c2 c0 c3 c4 c5; flags arrow\n"
    "axiom ((c1 -> c1) & (c2 -> c2)) <= ((c4 -> c5) -> c3)\n"
    "axiom ((c4 -> c5) & (c0 -> c0)) <= ((c4 -> c5) -> c3)\n"
    "axiom (((c4 -> c5) -> c3) & (c0 -> c0)) <= (c4 -> c5)\n"
)


class TestSettledSearch:
    def test_cycle_waits_for_the_goals_it_leaned_on(self):
        m, a = parse_term(r"(\x. x) (\x. x)"), parse_ty("c3")
        out = infer_bounded(UNFOUNDED_TRAP, Basis(), m, a)
        assert isinstance(out, Found)
        assert check_derivation(UNFOUNDED_TRAP, out.derivation) == Valid()
        ref, d_ref, _ = run_search(RefSearch, UNFOUNDED_TRAP, Basis(), m, a, DEFAULT_FUEL)
        assert unparse_derivation(d_ref) == unparse_derivation(out.derivation)

    def test_matches_the_search_that_re_expands(self):
        rows = parity_queries(random.Random("settled-search"), 400, 200)
        diffs = [(row, why) for row in rows if (why := search_parity(row))]
        assert not diffs, diffs[:3]

    def test_tcdz_does_not_expand_a_refuted_goal_again(self):
        # c3 ~ c4 -> c3 sends the abstraction's pair fallback back to goals
        # already refuted; the reference expands them again each time
        t = builtin_theories().lookup("TCDZ").spec
        m = parse_term(r"\x0. \x1. \x2. (\x3. \x4. \x5. \x6. \x7. \x8. x5 (\x9. x2)) ((\x3. x0) x1)")
        a = parse_ty("c3")
        ref, d_ref, ref_out = run_search(RefSearch, t, Basis(), m, a, DEFAULT_FUEL)
        new, d_new, new_out = run_search(assignment._Search, t, Basis(), m, a, DEFAULT_FUEL)
        assert d_ref is d_new is None and not ref_out and not new_out
        assert new.expanded * 10 < ref.expanded
