"""Certificate text formats: round-trips and parse errors."""

from importlib import resources

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ittlab.assignment import Basis, Derivation, Judgment, check_derivation, infer_bounded, Found
from ittlab.errors import ParseError
from ittlab.sensibility import builtin_theories
from ittlab.sexpr import (
    _DERIVATION_RULES,
    _unparse_basis,
    parse_basis,
    parse_constant_map,
    parse_derivation,
    parse_subproof,
    unparse_derivation,
    unparse_subproof,
)
from ittlab.subtyping import Proven, SubProof, Valid, check_subproof, derive_le
from ittlab.terms import parse_term
from ittlab.theory import parse_theory
from ittlab.types import TOP, canonicalize, parse_ty
from test_terms import names, terms
from test_types import tys

T0 = parse_theory("theory T0\nconstants c0 c1\naxiom c0 -> c0 <= c1 -> c0\n")
T4 = parse_theory(
    "theory T4\nnatural\nconstants c0 c1 c2 c3\n"
    "flags arrow arrow-U arrow-cap U-leq\n"
    "axiom c0 ~ (c0 & ((c1 & (c1 -> c2)) -> c2)) -> c3\n"
)


def corpus_text(*relpath: str) -> str:
    return resources.files("ittlab").joinpath("corpus", *relpath).read_text()


class TestBasisText:
    def test_empty(self):
        assert parse_basis("") == Basis()
        assert parse_basis("   ") == Basis()

    def test_entries_canonicalized(self):
        g = parse_basis("x : c0 & c0, y : c1 -> c0")
        assert g == Basis.of(x=parse_ty("c0"), y=parse_ty("c1 -> c0"))

    def test_comma_inside_type_impossible_but_arrow_ok(self):
        g = parse_basis("f:(c0 & c1) -> c0")
        assert g.get("f") == parse_ty("c0 & c1 -> c0")

    def test_missing_colon_rejected(self):
        with pytest.raises(ParseError):
            parse_basis("x c0")


class TestSubProofText:
    def test_round_trip_from_engine(self):
        lo, hi = parse_ty("c0 -> c0"), parse_ty("c1 -> c0")
        r = derive_le(T0, lo, hi)
        assert isinstance(r, Proven)
        text = unparse_subproof(r.proof)
        back = parse_subproof(text)
        assert back == r.proof
        assert unparse_subproof(back) == text
        assert check_subproof(T0, back) == Valid()

    def test_nested_premises_round_trip(self):
        p = SubProof(
            "Trans",
            (parse_ty("c0"), TOP),
            (
                SubProof("Refl", (parse_ty("c0"), parse_ty("c0")), ()),
                SubProof("Utop", (parse_ty("c0"), TOP), ()),
            ),
        )
        assert parse_subproof(unparse_subproof(p)) == p

    def test_arbitrary_rule_words_pass_parser(self):
        # the checker, not the reader, decides whether the rule is real
        p = parse_subproof("(Bogus (c0 <= c1))")
        assert p.rule == "Bogus"
        assert isinstance(check_subproof(T0, p), type(check_subproof(T0, p)))
        assert check_subproof(T0, p) != Valid()

    def test_conclusion_needs_le(self):
        with pytest.raises(ParseError):
            parse_subproof("(Refl (c0))")

    def test_trailing_text_rejected(self):
        with pytest.raises(ParseError):
            parse_subproof("(Refl (c0 <= c0)) junk")


class TestDerivationText:
    def test_golden_file_round_trip_and_checks(self):
        text = corpus_text("derivations", "omega2omega2_c3.drv")
        d = parse_derivation(text)
        assert check_derivation(T4, d) == Valid()
        again = parse_derivation(unparse_derivation(d))
        assert again == d

    def test_golden_file_is_what_search_finds(self):
        # the same query scripts/regen_fixtures.py writes the file from
        t4 = builtin_theories().lookup("T4").spec
        omega = parse_term(r"(\x. x x) (\x. x x)")
        r = infer_bounded(t4, Basis.of(), omega, parse_ty("c3"), fuel=500)
        assert isinstance(r, Found)
        text = corpus_text("derivations", "omega2omega2_c3.drv")
        assert unparse_derivation(r.derivation) + "\n" == text

    def test_inferred_derivation_round_trip(self):
        r = infer_bounded(T0, Basis(), parse_term(r"\x.x"), parse_ty("c1 -> c0"), fuel=200)
        assert isinstance(r, Found)
        text = unparse_derivation(r.derivation)
        assert parse_derivation(text) == r.derivation

    def test_unknown_rule_rejected(self):
        with pytest.raises(ParseError):
            parse_derivation("(Beta ( |- x : c0))")

    def test_children_after_subproof_rejected(self):
        bad = (
            "(Le ( |- x : c0)"
            "  (Refl (c0 <= c0))"
            "  (Ax (x:c0 |- x : c0)))"
        )
        with pytest.raises(ParseError):
            parse_derivation(bad)

    def test_two_subproofs_rejected(self):
        bad = (
            "(Le ( |- x : c0)"
            "  (Refl (c0 <= c0))"
            "  (Refl (c0 <= c0)))"
        )
        with pytest.raises(ParseError):
            parse_derivation(bad)

    def test_nodes_below_a_subproof_are_subproofs(self):
        # even one named like a derivation rule
        d = parse_derivation("(Le ( |- x : c0) (Trans (c0 <= c0) (Ax (c0 <= c0))))")
        assert d.children == ()
        assert d.sub.premises == (SubProof("Ax", (parse_ty("c0"), parse_ty("c0"))),)
        p = parse_subproof("(Trans (c0 <= c0) (Ax (c0 <= c0)))")
        assert p == d.sub

    def test_judgment_needs_turnstile(self):
        with pytest.raises(ParseError):
            parse_derivation("(Ax (x : c0))")

    def test_judgment_needs_type(self):
        with pytest.raises(ParseError):
            parse_derivation("(Ax (x:c0 |- x))")


class TestConstantMapText:
    def test_corpus_maps_parse(self):
        m = parse_constant_map(corpus_text("maps", "t3_to_tcdz.map"))
        assert m == {"c0": parse_ty("c4"), "c1": parse_ty("c4"), "c2": parse_ty("c3")}

    def test_comments_and_blanks_ignored(self):
        m = parse_constant_map("# header\n\na -> c0 & c1  # trailing\n")
        assert m == {"a": parse_ty("c0 & c1")}

    def test_later_lines_override(self):
        m = parse_constant_map("a -> c0\na -> c1\n")
        assert m == {"a": parse_ty("c1")}

    def test_arrow_images_survive_the_line_split(self):
        m = parse_constant_map("a -> c0 -> c1\n")
        assert m == {"a": parse_ty("c0 -> c1")}

    def test_bad_line_rejected(self):
        with pytest.raises(ParseError):
            parse_constant_map("just words\n")
        with pytest.raises(ParseError):
            parse_constant_map(" -> c0\n")


@st.composite
def subproofs(draw, depth=2):
    # a rule name is any word; the checker, not the reader, judges it
    rule = draw(st.sampled_from(["Refl", "Trans", "Axiom", "ArrowLe", "IncL", "Foo-Bar"]))
    atoms = st.sampled_from(
        [parse_ty("c0"), parse_ty("c1"), parse_ty("c0 -> c1"), TOP, parse_ty("c0 & (c1 -> c0)")]
    )
    concl = (draw(atoms), draw(atoms))
    kids = ()
    if depth > 0:
        kids = tuple(
            draw(st.lists(subproofs(depth=depth - 1), max_size=2))
        )
    return SubProof(rule, concl, kids)


@given(subproofs())
def test_subproof_text_round_trip(p):
    assert parse_subproof(unparse_subproof(p)) == p


def test_deep_subproof_round_trip():
    p = SubProof("Refl", (parse_ty("c0"), parse_ty("c0")))
    for _ in range(199):
        p = SubProof("Trans", (parse_ty("c0"), parse_ty("c0")), (p,))
    text = unparse_subproof(p)
    back = parse_subproof(text)
    assert back == p
    assert unparse_subproof(back) == text


def test_2000_deep_subproof_text_round_trip():
    # read and printed on explicit stacks: deeper than the interpreter's
    c0 = parse_ty("c0")
    p = SubProof("Refl", (c0, c0))
    for _ in range(1999):
        p = SubProof("Trans", (c0, c0), (p, SubProof("Refl", (c0, c0))))
    text = unparse_subproof(p)
    back = parse_subproof(text)
    assert unparse_subproof(back) == text
    depth = 1
    while back.premises:
        back, depth = back.premises[0], depth + 1
    assert depth == 2000


def test_2000_deep_derivation_text_round_trip():
    c0 = parse_ty("c0")
    sub = SubProof("Refl", (c0, c0))
    d = Derivation("Ax", Judgment(Basis.of(x=c0), parse_term("x"), c0))
    judgment = Judgment(Basis.of(x=c0), parse_term(r"(\y. y) x"), c0)
    for _ in range(1999):
        d = Derivation("Le", judgment, (d,), sub)
    text = unparse_derivation(d)
    back = parse_derivation(text)
    assert unparse_derivation(back) == text
    depth = 1
    while back.children:
        assert back.sub == sub
        back, depth = back.children[0], depth + 1
    assert (depth, back.sub) == (2000, None)


@given(st.dictionaries(names, tys, max_size=4))
def test_basis_text_round_trip(bindings):
    g = Basis.of(bindings)
    assert parse_basis(_unparse_basis(g)) == g


@st.composite
def derivations(draw, depth=1):
    basis = Basis.of(draw(st.dictionaries(names, tys, max_size=3)))
    # the printer is inverse to the reader on canonical types
    judgment = Judgment(basis, draw(terms), canonicalize(draw(tys)))
    kids = ()
    if depth > 0:
        kids = tuple(draw(st.lists(derivations(depth=depth - 1), max_size=2)))
    sub = draw(st.none() | subproofs(depth=1))
    return Derivation(draw(st.sampled_from(sorted(_DERIVATION_RULES))), judgment, kids, sub)


@given(derivations())
def test_derivation_text_round_trip(d):
    text = unparse_derivation(d)
    assert parse_derivation(text) == d
