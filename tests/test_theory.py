import copy
import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import ittlab

from ittlab.errors import (
    InvalidInput,
    NaturalShapeViolation,
    ParseError,
    UndeclaredConstant,
)
from ittlab.sensibility import builtin_theories
from ittlab.theory import (
    ArrowC,
    AxiomDecl,
    InterC,
    RuleFlag,
    SelfC,
    TheorySpec,
    back_substitute,
    parse_theory,
    validate_natural,
)
from ittlab.types import TOP, Arrow, Const, canonicalize, parse_ty, subterms


def test_parse_minimal_le_theory():
    t = parse_theory("constants c0 c1; axiom c0 -> c0 <= c1 -> c0")
    assert t.constants == {"c0", "c1"}
    assert t.axioms == (
        AxiomDecl("le", parse_ty("c0 -> c0"), parse_ty("c1 -> c0")),
    )
    assert not t.natural and t.flags == frozenset() and t.order == ()


def test_parse_full_natural_theory():
    t = parse_theory(
        "theory TCDZ\n"
        "natural\n"
        "constants c3 c4\n"
        "flags arrow arrow-U arrow-cap U-leq\n"
        "axiom c3 ~ c4 -> c3\n"
        "axiom c4 ~ c3 -> c4\n"
        "order c3 <= c4\n"
    )
    assert t.name == "TCDZ"
    assert t.natural
    assert t.flags == frozenset(RuleFlag)
    assert len(t.axioms) == 2 and all(ax.kind == "eq" for ax in t.axioms)
    assert t.order == (("c3", "c4"),)


def test_parse_no_axioms():
    t = parse_theory("theory T1\nconstants c0 c1\n")
    assert t.axioms == ()


def test_parse_comments_and_semicolons():
    t = parse_theory("# header\nconstants a b  # trailing\naxiom a ~ b; natural")
    assert t.constants == {"a", "b"} and t.natural


def test_natural_implies_arrow_top_flag():
    t = parse_theory("natural; constants a; axiom a ~ a")
    assert RuleFlag.ARROW_TOP in t.flags


def test_le_axiom_pairs_expands_eq_and_order():
    t = parse_theory("constants a b; axiom a ~ b; order a <= b")
    pairs = t.le_axiom_pairs()
    assert pairs == (
        (Const("a"), Const("b")),
        (Const("b"), Const("a")),
        (Const("a"), Const("b")),
    )


def test_canonical_pairs_follow_le_axiom_pairs():
    t = parse_theory("constants a b; axiom b & a ~ a -> (b & b); order a <= b")
    assert t.canonical_pairs == tuple(
        (canonicalize(lo), canonicalize(hi)) for lo, hi in t.le_axiom_pairs()
    )
    assert t.canonical_pairs[0] == (parse_ty("a & b"), parse_ty("a -> b"))


def test_key_is_the_theory_up_to_its_name():
    tcdz = builtin_theories().lookup("TCDZ").spec
    copy = dataclasses.replace(tcdz, name="TCDZcopy")
    assert copy.key == tcdz.key and copy != tcdz
    same = [
        ("constants a b c; axiom a & b <= c", "constants a b c; axiom b & a <= c"),
        ("constants a b; axiom a ~ b -> a",
         "constants a b; axiom a <= b -> a; axiom b -> a <= a"),
    ]
    for x, y in same:
        assert parse_theory(x).key == parse_theory(y).key


def test_key_tells_flags_order_and_natural_apart():
    base = "constants a b; flags arrow-U; axiom a ~ b -> b"
    variants = [base + "; flags arrow", base + "; order b <= a", "natural; " + base]
    keys = [parse_theory(src).key for src in [base] + variants]
    assert len(set(keys)) == len(keys)


def test_key_leaves_fields_equality_hash_and_repr_alone():
    t = parse_theory("theory t; constants a b; axiom a <= b")
    before = (repr(t), hash(t))
    assert t.key and t.canonical_pairs
    assert (repr(t), hash(t)) == before
    assert [f.name for f in dataclasses.fields(t)] == [
        "name", "constants", "flags", "axioms", "order", "natural"
    ]
    assert t == parse_theory("theory t; constants a b; axiom a <= b")


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_theory("frobnicate a b")
    with pytest.raises(ParseError):
        parse_theory("constants a; flags bogus")
    with pytest.raises(ParseError):
        parse_theory("constants a; axiom a ~ a ~ a")
    with pytest.raises(ParseError):
        parse_theory("theory A; theory B; constants a")
    with pytest.raises(ParseError):
        parse_theory("constants U")
    with pytest.raises(ParseError):
        parse_theory("constants a; order a")


def test_undeclared_constant_rejected():
    with pytest.raises(UndeclaredConstant):
        parse_theory("constants a; axiom a ~ b")
    with pytest.raises(UndeclaredConstant):
        parse_theory("constants a; order a <= b")


def test_natural_shape_violations():
    with pytest.raises(NaturalShapeViolation):
        parse_theory("natural; constants a b; axiom a <= b")
    with pytest.raises(NaturalShapeViolation):
        parse_theory("natural; constants a b; axiom a & b ~ a")
    with pytest.raises(NaturalShapeViolation):
        parse_theory("natural; constants a b; axiom a ~ b; axiom a ~ a")


def test_spec_construction_checks():
    with pytest.raises(UndeclaredConstant):
        TheorySpec("t", frozenset({"a"}), frozenset(), (AxiomDecl("le", Const("a"), Const("x")),))
    with pytest.raises(InvalidInput):
        AxiomDecl("weird", Const("a"), Const("a"))


# -- characteristic sets -------------------------------------------------------


def test_characteristic_completion_adds_identity():
    t = parse_theory("natural; constants c0 c1 c2; axiom c0 ~ c2 -> c0; axiom c1 ~ c2 -> c1")
    cs = validate_natural(t)
    assert cs.axioms == {
        "c0": ArrowC("c2", "c0"),
        "c1": ArrowC("c2", "c1"),
        "c2": SelfC(),
    }
    assert cs.aliases == {} and cs.fresh_defs == {}


def test_characteristic_identity_only():
    t = parse_theory("natural; constants c; axiom c ~ c")
    cs = validate_natural(t)
    assert cs.axioms == {"c": SelfC()}


def test_characteristic_t4_extraction():
    t = parse_theory(
        "theory T4; natural; constants c0 c1 c2 c3\n"
        "axiom c0 ~ (c0 & ((c1 & (c1 -> c2)) -> c2)) -> c3"
    )
    cs = validate_natural(t)
    assert cs.axioms["c0"] == ArrowC("$1", "c3")
    assert cs.axioms["$1"] == InterC("c0", "$2")
    assert cs.axioms["$2"] == ArrowC("$3", "c2")
    assert cs.axioms["$3"] == InterC("c1", "$4")
    assert cs.axioms["$4"] == ArrowC("c1", "c2")
    assert cs.axioms["c1"] == SelfC() and cs.axioms["c2"] == SelfC()

    original = canonicalize(t.axioms[0].rhs)
    subs = set(subterms(original))
    for nm, d in cs.fresh_defs.items():
        assert d in subs, f"{nm} does not name a subterm of the original rhs"
    assert back_substitute(cs, "c0") == Arrow(cs.fresh_defs["$1"], Const("c3"))
    assert canonicalize(back_substitute(cs, "c0")) == original


def test_characteristic_renaming_chain():
    t = parse_theory("natural; constants a b e; axiom a ~ b; axiom b ~ e")
    cs = validate_natural(t)
    assert cs.aliases == {"a": "e", "b": "e"}
    assert cs.axioms == {"e": SelfC()}


def test_characteristic_renaming_cycle_picks_least():
    t = parse_theory("natural; constants a b; axiom a ~ b; axiom b ~ a")
    cs = validate_natural(t)
    assert cs.aliases == {"b": "a"}
    assert cs.axioms == {"a": SelfC()}


def test_characteristic_top_alias():
    t = parse_theory("natural; constants d; axiom d ~ U")
    cs = validate_natural(t)
    assert cs.aliases == {"d": "$U"}
    assert cs.axioms == {"$U": SelfC()}


def test_characteristic_top_inside_rhs():
    t = parse_theory("natural; constants c0 c1; axiom c1 ~ U -> c0")
    cs = validate_natural(t)
    assert cs.axioms["c1"] == ArrowC("$U", "c0")
    assert cs.axioms["$U"] == SelfC()
    assert back_substitute(cs, "c1") == Arrow(TOP, Const("c0"))


def test_characteristic_collapse_exposes_renaming():
    # After b and d collapse to e, a's rhs e & e canonicalizes to e: a renames too.
    t = parse_theory("natural; constants a b d e; axiom a ~ b & d; axiom b ~ e; axiom d ~ e")
    cs = validate_natural(t)
    assert cs.aliases == {"a": "e", "b": "e", "d": "e"}
    assert cs.axioms == {"e": SelfC()}


def test_characteristic_shared_subterm_reused():
    t = parse_theory("natural; constants a b c; axiom a ~ (c -> c) -> c; axiom b ~ (c -> c) -> b")
    cs = validate_natural(t)
    assert cs.axioms["a"] == ArrowC("$1", "c")
    assert cs.axioms["b"] == ArrowC("$1", "b")
    assert cs.fresh_defs == {"$1": Arrow(Const("c"), Const("c"))}


def test_validate_natural_requires_natural():
    t = parse_theory("constants a; axiom a ~ a")
    with pytest.raises(InvalidInput):
        validate_natural(t)


_HASH_IN_A_FRESH_PROCESS = """
import pickle, sys
from ittlab.theory import parse_theory
t = pickle.loads(sys.stdin.buffer.read())
fresh = parse_theory(sys.argv[1])
assert t == fresh and t.__dict__.keys() == fresh.__dict__.keys()
assert hash(t) == hash(fresh), (hash(t), hash(fresh))
"""


def test_a_theory_hashes_once_as_its_dataclass_would():
    t = parse_theory("theory H; natural; constants c; axiom c ~ c -> c; order c <= c")
    fields = tuple(getattr(t, f.name) for f in dataclasses.fields(t))
    assert hash(t) == hash(fields)
    assert hash(copy.copy(t)) == hash(copy.deepcopy(t)) == hash(t)
    assert t.__reduce__() == (TheorySpec, fields)


def test_a_pickled_theory_hashes_like_a_fresh_one_under_another_hash_seed():
    text = "theory H; natural; constants c c1; axiom c ~ c1 -> c; order c <= c1"
    data = pickle.dumps(parse_theory(text))
    src = str(Path(ittlab.__file__).resolve().parents[1])
    for seed in ("0", "4242"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        subprocess.run(
            [sys.executable, "-c", _HASH_IN_A_FRESH_PROCESS, text],
            input=data, env=env, capture_output=True, timeout=120, check=True,
        )
