"""Every text reader: pinned results, depth errors, names, fuzzing.

parse_corpus() is a seeded set of inputs for each public parser: printed
random types, terms, bases, subproofs, derivations and constant maps, the
corpus .itt theories, their 1-3 character mutations, and hand-picked edge
cases.  The sha256 and the count of each parser's results over it are
recorded in data/parse_fingerprints.json; scripts/regen_fixtures.py rewrites
that file from this module.
"""

import hashlib
import json
import random
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ittlab.assignment import Basis, Derivation, Judgment
from ittlab.cli import main
from ittlab.errors import (
    IttError,
    NaturalShapeViolation,
    ParseError,
    UndeclaredConstant,
)
from ittlab.sexpr import (
    parse_basis,
    parse_constant_map,
    parse_derivation,
    parse_subproof,
    unparse_derivation,
    unparse_subproof,
)
from ittlab.subtyping import SubProof
from ittlab.terms import Abs, App, Var, parse_term, print_term
from ittlab.theory import parse_theory
from ittlab.types import TOP, Arrow, Const, Inter, parse_ty, print_ty

PARSE_FINGERPRINTS = Path(__file__).parent / "data" / "parse_fingerprints.json"
CORPUS = resources.files("ittlab").joinpath("corpus")
THEORY_FILES = sorted(p.name for p in CORPUS.iterdir() if p.name.endswith(".itt"))
THEORY_TEXTS = [CORPUS.joinpath(name).read_text() for name in THEORY_FILES]


def _theory_fields(text: str) -> tuple:
    """parse_theory's result with its sets sorted, so that its repr does not
    depend on the hash seed."""
    t = parse_theory(text)
    return (t.name, sorted(t.constants), sorted(f.value for f in t.flags),
            t.axioms, t.order, t.natural)


PARSERS = {
    "parse_ty": parse_ty,
    "parse_term": parse_term,
    "parse_basis": parse_basis,
    "parse_subproof": parse_subproof,
    "parse_derivation": parse_derivation,
    "parse_constant_map": parse_constant_map,
    "parse_theory": _theory_fields,
}
CONSTS = ("c0", "c1", "c2", "a'", "_b", "x$y")
VARS = ("x", "y", "z", "f", "x'", "y_1")
RULES = ("Refl", "Trans", "Axiom", "IncL", "ArrowLe", "Foo-Bar", "R<=S")
DERIVATION_RULES = ("Ax", "TopU", "ArrI", "ArrE", "CapI", "Le")
# every symbol of the token grammar, a newline, a comment mark and a stray
MUTATION_ALPHABET = "()&-><=|:,.\\#$'_ \nxc0U!"
MUTANTS = 2  # mutated copies of each printed input

EDGE_CASES = {
    "parse_ty": [
        "", " ", "(", ")", "()", "U", "$1", "a$b", "->", "a->b", "a - > b",
        "a -> -> b", "a & & b", "(a -> b) -> c", "a & b -> c & d", "a b",
        "a | b", "a <= b", "c0'", "0c", "é", "a -> b",
    ],
    "parse_term": [
        "", "x", "$x", "x$y", "\\x.x", "\\.x", "\\x y.x", "\\x.", "x . y",
        "x y z", "(x y) z", "x (y z)", "x \\y.y z", "(\\x.x)(\\x.x)", "()",
        "x)", "(x", "\\x\\y.x", "x & y", "U", "x'", "\\x'.x'",
    ],
    "parse_basis": [
        "", "   ", "x:c0", "x : c0 & c0, y : c1 -> c0", "f:(c0 & c1) -> c0",
        "x c0", "x:c0,", ",x:c0", "x:c0,,y:c1", "x y : c0", ":c0",
        "x:c0, x:c1", "x:c0, x:c0", "(x):c0", "$x:c0", "U:c0", "x:(c0, c1)",
        "x:c0 : c1",
    ],
    "parse_subproof": [
        "(Refl (c0 <= c0))", "(Foo-Bar (c0 <= c1))", "(Refl (c0))",
        "(Refl (c0 <= c0)) junk", "(Refl (c0 <= c0)", "Refl (c0 <= c0)",
        "(Refl(c0<=c0))", "((c0 <= c0))", "(Refl ((c0 <= c1)))",
        "(Trans (c0 <= U) (Refl (c0 <= c0)) (Utop (c0 <= U)))",
        "(Refl (c0 <= c1 <= c2))", "(R (c0 <= c0) x)", "", "()",
    ],
    "parse_derivation": [
        "(Ax (x:c0 |- x : c0))", "(Beta ( |- x : c0))", "(Ax (x : c0))",
        "(Ax (x:c0 |- x))", "(Le ( |- x : c0) (Refl (c0 <= c0)) (Ax (x:c0 |- x : c0)))",
        "(Le ( |- x : c0) (Refl (c0 <= c0)) (Refl (c0 <= c0)))",
        "(Ax (x y:c0 |- x : c0))", "(Ax (:c0 |- x : c0))",
        "(Ax (x:c0, x:c1 |- x : c0))", "(Ax ((x):c0 |- x : c0))",
        "(Ax ( |- \\x.x : c0 -> c0))", "(Ax ( , |- x : c0))", "(Ax)", "",
    ],
    "parse_constant_map": [
        "", "# only a comment\n", "a -> c0\n", "a -> c0 -> c1\n",
        "a -> c0\na -> c1\n", "just words\n", " -> c0\n", "a b -> c\n",
        "(a) -> c0\n", "a |-> c0\n", "a -> c0 b -> c1\n", "a ->\n c0\n",
        "a -> c0 # c\x0bb -> c1\n", "$a -> c0\n", "U -> c0\n", "a -> (c0\n",
        "a -> c0\r\nb -> c1", "a (-> c0)\n",
    ],
    "parse_theory": [
        "", "theory X;;\n;# only a comment\n\n", "theory", "theory X Y",
        "theory $x", "theory T; theory T", "natural", "natural x", "constants",
        "constants a b c", "constants a,b", "constants $a", "constants U",
        "constants\ta b", "flags", "flags arrow arrow-U arrow-cap U-leq",
        "flags bogus", "flags arrow(U)", "constants a; axiom a",
        "constants a; axiom a ~ a ~ a", "constants a; axiom a <= a -> U",
        "constants a; axiom a ~ (a", "theory X\nconstants a\naxiom a <= (a",
        "axiom(a) ~ a; constants a", "constants a # b\naxiom a <= b",
        "constants a b; order a <= b", "constants a b; order a <= b <= a",
        "constants a b\norder a b", "order a <= b", "constants a\r\naxiom a ~ a",
        "natural; constants a b; axiom a ~ b; axiom a ~ b -> b",
        "natural; constants a; axiom a <= a",
    ],
}


def _random_ty(rng: random.Random, leaves: int):
    if leaves == 1:
        return TOP if rng.random() < 0.15 else Const(rng.choice(CONSTS))
    k = rng.randint(1, leaves - 1)
    make = Arrow if rng.random() < 0.5 else Inter
    return make(_random_ty(rng, k), _random_ty(rng, leaves - k))


def _parenthesised(t) -> str:
    match t:
        case Arrow(dom, cod):
            return f"({_parenthesised(dom)} -> {_parenthesised(cod)})"
        case Inter(left, right):
            return f"({_parenthesised(left)} & {_parenthesised(right)})"
    return print_ty(t)


def _ty_text(rng: random.Random, max_leaves: int = 6) -> str:
    t = _random_ty(rng, rng.randint(1, max_leaves))
    return _parenthesised(t) if rng.random() < 0.3 else print_ty(t)


def _random_term(rng: random.Random, n: int):
    if n == 1:
        return Var(rng.choice(VARS))
    if n == 2 or rng.random() < 0.35:
        return Abs(rng.choice(VARS), _random_term(rng, n - 1))
    k = rng.randint(1, n - 2)
    return App(_random_term(rng, k), _random_term(rng, n - 1 - k))


def _random_basis(rng: random.Random) -> Basis:
    names = rng.sample(VARS, rng.randint(0, 3))
    return Basis(tuple((x, _random_ty(rng, rng.randint(1, 4))) for x in names))


def _basis_text(rng: random.Random) -> str:
    entries = [f"{rng.choice(VARS)}{rng.choice([':', ' : '])}{_ty_text(rng, 4)}"
               for _ in range(rng.randint(1, 3))]
    return rng.choice([",", ", ", " , "]).join(entries)


def _random_subproof(rng: random.Random, depth: int) -> SubProof:
    kids = ()
    if depth > 0:
        kids = tuple(_random_subproof(rng, depth - 1) for _ in range(rng.randint(0, 2)))
    concl = (_random_ty(rng, rng.randint(1, 4)), _random_ty(rng, rng.randint(1, 4)))
    return SubProof(rng.choice(RULES), concl, kids)


def _random_derivation(rng: random.Random, depth: int) -> Derivation:
    judgment = Judgment(
        _random_basis(rng), _random_term(rng, rng.randint(1, 6)),
        _random_ty(rng, rng.randint(1, 4)),
    )
    kids, sub = (), None
    if depth > 0:
        kids = tuple(_random_derivation(rng, depth - 1) for _ in range(rng.randint(0, 2)))
    if rng.random() < 0.3:
        sub = _random_subproof(rng, 1)
    return Derivation(rng.choice(DERIVATION_RULES), judgment, kids, sub)


def _map_text(rng: random.Random) -> str:
    lines = []
    for _ in range(rng.randint(1, 4)):
        r = rng.random()
        if r < 0.15:
            lines.append("# " + _ty_text(rng, 2))
        elif r < 0.25:
            lines.append("")
        else:
            line = f"{rng.choice(CONSTS + ('U', 'c'))} -> {_ty_text(rng, 4)}"
            lines.append(line + ("  # note" if rng.random() < 0.2 else ""))
    return "\n".join(lines) + rng.choice(["", "\n"])


def _mutate(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, len(text))
        op = rng.random()
        ch = rng.choice(MUTATION_ALPHABET)
        if op < 0.4 or not text:
            text = text[:i] + ch + text[i:]
        elif op < 0.7:
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i] + ch + text[i + 1:]
    return text


def _term_text(rng: random.Random) -> str:
    return print_term(_random_term(rng, rng.randint(1, 14)))


def _subproof_text(rng: random.Random) -> str:
    return unparse_subproof(_random_subproof(rng, 2))


def _derivation_text(rng: random.Random) -> str:
    return unparse_derivation(_random_derivation(rng, 2))


def _theory_text(rng: random.Random) -> str:
    return rng.choice(THEORY_TEXTS)


# parser -> (printer of one random input, printed inputs in the corpus)
PRINTED = {
    "parse_ty": (_ty_text, 600),
    "parse_term": (_term_text, 600),
    "parse_basis": (_basis_text, 300),
    "parse_subproof": (_subproof_text, 200),
    "parse_derivation": (_derivation_text, 150),
    "parse_constant_map": (_map_text, 300),
    "parse_theory": (_theory_text, 105),
}


def parse_corpus() -> dict[str, list[str]]:
    """The seeded inputs of each parser, in a fixed order."""
    rng = random.Random("parse-fingerprints")
    corpus = {}
    for name, (printed, count) in PRINTED.items():
        inputs = list(EDGE_CASES[name])
        for _ in range(count):
            text = printed(rng)
            inputs.append(text)
            inputs.extend(_mutate(rng, text) for _ in range(MUTANTS))
        corpus[name] = inputs
    return corpus


def parse_result(parse, text: str) -> str:
    """repr of what parse makes of text, or the name of the error it raises."""
    try:
        return repr(parse(text))
    except IttError as e:
        return type(e).__name__


def parse_fingerprints() -> dict[str, dict]:
    out = {}
    for name, inputs in parse_corpus().items():
        results = "\n".join(parse_result(PARSERS[name], text) for text in inputs)
        out[name] = {
            "count": len(inputs),
            "sha256": hashlib.sha256(results.encode()).hexdigest(),
        }
    return out


def test_parsers_match_recorded_fingerprints():
    want = json.loads(PARSE_FINGERPRINTS.read_text(encoding="utf-8"))
    assert parse_fingerprints() == want


# -- depth: too deep an input is a ParseError, never a RecursionError ----------


@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_ty, "(" * 600 + "c0" + ")" * 600),
        (parse_term, "x (" * 600 + "x" + ")" * 600),
        (parse_term, "\\x." * 600 + "x"),
        # a certificate is read on an explicit stack, the types in it are not
        (parse_subproof, "(R (" + "(" * 600 + "c0" + ")" * 600 + " <= c0))"),
    ],
    ids=["type", "application", "abstraction", "type-in-subproof"],
)
def test_too_deep_input_is_a_parse_error(parse, text):
    with pytest.raises(ParseError, match="nested too deeply"):
        parse(text)


# -- names: a basis variable and a map name are one identifier -----------------


@pytest.mark.parametrize("text", ["x y : c0", ":c0", "(x):c0", "x:c0, x:c1"])
def test_basis_names_are_identifiers_bound_once(text):
    with pytest.raises(ParseError):
        parse_basis(text)


def test_derivation_basis_names_are_identifiers():
    with pytest.raises(ParseError):
        parse_derivation("(Ax (x y:c0 |- x : c0))")


@pytest.mark.parametrize("text", ["a b -> c\n", "(a) -> c0\n", "a |-> c0\n"])
def test_map_names_are_identifiers(text):
    with pytest.raises(ParseError):
        parse_constant_map(text)


def test_map_errors_give_offsets_into_the_whole_text():
    with pytest.raises(ParseError, match=r"offset 13\)"):
        parse_constant_map("a -> c0\nb -> )\n")


def test_theory_errors_give_offsets_into_the_whole_text():
    # the unclosed parenthesis of the axiom's right side ends the text
    with pytest.raises(ParseError, match=r"offset 34\)"):
        parse_theory("theory X\nconstants a\naxiom a <= (a")


# -- fuzzing: only the package's own errors escape a reader ---------------------

@st.composite
def reader_inputs(draw) -> tuple[str, str]:
    """A parser's name and a text over the token alphabet: noise alone, or
    noise put into a printed input of that parser."""
    name = draw(st.sampled_from(sorted(PARSERS)))
    noise = draw(st.text(alphabet=MUTATION_ALPHABET + "~;\t", max_size=60))
    if draw(st.booleans()):
        return name, noise
    text = PRINTED[name][0](draw(st.randoms(use_true_random=False)))
    at = draw(st.integers(0, len(text)))
    return name, text[:at] + noise + text[at:]


@given(reader_inputs())
def test_readers_raise_only_parse_errors(case):
    name, text = case
    try:
        PARSERS[name](text)
    except ParseError:
        pass
    except (UndeclaredConstant, NaturalShapeViolation):
        assert name == "parse_theory"  # a theory's own well-formedness checks


QUERY_TOKENS = ("c0", "c1", "U", "x", "$1", "->", "<=", "&", "(", ")", "~", ";")
T0_TYPES = st.recursive(
    st.sampled_from(["c0", "c1", "U"]),
    lambda ty: st.tuples(ty, st.sampled_from(["->", "&"]), ty).map(" ".join),
    max_leaves=3,
)


@st.composite
def subtype_queries(draw) -> str:
    """A T0 query `A <= B`, noise, or noise put into such a query."""
    query = f"({draw(T0_TYPES)}) <= ({draw(T0_TYPES)})"
    noise = draw(
        st.text(alphabet=MUTATION_ALPHABET + "~;\t", max_size=20)
        | st.lists(st.sampled_from(QUERY_TOKENS), max_size=6).map(" ".join)
    )
    at = draw(st.integers(0, len(query)))
    return draw(st.sampled_from([query, noise, query[:at] + noise + query[at:]]))


@given(subtype_queries())
def test_subtype_queries_exit_0_2_or_3(query):
    # a malformed query is a usage error, never an internal one
    assert main(["subtype", "T0", "--", query]) in (0, 2, 3)


@given(st.sampled_from(THEORY_FILES), st.integers(0, 10**6))
def test_mutated_theories_raise_only_package_errors(fname, seed):
    text = resources.files("ittlab").joinpath("corpus", fname).read_text()
    try:
        parse_theory(_mutate(random.Random(seed), text))
    except IttError:
        pass
