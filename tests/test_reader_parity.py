"""The text readers against a reference copy of the readers they replaced.

The reference below is the token cursor and the recursive-descent readers
of types, terms, bases and certificates as they were before the cursor
computed offsets lazily and the term reader filled its nodes' memos: a
cursor that stores (kind, text, offset) for every token, and a term reader
that builds bare nodes and always freshens.  Each library reader must make
of every text what the reference makes of it, the same printed result or
the same ParseError message and offset, and every term node it builds must
carry the free variables a from-scratch walk finds.
"""

from __future__ import annotations

import re
import sys
from typing import Callable, Iterator, TypeVar

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ittlab.errors import ParseError
from ittlab.kernel import Basis, Derivation, Judgment, SubProof
from ittlab.sexpr import (
    parse_basis,
    parse_derivation,
    parse_subproof,
    unparse_derivation,
    unparse_subproof,
)
from ittlab.terms import Abs, App, Term, Var, parse_term, print_term
from ittlab.types import TOP, Arrow, Const, Ty, is_reserved, make_inter, parse_ty, print_ty

# -- the reference: the cursor and the readers as they were ---------------------

IDENT = "identifier"
END = "end of input"
_TOKEN = re.compile(r"([A-Za-z_$][A-Za-z0-9_'$]*)|->|<=|\|-|\S")

T = TypeVar("T")


class RefTokens:
    __slots__ = ("toks", "pos")

    def __init__(self, src: str, start: int = 0, stop: int | None = None):
        stop = len(src) if stop is None else stop
        self.toks = [
            (IDENT if m.lastindex else m[0], m[0], m.start())
            for m in _TOKEN.finditer(src, start, stop)
        ]
        self.toks.append((END, "", stop))
        self.pos = 0

    def peek(self) -> str:
        return self.toks[self.pos][0]

    def at(self) -> int:
        return self.toks[self.pos][2]

    def take(self, kind: str) -> str:
        got, text, at = self.toks[self.pos]
        if got != kind:
            raise ParseError(f"expected {kind!r}, got {text or END!r}", at)
        self.pos += 1
        return text

    def end(self, what: str) -> None:
        if self.peek() != END:
            raise ParseError(f"trailing input after {what}", self.at())

    def word(self) -> str:
        first, stop = self.pos, self.at()
        while self.peek() not in ("(", ")", END) and self.at() == stop:
            stop += len(self.take(self.peek()))
        if self.pos == first:
            raise ParseError("expected a rule name", stop)
        return "".join(text for _, text, _ in self.toks[first:self.pos])


def ref_parse(tk: RefTokens, read: Callable[[RefTokens], T], what: str) -> T:
    try:
        out = read(tk)
    except RecursionError:
        raise ParseError(f"{what} nested too deeply", tk.at()) from None
    tk.end(what)
    return out


def ref_read_ty(tk: RefTokens) -> Ty:
    dom = _ref_read_inter(tk)
    if tk.peek() != "->":
        return dom
    tk.take("->")
    return Arrow(dom, ref_read_ty(tk))


def _ref_read_inter(tk: RefTokens) -> Ty:
    parts = [_ref_read_ty_atom(tk)]
    while tk.peek() == "&":
        tk.take("&")
        parts.append(_ref_read_ty_atom(tk))
    return make_inter(parts)


def _ref_read_ty_atom(tk: RefTokens) -> Ty:
    if tk.peek() == "(":
        tk.take("(")
        inner = ref_read_ty(tk)
        tk.take(")")
        return inner
    at = tk.at()
    name = tk.take(IDENT)
    if name == "U":
        return TOP
    if is_reserved(name):
        raise ParseError(f"reserved name {name!r}", at)
    return Const(name)


def ref_read_le(tk: RefTokens) -> tuple[Ty, Ty]:
    lo = ref_read_ty(tk)
    tk.take("<=")
    return lo, ref_read_ty(tk)


_SUFFIX = re.compile(r"_\d+$")


def ref_fresh_name(base: str, avoid: set[str]) -> str:
    stem = _SUFFIX.sub("", base) or "x"
    if base not in avoid:
        return base
    n = 1
    while f"{stem}_{n}" in avoid:
        n += 1
    return f"{stem}_{n}"


def ref_freshen(t: Term, avoid: set[str] | None = None) -> Term:
    """Barendregt-convention renaming by a plain recursive walk: binders in
    preorder, function before argument, each renamed when its name is used."""
    used = set(avoid or ()) | reference_free_vars(t)

    def go(u: Term, ren: dict[str, str]) -> Term:
        match u:
            case Var(name):
                return Var(ren.get(name, name))
            case Abs(binder, body):
                new = ref_fresh_name(binder, used)
                used.add(new)
                return Abs(new, go(body, ren if new == binder else {**ren, binder: new}))
            case App(fun, arg):
                fun = go(fun, ren)
                return App(fun, go(arg, ren))
        raise TypeError(f"not a term: {u!r}")

    return go(t, {})


def ref_read_term(tk: RefTokens) -> Term:
    if tk.peek() == "\\":
        return _ref_read_lambda(tk)
    out = _ref_read_atom(tk)
    while (kind := tk.peek()) == IDENT or kind == "(":
        out = App(out, _ref_read_atom(tk))
    if kind == "\\":
        out = App(out, _ref_read_lambda(tk))
    return out


def _ref_read_lambda(tk: RefTokens) -> Term:
    tk.take("\\")
    binders = [_ref_read_name(tk)]
    while tk.peek() == IDENT:
        binders.append(_ref_read_name(tk))
    tk.take(".")
    body = ref_read_term(tk)
    for b in reversed(binders):
        body = Abs(b, body)
    return body


def _ref_read_atom(tk: RefTokens) -> Term:
    kind = tk.peek()
    if kind == "(":
        tk.take("(")
        inner = ref_read_term(tk)
        tk.take(")")
        return inner
    if kind != IDENT:
        raise ParseError("empty term", tk.at())
    return Var(_ref_read_name(tk))


def _ref_read_name(tk: RefTokens) -> str:
    at = tk.at()
    name = tk.take(IDENT)
    if "$" in name:
        raise ParseError(f"reserved name {name!r}", at)
    return name


def ref_read_fresh_term(tk: RefTokens) -> Term:
    return ref_freshen(ref_read_term(tk))


_DERIVATION_RULES = {"Ax", "TopU", "ArrI", "ArrE", "CapI", "Le"}


def _ref_read_basis(tk: RefTokens) -> Basis:
    bindings: dict[str, Ty] = {}
    if tk.peek() != IDENT:
        return Basis()
    while True:
        at = tk.at()
        x = tk.take(IDENT)
        if x in bindings:
            raise ParseError(f"variable {x!r} bound twice in basis", at)
        tk.take(":")
        bindings[x] = ref_read_ty(tk)
        if tk.peek() != ",":
            return Basis(tuple(bindings.items()))
        tk.take(",")


def _ref_read_node(tk: RefTokens, read_rest):
    tk.take("(")
    return read_rest(tk, tk.word())


def _ref_read_subproof(tk: RefTokens, rule: str) -> SubProof:
    tk.take("(")
    lo, hi = ref_read_le(tk)
    tk.take(")")
    premises = []
    while tk.peek() == "(":
        tk.take("(")
        premises.append(_ref_read_subproof(tk, tk.word()))
    tk.take(")")
    return SubProof(rule, (lo, hi), tuple(premises))


def _ref_read_derivation(tk: RefTokens, rule: str) -> Derivation:
    if rule not in _DERIVATION_RULES:
        raise ParseError(f"unknown derivation rule {rule!r}", tk.at())
    tk.take("(")
    basis = _ref_read_basis(tk)
    tk.take("|-")
    term = ref_read_fresh_term(tk)
    tk.take(":")
    conclusion = Judgment(basis, term, ref_read_ty(tk))
    tk.take(")")
    children = []
    sub = None
    while tk.peek() == "(":
        tk.take("(")
        at = tk.at()
        head = tk.word()
        if sub is not None:
            raise ParseError("a node's subproof must come last", at)
        if head in _DERIVATION_RULES:
            children.append(_ref_read_derivation(tk, head))
        else:
            sub = _ref_read_subproof(tk, head)
    tk.take(")")
    return Derivation(rule, conclusion, tuple(children), sub)


REFERENCE = {
    "term": lambda s: ref_parse(RefTokens(s), ref_read_fresh_term, "term"),
    "type": lambda s: ref_parse(RefTokens(s), ref_read_ty, "type"),
    "basis": lambda s: ref_parse(RefTokens(s), _ref_read_basis, "basis"),
    "subproof": lambda s: ref_parse(
        RefTokens(s), lambda tk: _ref_read_node(tk, _ref_read_subproof), "subproof"
    ),
    "derivation": lambda s: ref_parse(
        RefTokens(s), lambda tk: _ref_read_node(tk, _ref_read_derivation), "derivation"
    ),
}
LIBRARY = {
    "term": parse_term,
    "type": parse_ty,
    "basis": parse_basis,
    "subproof": parse_subproof,
    "derivation": parse_derivation,
}


# -- what a reader makes of a text -----------------------------------------------


def reference_free_vars(t: Term) -> frozenset[str]:
    match t:
        case Var(name):
            return frozenset((name,))
        case Abs(binder, body):
            return reference_free_vars(body) - {binder}
        case App(fun, arg):
            return reference_free_vars(fun) | reference_free_vars(arg)
    raise TypeError(f"not a term: {t!r}")


def term_nodes(t: Term) -> Iterator[Term]:
    stack = [t]
    while stack:
        u = stack.pop()
        yield u
        if type(u) is Abs:
            stack.append(u.body)
        elif type(u) is App:
            stack.extend((u.fun, u.arg))


def judgment_terms(d: Derivation) -> Iterator[Term]:
    yield d.conclusion.term
    for ch in d.children:
        yield from judgment_terms(ch)


def printed(kind: str, out) -> str:
    if kind == "term":
        return print_term(out)
    if kind == "type":
        return print_ty(out)
    if kind == "basis":
        return ", ".join(f"{x}:{print_ty(a)}" for x, a in out.bindings)
    if kind == "subproof":
        return unparse_subproof(out)
    return unparse_derivation(out)


def outcome(kind: str, read: Callable[[str], object], text: str) -> tuple:
    """("ok", printed result) or ("error", message, offset)."""
    try:
        out = read(text)
    except ParseError as e:
        return "error", str(e), e.pos
    return "ok", printed(kind, out)


def assert_same(kind: str, text: str) -> None:
    want = outcome(kind, REFERENCE[kind], text)
    got = outcome(kind, LIBRARY[kind], text)
    assert got == want, text
    if got[0] != "ok":
        return
    out = LIBRARY[kind](text)
    terms = [out] if kind == "term" else list(judgment_terms(out)) if kind == "derivation" else []
    for t in terms:
        for u in term_nodes(t):
            assert u._fv == reference_free_vars(u), (text, u)


# -- texts: printed syntax, then corrupted token by token --------------------------

NAMES = ("x", "y", "z", "x'", "y_1", "x_1", "f")
CONSTS = ("c0", "c1", "a'", "_b")
# tokens an edit may insert: every symbol of the grammar, reserved names and
# a stray character
INSERTS = ("(", ")", "\\", ".", ":", ",", "&", "->", "<=", "|-", "$x", "x$y",
           "x", "y", "c0", "U", "Refl", "Ax", "!", "é")

terms = st.recursive(
    st.builds(Var, st.sampled_from(NAMES)),
    lambda sub: st.one_of(
        st.builds(Abs, st.sampled_from(NAMES), sub), st.builds(App, sub, sub)
    ),
    max_leaves=12,
)
types = st.recursive(
    st.one_of(st.just(TOP), st.builds(Const, st.sampled_from(CONSTS))),
    lambda sub: st.one_of(
        st.builds(Arrow, sub, sub), st.builds(lambda a, b: make_inter([a, b]), sub, sub)
    ),
    max_leaves=6,
)
bases = st.lists(
    st.tuples(st.sampled_from(NAMES), types), max_size=3, unique_by=lambda b: b[0]
).map(lambda bs: Basis(tuple(bs)))


@st.composite
def subproofs(draw, depth: int = 2) -> SubProof:
    kids = ()
    if depth > 0:
        kids = tuple(draw(st.lists(subproofs(depth - 1), max_size=2)))
    rule = draw(st.sampled_from(("Refl", "Trans", "IncL", "Foo-Bar", "R<=S")))
    return SubProof(rule, (draw(types), draw(types)), kids)


@st.composite
def derivations(draw, depth: int = 2) -> Derivation:
    kids = ()
    if depth > 0:
        kids = tuple(draw(st.lists(derivations(depth - 1), max_size=2)))
    rule = draw(st.sampled_from(sorted(_DERIVATION_RULES)))
    sub = draw(st.none() | subproofs(1))
    return Derivation(rule, Judgment(draw(bases), draw(terms), draw(types)), kids, sub)


SOURCES = {
    "term": terms.map(print_term),
    "type": types.map(print_ty),
    "basis": bases.map(lambda g: printed("basis", g)),
    "subproof": subproofs().map(unparse_subproof),
    "derivation": derivations().map(unparse_derivation),
}


@st.composite
def corrupted(draw, source: st.SearchStrategy[str]) -> str:
    """A printed text with up to three of its tokens dropped, duplicated or
    replaced, or with tokens inserted, rejoined by drawn spacing."""
    toks = [m[0] for m in _TOKEN.finditer(draw(source))]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(toks)))
        op = draw(st.sampled_from(("drop", "dup", "insert", "replace")))
        if op == "insert" or not toks:
            toks.insert(i, draw(st.sampled_from(INSERTS)))
        elif i == len(toks):
            continue
        elif op == "drop":
            del toks[i]
        elif op == "dup":
            toks.insert(i, toks[i])
        else:
            toks[i] = draw(st.sampled_from(INSERTS))
    spaces = draw(st.lists(st.sampled_from(("", " ", "  ", "\n")), min_size=len(toks) + 1,
                           max_size=len(toks) + 1))
    return "".join(s + t for s, t in zip(spaces, toks)) + spaces[-1]


@pytest.mark.parametrize("kind", sorted(SOURCES))
@given(data=st.data())
def test_reader_matches_the_reference(kind, data):
    text = data.draw(SOURCES[kind] | corrupted(SOURCES[kind]))
    assert_same(kind, text)


@given(terms, st.sets(st.sampled_from(NAMES), max_size=3))
def test_term_reader_renames_as_the_reference_does(t, free):
    # binders that repeat, shadow one another or meet a free name
    text = print_term(t)
    if free:
        text = f"({text}) {' '.join(sorted(free))}"
    assert_same("term", text)
    assert_same("derivation", f"(Ax ( |- {text} : c0))")


@pytest.mark.parametrize(
    "text, printed",
    [
        (r"(\x. \x. x) x_1", r"(\x x_2.x_2) x_1"),
        (r"\x. \x. x_1", r"\x x_2.x_1"),  # x_1 would be captured
        (r"\x. \x. x x_1", r"\x x_2.x_2 x_1"),
    ],
)
def test_a_free_name_read_after_the_binders_renames_as_the_reference_does(text, printed):
    # the reader meets the free name x_1 only after it has given that name
    # to the inner x, so it reads the term again with x_1 taken
    assert_same("term", text)
    assert print_term(parse_term(text)) == printed


# a term or a type nests two or more reader calls per level
DEEP = 600


@pytest.mark.parametrize(
    "kind, text",
    [
        ("term", "(" * DEEP + "x" + ")" * DEEP),
        ("term", "x (" * DEEP + "x" + ")" * DEEP),
        ("term", "\\x." * DEEP + "x"),
        ("term", "\\x y." * DEEP + "x"),
        ("term", "(\\x." * DEEP + "x" + ")" * DEEP),
        ("term", "(" * DEEP + "x"),
        ("term", "x" + ")" * DEEP),
        ("type", "(" * DEEP + "c0" + ")" * DEEP),
        ("type", "c0 -> " * DEEP + "c0"),
        ("type", "(c0 & " * DEEP + "c0" + ")" * DEEP),
        ("basis", "x : " + "(" * DEEP + "c0" + ")" * DEEP),
        ("derivation", "(Ax ( |- " + "(" * DEEP + "x" + ")" * DEEP + " : c0))"),
    ],
    ids=lambda v: v if len(v) < 20 else v[:12],
)
def test_deep_nesting_matches_the_reference(kind, text):
    assert_same(kind, text)


@pytest.mark.parametrize(
    "kind, text",
    [
        ("subproof", "(R (c0 <= c0) " * 2 * DEEP + ")" * 2 * DEEP),
        ("derivation", "(Ax ( |- x : c0) " * 2 * DEEP + ")" * 2 * DEEP),
        ("derivation", "(Le ( |- x : c0) " + "(R (c0 <= c0) " * 2 * DEEP + ")" * (2 * DEEP + 1)),
    ],
    ids=["subproof", "derivation", "subproof-in-derivation"],
)
def test_deep_certificate_reads_as_the_reference_reads_it_given_the_stack(kind, text):
    # the reference reads a certificate node with an interpreter frame, the
    # library with an entry on its own stack: the reference gets the frames
    # it needs, the library runs under the default limit
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 8 * DEEP)
    try:
        want = outcome(kind, REFERENCE[kind], text)
    finally:
        sys.setrecursionlimit(limit)
    assert want[0] == "ok"
    assert outcome(kind, LIBRARY[kind], text) == want


# ways to nest a text one level deeper, each as (opening, closing)
NESTINGS = {
    "term": [("(", ")"), ("x (", ")"), ("\\x.", ""), ("(\\y z. y ", ")")],
    "type": [("(", ")"), ("c0 -> (", ")"), ("(c0 & ", ")"), ("c0 -> ", "")],
}


@pytest.mark.parametrize("kind", sorted(NESTINGS))
@settings(max_examples=40)  # each example unwinds the interpreter's whole stack twice
@given(data=st.data())
def test_deep_nesting_of_drawn_texts_matches_the_reference(kind, data):
    inner = data.draw(SOURCES[kind] | corrupted(SOURCES[kind]))
    opening, closing = data.draw(st.sampled_from(NESTINGS[kind]))
    assert_same(kind, opening * DEEP + inner + closing * DEEP)
