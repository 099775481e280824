"""The certificate kernel: proofs, derivations and their checkers.

A positive answer of the engines carries a certificate, and this module
alone decides whether it holds.  It follows the de Bruijn criterion
(Barendregt & Wiedijk, "The challenge of computer mathematics", 2005): the
checkers are small, search for nothing, and import no engine, only the
syntax of types, terms and theories.  check_subproof validates a subtyping
proof node by node against the rule schemata of subtyping; check_derivation
validates a typing derivation against the six schemata Ax, TopU, ArrI, ArrE,
CapI and Le, each Le certificate via check_subproof.  Terms inside judgments
compare by alpha-equivalence, types modulo canonical form.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from functools import partial
from operator import attrgetter, itemgetter
from typing import Callable

from .errors import InvalidInput
from .terms import Abs, App, Term, Var
from .theory import RuleFlag, TheorySpec
from .types import TOP, Arrow, Inter, Ty, canonicalize, inter_parts, make_inter


# -- verdicts and the one certificate walk ------------------------------------


@dataclass(frozen=True)
class Valid:
    """The verdict of a certificate that passed its check."""


@dataclass(frozen=True)
class Invalid:
    """The first node that failed its check, by its path of child indices."""

    path: tuple[int, ...]
    reason: str


_VALID = Valid()


def check_tree(
    root, children: Callable, reason: Callable, seen: set[int] | None = None
) -> Valid | Invalid:
    """The first node, depth first and last child first, whose reason(node)
    is not None, as Invalid at its path of child indices; else Valid.

    Each node object is checked once: a node met again is skipped.  The
    walk has finished a node's whole subtree before it meets that node
    again, so on a DAG with shared nodes the answer is the tree walk's.
    seen holds the ids of the nodes already met; calls that share one set
    over live structures skip each other's nodes, which is exact as long
    as every earlier call sharing it returned Valid."""
    if seen is None:
        seen = set()
    # each entry's link is (parent's link, child index), None at the root
    stack: list[tuple[object, tuple | None]] = [(root, None)]
    while stack:
        node, link = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        why = reason(node)
        if why is not None:
            path: list[int] = []
            while link is not None:
                link, i = link
                path.append(i)
            return Invalid(tuple(reversed(path)), why)
        stack += [(ch, (link, i)) for i, ch in enumerate(children(node))]
    return _VALID


# -- subtyping certificates ----------------------------------------------------

# The four certificate records are frozen slotted dataclasses with their own
# constructors: each writes its fields once through their slot descriptors,
# past the frozen __setattr__ that a generated __init__ would go through.


@dataclass(frozen=True, slots=True, init=False)
class SubProof:
    """A subtyping proof: the pair it concludes, by rule, from its premises."""

    rule: str
    conclusion: tuple[Ty, Ty]
    premises: tuple[SubProof, ...]

    def __init__(
        self, rule: str, conclusion: tuple[Ty, Ty], premises: tuple["SubProof", ...] = ()
    ):
        _set_proof_rule(self, rule)
        _set_proof_conclusion(self, conclusion)
        _set_premises(self, premises)


_set_proof_rule = SubProof.rule.__set__
_set_proof_conclusion = SubProof.conclusion.__set__
_set_premises = SubProof.premises.__set__


_FLAG_FOR_RULE = {
    "ArrowTop": RuleFlag.ARROW_TOP,
    "ArrowCap": RuleFlag.ARROW_CAP,
    "ArrowRule": RuleFlag.ARROW,
    "TopLe": RuleFlag.TOP_LE,
}


def _node_error(t: TheorySpec, node: SubProof) -> str | None:
    a, b = (canonicalize(node.conclusion[0]), canonicalize(node.conclusion[1]))
    prems = [
        (canonicalize(ch.conclusion[0]), canonicalize(ch.conclusion[1]))
        for ch in node.premises
    ]
    r = node.rule
    flag = _FLAG_FOR_RULE.get(r)
    if flag is not None and flag not in t.flags:
        return f"rule {r} needs flag {flag.value!r}"

    if r == "Refl":
        if prems or a != b:
            return "Refl concludes A <= A with no premises"
    elif r == "Axiom":
        if prems:
            return "Axiom takes no premises"
        if (a, b) not in t.canonical_pairs:
            return "conclusion is not an instance of a declared axiom"
    elif r in ("IncL", "IncR"):
        if prems or not isinstance(a, Inter) or b not in inter_parts(a):
            return "Inc concludes Z <= P for a part P of intersection Z"
    elif r == "Utop":
        if prems or b != TOP:
            return "Utop concludes A <= U with no premises"
    elif r == "ArrowTop":
        if prems or a != TOP or not (isinstance(b, Arrow) and b.cod == TOP):
            return "ArrowTop concludes U <= B -> U"
    elif r == "ArrowCap":
        if prems:
            return "ArrowCap takes no premises"
        z, w = (a, b) if isinstance(a, Inter) else (b, a)
        parts = inter_parts(z) if isinstance(z, Inter) else ()
        ok = (
            isinstance(z, Inter)
            and isinstance(w, Arrow)
            and all(isinstance(p, Arrow) for p in parts)
            and len({p.dom for p in parts}) == 1
            and parts[0].dom == w.dom
            and canonicalize(make_inter([p.cod for p in parts])) == w.cod
        )
        if not ok:
            return "ArrowCap relates (B->A1)&..&(B->Ak) and B -> A1&..&Ak"
    elif r == "ArrowRule":
        ok = (
            isinstance(a, Arrow)
            and isinstance(b, Arrow)
            and prems == [(b.dom, a.dom), (a.cod, b.cod)]
        )
        if not ok:
            return "ArrowRule needs premises B' <= B and A <= A'"
    elif r == "TopLe":
        ok = (
            a == TOP
            and len(prems) == 1
            and prems[0][0] == TOP
            and isinstance(prems[0][1], Arrow)
            and prems[0][1].cod == b
        )
        if not ok:
            return "TopLe needs premise U <= B -> A and concludes U <= A"
    elif r == "ArrCong":
        if not (isinstance(a, Arrow) and isinstance(b, Arrow)):
            return "ArrCong relates two arrows"
        needed = {
            (b.dom, a.dom),
            (a.dom, b.dom),
            (a.cod, b.cod),
            (b.cod, a.cod),
        }
        if not needed <= set(prems):
            return "ArrCong needs both directions of dom and cod equivalence"
    elif r == "Glb":
        ok = (
            len(prems) >= 2
            and all(p[0] == a for p in prems)
            and canonicalize(make_inter([p[1] for p in prems])) == b
        )
        if not ok:
            return "Glb joins B <= A_i into B <= A_1&..&A_k"
    elif r == "Trans":
        ok = (
            len(prems) == 2
            and prems[0][0] == a
            and prems[1][1] == b
            and prems[0][1] == prems[1][0]
        )
        if not ok:
            return "Trans chains B <= A and A <= A'"
    else:
        return f"unknown rule {r!r}"
    return None


def check_subproof(
    t: TheorySpec, p: SubProof, seen: set[int] | None = None
) -> Valid | Invalid:
    """Re-validate every node against its rule schema; no search, no engine.
    seen is check_tree's: nodes already validated by an earlier call."""
    return check_tree(p, attrgetter("premises"), partial(_node_error, t), seen)


# -- typing derivations -------------------------------------------------------


@dataclass(frozen=True, slots=True, init=False)
class Basis:
    """Finite map from variables to canonical types, at most one binding each.

    The constructor validates and normalises its bindings; extend builds
    through _sorted, since it keeps them sorted, canonical and bound once."""

    bindings: tuple[tuple[str, Ty], ...]

    def __init__(self, bindings: tuple[tuple[str, Ty], ...] = ()):
        seen = set()
        for x, _ in bindings:
            if x in seen:
                raise InvalidInput(f"variable {x!r} bound twice in basis")
            seen.add(x)
        _set_bindings(self, tuple(sorted((x, canonicalize(a)) for x, a in bindings)))

    @staticmethod
    def _sorted(bindings: tuple[tuple[str, Ty], ...]) -> "Basis":
        """The Basis of bindings that are already sorted by name, canonical
        and bound once, built without checking them again."""
        g = object.__new__(Basis)
        _set_bindings(g, bindings)
        return g

    @staticmethod
    def of(mapping: dict[str, Ty] | None = None, **kw: Ty) -> "Basis":
        items = dict(mapping or {})
        items.update(kw)
        return Basis(tuple(items.items()))

    def get(self, x: str) -> Ty | None:
        for y, a in self.bindings:
            if y == x:
                return a
        return None

    def names(self) -> tuple[str, ...]:
        return tuple(x for x, _ in self.bindings)

    def extend(self, x: str, a: Ty) -> "Basis":
        if self.get(x) is not None:
            raise InvalidInput(f"variable {x!r} already bound")
        return Basis._sorted(_bind(self.bindings, x, canonicalize(a)))

    def without(self, x: str) -> "Basis":
        return Basis(tuple(b for b in self.bindings if b[0] != x))

    def types(self) -> tuple[Ty, ...]:
        return tuple(a for _, a in self.bindings)


_set_bindings = Basis.bindings.__set__


def _bind(bindings: tuple[tuple[str, Ty], ...], x: str, a: Ty) -> tuple:
    """bindings, sorted by name and not binding x, with (x, a) in its place."""
    i = bisect(bindings, x, key=itemgetter(0))
    return (*bindings[:i], (x, a), *bindings[i:])


@dataclass(frozen=True, slots=True, init=False)
class Judgment:
    """basis |- term : ty."""

    basis: Basis
    term: Term
    ty: Ty

    def __init__(self, basis: Basis, term: Term, ty: Ty):
        _set_basis(self, basis)
        _set_term(self, term)
        _set_ty(self, ty)


@dataclass(frozen=True, slots=True, init=False)
class Derivation:
    """A typing derivation: its conclusion by rule from its children, and
    for rule Le the subtyping proof it uses."""

    rule: str  # Ax | TopU | ArrI | ArrE | CapI | Le
    conclusion: Judgment
    children: tuple[Derivation, ...]
    sub: SubProof | None

    def __init__(
        self,
        rule: str,
        conclusion: Judgment,
        children: tuple["Derivation", ...] = (),
        sub: SubProof | None = None,
    ):
        _set_rule(self, rule)
        _set_conclusion(self, conclusion)
        _set_children(self, children)
        _set_sub(self, sub)


_set_basis = Judgment.basis.__set__
_set_term = Judgment.term.__set__
_set_ty = Judgment.ty.__set__
_set_rule = Derivation.rule.__set__
_set_conclusion = Derivation.conclusion.__set__
_set_children = Derivation.children.__set__
_set_sub = Derivation.sub.__set__


def _node_reason(t: TheorySpec, seen: set[int], d: Derivation) -> str | None:
    g, m, a = d.conclusion.basis, d.conclusion.term, canonicalize(d.conclusion.ty)
    r = d.rule
    kids = d.children
    if r != "Le" and d.sub is not None:
        return "only Le nodes carry a subtyping certificate"

    if r == "Ax":
        if kids or not isinstance(m, Var):
            return "Ax types a variable with no children"
        bound = g.get(m.name)
        if bound is None or canonicalize(bound) != a:
            return f"basis does not bind {m.name} at the concluded type"
    elif r == "TopU":
        if kids or a != TOP:
            return "TopU concludes type U with no children"
    elif r == "ArrI":
        if len(kids) != 1 or not isinstance(m, Abs):
            return "ArrI types an abstraction from one child"
        if not isinstance(a, Arrow):
            return "ArrI concludes an arrow type"
        ch = kids[0].conclusion
        if g.get(m.binder) is not None:
            return f"binder {m.binder!r} shadows a basis variable"
        # the bindings g.extend(binder, a.dom) has, built as a tuple alone:
        # a.dom is canonical as a part of the canonical a
        if ch.basis.bindings != _bind(g.bindings, m.binder, a.dom):
            return "ArrI child basis must extend the conclusion basis by the binder"
        if ch.term != m.body:
            return "ArrI child must type the abstraction body"
        if canonicalize(ch.ty) != a.cod:
            return "ArrI child type must be the arrow codomain"
    elif r == "ArrE":
        if len(kids) != 2 or not isinstance(m, App):
            return "ArrE types an application from two children"
        cf, cx = kids[0].conclusion, kids[1].conclusion
        if cf.basis != g or cx.basis != g:
            return "ArrE children share the conclusion basis"
        if cf.term != m.fun or cx.term != m.arg:
            return "ArrE children must type the function and the argument"
        fty = canonicalize(cf.ty)
        if not isinstance(fty, Arrow):
            return "ArrE function child needs an arrow type"
        if fty.dom != canonicalize(cx.ty) or fty.cod != a:
            return "ArrE argument/result types must match the function arrow"
    elif r == "CapI":
        if len(kids) != 2:
            return "CapI joins exactly two children"
        c1, c2 = kids[0].conclusion, kids[1].conclusion
        if c1.basis != g or c2.basis != g or c1.term != m or c2.term != m:
            return "CapI children type the same term under the same basis"
        if canonicalize(Inter(c1.ty, c2.ty)) != a:
            return "CapI concludes the & of its children's types"
    elif r == "Le":
        if len(kids) != 1 or d.sub is None:
            return "Le has one child and a subtyping certificate"
        ch = kids[0].conclusion
        if ch.basis != g or ch.term != m:
            return "Le keeps basis and term"
        lo, hi = d.sub.conclusion
        if canonicalize(lo) != canonicalize(ch.ty) or canonicalize(hi) != a:
            return "Le certificate must prove child type <= concluded type"
        sub_ok = check_subproof(t, d.sub, seen)
        if type(sub_ok) is Invalid:
            return f"subtyping certificate invalid: {sub_ok.reason}"
    else:
        return f"unknown rule {r!r}"
    return None


def check_derivation(t: TheorySpec, d: Derivation) -> Valid | Invalid:
    """Validate every node against the six schemata; Le via check_subproof.

    Each distinct derivation node is checked once, and so is each distinct
    proof node: the Le certificates share one set of validated nodes."""
    seen: set[int] = set()
    return check_tree(d, attrgetter("children"), partial(_node_reason, t, seen))
