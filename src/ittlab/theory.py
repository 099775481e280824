"""Theory specifications (.itt syntax) and characteristic sets.

A TheorySpec is the machine form of an itt: declared constants, toggleable
rule schemes, axioms, and atomic order axioms between constants.  natural
theories restrict axioms to `c ~ A` with one defining axiom per constant;
validate_natural rewrites such a theory into the restricted characteristic
form where every right-hand side is a constant, an arrow of constants, or an
intersection of constants, minting $-named auxiliaries for nested subterms.
A TheorySpec computes its hash on construction, and its axioms as
canonical <= pairs and its key, the theory up to its name, once; every
module that reads canonical axioms or compares theories reads these two.
parse_theory reads each .itt statement off one lexer.Tokens cursor, so its
error offsets index the whole file.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Union

from .errors import (
    InvalidInput,
    NaturalShapeViolation,
    ParseError,
    UndeclaredConstant,
)
from .lexer import END, IDENT, Tokens, parse, statements
from .records import Record
from .types import (
    TOP,
    Arrow,
    Const,
    Inter,
    Top,
    Ty,
    canonicalize,
    constants_of,
    inter_parts,
    is_reserved,
    make_inter,
    map_consts,
    read_ty,
)


class RuleFlag(Enum):
    ARROW = "arrow"          # (->): B' <= B and A <= A' give B -> A <= B' -> A'
    ARROW_TOP = "arrow-U"    # (->U): U ~ A -> U
    ARROW_CAP = "arrow-cap"  # (->&): (B -> A) & (B -> A') ~ B -> A & A'
    TOP_LE = "U-leq"         # (U<=): U <= B -> A gives U <= A


class AxiomDecl(Record):
    kind: str  # "le" or "eq"; eq abbreviates both le directions
    lhs: Ty
    rhs: Ty

    def __post_init__(self):
        if self.kind not in ("le", "eq"):
            raise InvalidInput(f"axiom kind must be 'le' or 'eq', got {self.kind!r}")


_CONST_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_']*\Z")


@dataclass(frozen=True)
class TheorySpec:
    """An intersection type theory: constants, rule flags, axioms and order
    clauses; natural theories also get flag arrow-U."""

    name: str
    constants: frozenset[str]
    flags: frozenset[RuleFlag]
    axioms: tuple[AxiomDecl, ...]
    order: tuple[tuple[str, str], ...] = ()
    natural: bool = False

    def __post_init__(self):
        object.__setattr__(self, "constants", frozenset(self.constants))
        flags = frozenset(self.flags)
        if self.natural:
            flags |= {RuleFlag.ARROW_TOP}
        object.__setattr__(self, "flags", flags)
        object.__setattr__(self, "axioms", tuple(self.axioms))
        object.__setattr__(self, "order", tuple(tuple(p) for p in self.order))
        self._check()
        # the hash the dataclass would compute on every call, computed once
        object.__setattr__(self, "_hash", hash(self._fields()))

    def _fields(self) -> tuple:
        return (self.name, self.constants, self.flags, self.axioms, self.order, self.natural)

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # copy and pickle rebuild through the constructor: a string's hash
        # differs between processes, so the stored hash must not travel
        return type(self), self._fields()

    def _check(self) -> None:
        for c in self.constants:
            if c == "U" or is_reserved(c) or not _CONST_NAME.match(c):
                raise ParseError(f"bad constant name {c!r}")
        for ax in self.axioms:
            for c in constants_of(ax.lhs) | constants_of(ax.rhs):
                if c not in self.constants:
                    raise UndeclaredConstant(f"{c!r} in axiom of theory {self.name!r}")
        for lo, hi in self.order:
            for c in (lo, hi):
                if c not in self.constants:
                    raise UndeclaredConstant(f"{c!r} in order clause of {self.name!r}")
        if self.natural:
            seen = set()
            for ax in self.axioms:
                if ax.kind != "eq" or not isinstance(ax.lhs, Const):
                    raise NaturalShapeViolation(
                        f"natural theory {self.name!r} needs axioms of shape c ~ A"
                    )
                if ax.lhs.name in seen:
                    raise NaturalShapeViolation(
                        f"constant {ax.lhs.name!r} defined twice in {self.name!r}"
                    )
                seen.add(ax.lhs.name)

    def le_axiom_pairs(self) -> tuple[tuple[Ty, Ty], ...]:
        """All axioms as <= pairs: eq contributes both directions, order its pair."""
        out: list[tuple[Ty, Ty]] = []
        for ax in self.axioms:
            out.append((ax.lhs, ax.rhs))
            if ax.kind == "eq":
                out.append((ax.rhs, ax.lhs))
        for lo, hi in self.order:
            out.append((Const(lo), Const(hi)))
        return tuple(out)

    @cached_property
    def canonical_pairs(self) -> tuple[tuple[Ty, Ty], ...]:
        """le_axiom_pairs with both sides canonical, in the same order."""
        return tuple((canonicalize(l), canonicalize(r)) for l, r in self.le_axiom_pairs())

    @cached_property
    def key(self) -> tuple:
        """The theory up to its name: equal keys mean the same constants,
        flags and natural marker, and the same set of canonical <= pairs."""
        return (self.constants, self.flags, self.natural, frozenset(self.canonical_pairs))


def _read_name(tk: Tokens, what: str) -> str:
    name = tk.take(IDENT)
    if not _CONST_NAME.match(name):
        raise ParseError(f"bad {what} {name!r}", tk.last())
    return name


def _read_statement(tk: Tokens, spec: dict) -> None:
    """Read one statement off tk into spec, the TheorySpec fields so far."""
    head = tk.take(IDENT)
    if head == "theory":
        if spec["name"] is not None:
            raise ParseError("duplicate theory statement", tk.last())
        spec["name"] = _read_name(tk, "theory name")
    elif head == "natural":
        spec["natural"] = True
    elif head == "constants":
        spec["constants"].append(tk.take(IDENT))
        while tk.peek() == IDENT:
            spec["constants"].append(tk.take(IDENT))
    elif head == "flags":
        while tk.peek() != END:
            at, w = tk.at(), tk.word()
            try:
                spec["flags"].add(RuleFlag(w))
            except ValueError:
                raise ParseError(f"unknown flag {w!r}", at) from None
    elif head == "axiom":
        lhs = read_ty(tk)
        kind = "eq" if tk.peek() == "~" else "le"
        tk.take("~" if kind == "eq" else "<=")
        spec["axioms"].append(AxiomDecl(kind, lhs, read_ty(tk)))
    elif head == "order":
        lo = _read_name(tk, "constant name in order clause")
        tk.take("<=")
        spec["order"].append((lo, _read_name(tk, "constant name in order clause")))
    else:
        raise ParseError(f"unknown statement {head!r}", tk.last())


def parse_theory(src: str) -> TheorySpec:
    """Parse the .itt statement language.

    Statements (see lexer.statements: newline- or ;-separated, # comments):
      theory NAME | natural | constants id+ | flags name* |
      axiom TY (<= | ~) TY | order id <= id
    """
    spec: dict = {"name": None, "natural": False, "constants": [], "flags": set(),
                  "axioms": [], "order": []}
    for lineno, tk in statements(src):
        parse(tk, lambda tk: _read_statement(tk, spec), f"statement on line {lineno}")
    return TheorySpec(spec.pop("name") or "unnamed", **spec)


# -- characteristic sets -------------------------------------------------------


TOP_CONST = "$U"  # stands for U on a characteristic right-hand side


class SelfC(Record):
    """c ~ c."""


class ArrowC(Record):
    """c ~ dom -> cod with constant sides."""

    dom: str
    cod: str


class InterC(Record):
    """c ~ left & right with constant sides."""

    left: str
    right: str


Rhs = Union[SelfC, ArrowC, InterC]


def mentioned(rhs: Rhs) -> tuple[str, ...]:
    match rhs:
        case SelfC():
            return ()
        case ArrowC(dom, cod):
            return (dom, cod)
        case InterC(left, right):
            return (left, right)
    raise TypeError(f"not an rhs: {rhs!r}")


class CharacteristicSet(Record):
    """Restricted-form characteristic set of a natural theory.

    axioms covers every surviving constant (originals that were not pure
    renamings, the minted $n auxiliaries, and $U when U occurs on some rhs).
    aliases maps each eliminated constant to its representative.
    """

    theory: TheorySpec
    axioms: dict[str, Rhs]
    fresh_defs: dict[str, Ty]
    aliases: dict[str, str]

    __hash__ = None  # its fields are dicts


def validate_natural(t: TheorySpec) -> CharacteristicSet:
    """Rewrite a natural theory into restricted characteristic form.

    Pure renamings c ~ c' are eliminated by substituting a representative
    (least name on cycles); c ~ U aliases c to the reserved $U.  Nested
    right-hand sides are split out into fresh $1, $2, ... in depth-first
    discovery order, one per distinct canonical subterm.
    """
    if not t.natural:
        raise InvalidInput(f"theory {t.name!r} is not natural")

    defs: dict[str, Ty] = {}
    order: list[str] = []  # axiom order drives $-numbering
    for ax in t.axioms:
        assert isinstance(ax.lhs, Const)
        defs[ax.lhs.name] = canonicalize(ax.rhs)
        order.append(ax.lhs.name)
    for c in sorted(t.constants):
        if c not in defs:
            defs[c] = Const(c)
            order.append(c)

    # Eliminate renamings to a fixed point; substitution can expose new ones
    # (e.g. a ~ b & c collapses to a ~ r once b and c share representative r).
    aliases: dict[str, str] = {}
    while True:
        rename: dict[str, str] = {}
        for c, rhs in defs.items():
            if isinstance(rhs, Const) and rhs.name != c:
                rename[c] = rhs.name
            elif isinstance(rhs, Top):
                rename[c] = TOP_CONST
        if not rename:
            break
        # A renamed constant's representative is where its chain of renamings
        # leaves the renamed set, or the least member of the cycle it enters.
        round_aliases: dict[str, str] = {}
        for c in rename:
            chain, cur = {c: 0}, rename[c]
            while cur in rename and cur not in chain:
                chain[cur] = len(chain)
                cur = rename[cur]
            rep = min(list(chain)[chain[cur]:]) if cur in chain else cur
            if rep != c:
                round_aliases[c] = rep
        subst = {
            x: (TOP if rep == TOP_CONST else Const(rep))
            for x, rep in round_aliases.items()
        }
        for x in round_aliases:
            del defs[x]
        for c in list(defs):
            defs[c] = canonicalize(
                map_consts(defs[c], lambda n: subst.get(n, Const(n)))
            )
        aliases.update(round_aliases)
    # Compress chains created across rounds.
    for x in list(aliases):
        rep = aliases[x]
        while rep in aliases:
            rep = aliases[rep]
        aliases[x] = rep

    out: dict[str, Rhs] = {}
    fresh_defs: dict[str, Ty] = {}
    fresh_by_canon: dict[Ty, str] = {}
    counter = 0
    used_top = TOP_CONST in aliases.values()

    def name_of(sub: Ty) -> str:
        nonlocal counter, used_top
        match sub:
            case Const(n):
                return n
            case Top():
                used_top = True
                return TOP_CONST
            case _:
                if sub in fresh_by_canon:
                    return fresh_by_canon[sub]
                counter += 1
                nm = f"${counter}"
                fresh_by_canon[sub] = nm
                fresh_defs[nm] = sub
                define(nm, sub)
                return nm

    def define(c: str, rhs: Ty) -> None:
        match rhs:
            case Const(n):
                assert n == c, "renamings were eliminated above"
                out[c] = SelfC()
            case Arrow(dom, cod):
                out[c] = ArrowC(name_of(dom), name_of(cod))
            case Inter(_, _):
                parts = inter_parts(rhs)
                tail = parts[1] if len(parts) == 2 else make_inter(parts[1:])
                out[c] = InterC(name_of(parts[0]), name_of(tail))
            case _:
                raise AssertionError(f"unexpected rhs shape {rhs!r}")

    for c in order:
        if c in defs:
            define(c, defs[c])
    if used_top:
        out[TOP_CONST] = SelfC()

    return CharacteristicSet(theory=t, axioms=out, fresh_defs=fresh_defs, aliases=aliases)


def back_substitute(cs: CharacteristicSet, c: str) -> Ty:
    """The rhs of c as a type over the surviving original constants.

    Expanding a fresh constant returns the subterm it names; expanding an
    original constant rebuilds its full (canonical) right-hand side.
    """
    if c in cs.fresh_defs:
        return cs.fresh_defs[c]
    if c == TOP_CONST:
        return TOP

    def leaf(n: str) -> Ty:
        if n == TOP_CONST:
            return TOP
        if n in cs.fresh_defs:
            return cs.fresh_defs[n]
        return Const(n)

    match cs.axioms[c]:
        case SelfC():
            return Const(c)
        case ArrowC(dom, cod):
            return Arrow(leaf(dom), leaf(cod))
        case InterC(left, right):
            return canonicalize(Inter(leaf(left), leaf(right)))
    raise TypeError(f"no rhs for {c!r}")
