"""Textual certificate formats.

Subtyping certificates: `(rule (TY <= TY) premise*)`.
Derivations: `(rule (GAMMA |- TERM : TY) child* [subproof])` with GAMMA
written `x:TY, ...` (empty for a closed judgment), each x one identifier
bound once.  Constant map files hold `name -> TY` statements, each name one
identifier, under the statement rule of lexer.statements (newline or `;`,
`#` comments).  Every format is read off one lexer.Tokens cursor by the type
and term readers, so parsers accept arbitrary whitespace and report offsets
into the whole text; unparsers emit a deterministic indented layout.
"""

from __future__ import annotations

from .errors import ParseError
from .kernel import Basis, Derivation, Judgment, SubProof
from .lexer import IDENT, Tokens, parse, statements
from .terms import print_term, read_fresh_term
from .types import Ty, print_ty, read_le, read_ty

_DERIVATION_RULES = {"Ax", "TopU", "ArrI", "ArrE", "CapI", "Le"}


def _read_basis(tk: Tokens) -> Basis:
    """Read `x:TY, ...`, possibly empty, off tk; each x is one identifier,
    bound once."""
    bindings: dict[str, Ty] = {}
    if tk.peek() != IDENT:
        return Basis()
    while True:
        x = tk.take(IDENT)
        if x in bindings:
            raise ParseError(f"variable {x!r} bound twice in basis", tk.last())
        tk.take(":")
        bindings[x] = read_ty(tk)
        if tk.peek() != ",":
            return Basis(tuple(bindings.items()))
        tk.take(",")


def parse_basis(raw: str) -> Basis:
    return parse(Tokens(raw), _read_basis, "basis")


def _read_node(tk: Tokens, read_rest):
    """Read `(rule`, then what read_rest(tk, rule) makes of the rest."""
    tk.take("(")
    return read_rest(tk, tk.word())


def _read_subproof(tk: Tokens, rule: str) -> SubProof:
    tk.take("(")
    lo, hi = read_le(tk)
    tk.take(")")
    premises = []
    while tk.peek() == "(":
        tk.take("(")
        premises.append(_read_subproof(tk, tk.word()))
    tk.take(")")
    return SubProof(rule, (lo, hi), tuple(premises))


def _read_derivation(tk: Tokens, rule: str) -> Derivation:
    if rule not in _DERIVATION_RULES:
        raise ParseError(f"unknown derivation rule {rule!r}", tk.at())
    tk.take("(")
    basis = _read_basis(tk)
    tk.take("|-")
    term = read_fresh_term(tk)
    tk.take(":")
    conclusion = Judgment(basis, term, read_ty(tk))
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
            children.append(_read_derivation(tk, head))
        else:
            sub = _read_subproof(tk, head)
    tk.take(")")
    return Derivation(rule, conclusion, tuple(children), sub)


def parse_subproof(text: str) -> SubProof:
    return parse(Tokens(text), lambda tk: _read_node(tk, _read_subproof), "subproof")


def parse_derivation(text: str) -> Derivation:
    return parse(Tokens(text), lambda tk: _read_node(tk, _read_derivation), "derivation")


def _unparse_basis(g: Basis) -> str:
    return ", ".join(f"{x}:{print_ty(a)}" for x, a in g.bindings)


def unparse_subproof(p: SubProof, indent: int = 0) -> str:
    pad = "  " * indent
    lo, hi = p.conclusion
    head = f"{pad}({p.rule} ({print_ty(lo)} <= {print_ty(hi)})"
    if not p.premises:
        return head + ")"
    body = "\n".join(unparse_subproof(q, indent + 1) for q in p.premises)
    return f"{head}\n{body})"


def unparse_derivation(d: Derivation, indent: int = 0) -> str:
    pad = "  " * indent
    c = d.conclusion
    judg = f"{_unparse_basis(c.basis)} |- {print_term(c.term)} : {print_ty(c.ty)}"
    head = f"{pad}({d.rule} ({judg})"
    parts = [unparse_derivation(ch, indent + 1) for ch in d.children]
    if d.sub is not None:
        parts.append(unparse_subproof(d.sub, indent + 1))
    if not parts:
        return head + ")"
    return head + "\n" + "\n".join(parts) + ")"


def _read_map_line(tk: Tokens) -> tuple[str, Ty]:
    name = tk.take(IDENT)
    tk.take("->")
    return name, read_ty(tk)


def parse_constant_map(text: str) -> dict[str, Ty]:
    """Read `name -> TY` statements (see lexer.statements), each name one
    identifier; later statements override earlier ones."""
    return dict(
        parse(tk, _read_map_line, f"map line {lineno}")
        for lineno, tk in statements(text)
    )
