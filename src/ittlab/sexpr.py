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


def _read_certificate(tk: Tokens, derivation: bool) -> SubProof | Derivation:
    """Read a derivation, or a subproof if derivation is false, off tk, with
    the open nodes on an explicit stack as (rule, conclusion, children).  In
    a derivation node, a child headed by a derivation rule is a derivation,
    any other is the node's subproof and must come last, and every node
    below a subproof is a subproof."""
    tk.take("(")
    rule = tk.word()
    if derivation and rule not in _DERIVATION_RULES:
        raise ParseError(f"unknown derivation rule {rule!r}", tk.at())
    stack: list[tuple[str, object, list]] = []
    while True:
        tk.take("(")
        if derivation:
            basis = _read_basis(tk)
            tk.take("|-")
            term = read_fresh_term(tk)
            tk.take(":")
            conclusion = Judgment(basis, term, read_ty(tk))
        else:
            conclusion = read_le(tk)
        tk.take(")")
        stack.append((rule, conclusion, []))
        while tk.peek() != "(":  # close nodes until one has another child
            tk.take(")")
            rule, conclusion, kids = stack.pop()
            if isinstance(conclusion, tuple):
                node = SubProof(rule, conclusion, tuple(kids))
            else:
                sub = kids.pop() if kids and isinstance(kids[-1], SubProof) else None
                node = Derivation(rule, conclusion, tuple(kids), sub)
            if not stack:
                return node
            stack[-1][2].append(node)
        tk.take("(")
        at = tk.at()
        rule = tk.word()
        _, parent, kids = stack[-1]
        if isinstance(parent, Judgment) and kids and isinstance(kids[-1], SubProof):
            raise ParseError("a node's subproof must come last", at)
        derivation = isinstance(parent, Judgment) and rule in _DERIVATION_RULES


def parse_subproof(text: str) -> SubProof:
    return parse(Tokens(text), lambda tk: _read_certificate(tk, False), "subproof")


def parse_derivation(text: str) -> Derivation:
    return parse(Tokens(text), lambda tk: _read_certificate(tk, True), "derivation")


def _unparse_basis(g: Basis) -> str:
    return ", ".join(f"{x}:{print_ty(a)}" for x, a in g.bindings)


def _unparse(node: SubProof | Derivation) -> str:
    """A certificate's text, on an explicit stack: each node on a line of its
    own, two spaces deeper than its parent, a subproof after its siblings."""
    out: list[str] = []
    stack: list[tuple] = [(node, "")]
    while stack:
        node, pad = stack.pop()
        if node is None:  # a node's children are done
            out.append(")")
            continue
        if isinstance(node, SubProof):
            lo, hi = node.conclusion
            judgment, kids = f"{print_ty(lo)} <= {print_ty(hi)}", node.premises
        else:
            c = node.conclusion
            judgment = f"{_unparse_basis(c.basis)} |- {print_term(c.term)} : {print_ty(c.ty)}"
            kids = node.children if node.sub is None else (*node.children, node.sub)
        out.append(f"{pad}({node.rule} ({judgment})")
        stack.append((None, ""))
        stack.extend((kid, (pad or "\n") + "  ") for kid in reversed(kids))
    return "".join(out)


# the one printer, under the name of each kind of certificate
unparse_subproof = unparse_derivation = _unparse


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
