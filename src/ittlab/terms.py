"""Lambda terms: parsing, printing, substitution, head reduction.

Terms obey Barendregt's convention: every parse freshens binders so that no
binder shadows another binder or a free variable.  Equality (and hashing) is
alpha-equivalence, implemented by comparing canonical de Bruijn skeletons, so
the freshening is unobservable to clients.  A term computes its skeleton, its
free variables and its hash once, when first asked.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Union

from .errors import InvalidInput, ParseError
from .lexer import IDENT, Tokens, parse

Term = Union["Var", "Abs", "App"]


class _TermBase:
    @cached_property
    def _canon(self) -> tuple:
        return _canon_term(self, {}, 0)

    @cached_property
    def _free(self) -> frozenset[str]:
        return _free_vars(self)

    @cached_property
    def _hash(self) -> int:
        return hash(self._canon)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _TermBase):
            return NotImplemented
        return self._canon == other._canon

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # copy and pickle rebuild from the fields alone: a string's hash
        # differs between processes, so the memoised _hash must not travel
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)

    def __str__(self) -> str:
        return print_term(self)


@dataclass(frozen=True, eq=False, repr=False)
class Var(_TermBase):
    name: str

    def __repr__(self) -> str:
        return f"Var({self.name!r})"


@dataclass(frozen=True, eq=False, repr=False)
class Abs(_TermBase):
    binder: str
    body: Term

    def __repr__(self) -> str:
        return f"Abs({self.binder!r}, {self.body!r})"


@dataclass(frozen=True, eq=False, repr=False)
class App(_TermBase):
    fun: Term
    arg: Term

    def __repr__(self) -> str:
        return f"App({self.fun!r}, {self.arg!r})"


def _canon_term(t: Term, env: dict[str, int], depth: int) -> tuple:
    match t:
        case Var(name):
            if name in env:
                return ("b", depth - env[name])
            return ("f", name)
        case Abs(binder, body):
            inner = dict(env)
            inner[binder] = depth + 1
            return ("l", _canon_term(body, inner, depth + 1))
        case App(fun, arg):
            return ("a", _canon_term(fun, env, depth), _canon_term(arg, env, depth))
    raise TypeError(f"not a term: {t!r}")


def _free_vars(t: Term) -> frozenset[str]:
    match t:
        case Var(name):
            return frozenset({name})
        case Abs(binder, body):
            return body._free - {binder}
        case App(fun, arg):
            return fun._free | arg._free
    raise TypeError(f"not a term: {t!r}")


def free_vars(t: Term) -> frozenset[str]:
    return t._free


def alpha_eq(a: Term, b: Term) -> bool:
    return a._canon == b._canon


def _all_names(t: Term) -> set[str]:
    match t:
        case Var(name):
            return {name}
        case Abs(binder, body):
            return {binder} | _all_names(body)
        case App(fun, arg):
            return _all_names(fun) | _all_names(arg)
    raise TypeError(f"not a term: {t!r}")


_SUFFIX = re.compile(r"_\d+$")


def fresh_name(base: str, avoid: set[str]) -> str:
    """Smallest variant of base (base, base_1, base_2, ...) not in avoid."""
    stem = _SUFFIX.sub("", base) or "x"
    if base not in avoid:
        return base
    n = 1
    while f"{stem}_{n}" in avoid:
        n += 1
    return f"{stem}_{n}"


def freshen(t: Term, avoid: set[str] | None = None) -> Term:
    """Rename binders so all are distinct from each other and from free names.

    Binder names that cause no collision are kept, so round-tripping through
    the printer stays readable.
    """
    used = set(avoid or ()) | free_vars(t)

    def go(t: Term, ren: dict[str, str]) -> Term:
        match t:
            case Var(name):
                return Var(ren.get(name, name))
            case Abs(binder, body):
                new = fresh_name(binder, used)
                used.add(new)
                inner = dict(ren)
                inner[binder] = new
                return Abs(new, go(body, inner))
            case App(fun, arg):
                return App(go(fun, ren), go(arg, ren))
        raise TypeError(f"not a term: {t!r}")

    return go(t, {})


def read_term(tk: Tokens) -> Term:
    """Read `t ::= ident | \\ ident+ . t | t t | (t)` off tk, up to the first
    token that cannot start an atom.

    Application associates left; an abstraction body extends as far right as
    possible.  Binders are read as written, not freshened.
    """
    if tk.peek() == "\\":
        return _read_lambda(tk)
    out = _read_atom(tk)
    while (kind := tk.peek()) == IDENT or kind == "(":
        out = App(out, _read_atom(tk))
    if kind == "\\":
        out = App(out, _read_lambda(tk))
    return out


def _read_lambda(tk: Tokens) -> Term:
    tk.take("\\")
    binders = [_read_name(tk)]
    while tk.peek() == IDENT:
        binders.append(_read_name(tk))
    tk.take(".")
    body = read_term(tk)
    for b in reversed(binders):
        body = Abs(b, body)
    return body


def _read_atom(tk: Tokens) -> Term:
    kind = tk.peek()
    if kind == "(":
        tk.take("(")
        inner = read_term(tk)
        tk.take(")")
        return inner
    if kind != IDENT:
        raise ParseError("empty term", tk.at())
    return Var(_read_name(tk))


def _read_name(tk: Tokens) -> str:
    at = tk.at()
    name = tk.take(IDENT)
    if "$" in name:
        raise ParseError(f"reserved name {name!r}", at)
    return name


def parse_term(src: str) -> Term:
    """The term that is all of src, with its binders freshened; see read_term."""
    return parse(Tokens(src), lambda tk: freshen(read_term(tk)), "term")


def print_term(t: Term) -> str:
    """Minimal-parenthesis printer; inverse of parse_term up to alpha."""
    match t:
        case Var(name):
            return name
        case Abs(_, _):
            binders = []
            body = t
            while isinstance(body, Abs):
                binders.append(body.binder)
                body = body.body
            return f"\\{' '.join(binders)}.{print_term(body)}"
        case App(_, _):
            # walk the application spine iteratively, as classify_shape does,
            # so a long head-reduction trace cannot exhaust the stack
            args: list[Term] = []
            while isinstance(t, App):
                args.append(t.arg)
                t = t.fun
            parts = [f"({print_term(t)})" if isinstance(t, Abs) else print_term(t)]
            for a in reversed(args):
                text = print_term(a)
                parts.append(f"({text})" if isinstance(a, (App, Abs)) else text)
            return " ".join(parts)
    raise TypeError(f"not a term: {t!r}")


def substitute(m: Term, x: str, n: Term) -> Term:
    """Capture-avoiding M[x:=N]."""
    if x not in free_vars(m):
        return m
    avoid = _all_names(m) | _all_names(n)

    def go(t: Term) -> Term:
        match t:
            case Var(name):
                return n if name == x else t
            case Abs(binder, body):
                if binder == x:
                    return t
                if x not in free_vars(body):
                    return t
                if binder in free_vars(n):
                    new = fresh_name(binder, avoid)
                    avoid.add(new)
                    body = _rename_free(body, binder, new)
                    return Abs(new, go(body))
                return Abs(binder, go(body))
            case App(fun, arg):
                return App(go(fun), go(arg))
        raise TypeError(f"not a term: {t!r}")

    return go(m)


def _rename_free(t: Term, old: str, new: str) -> Term:
    match t:
        case Var(name):
            return Var(new) if name == old else t
        case Abs(binder, body):
            if binder == old:
                return t
            return Abs(binder, _rename_free(body, old, new))
        case App(fun, arg):
            return App(_rename_free(fun, old, new), _rename_free(arg, old, new))
    raise TypeError(f"not a term: {t!r}")


@dataclass(frozen=True)
class HeadNormal:
    """lx1..xn. y M1 ... Mm with a variable y in head position."""

    binders: tuple[str, ...]
    head: str
    args: tuple[Term, ...]


@dataclass(frozen=True)
class HeadRedex:
    """lx1..xn. (lz.N) P M1 ... Mm; the redex (lz.N) P is the head redex."""

    binders: tuple[str, ...]
    redex_fun_binder: str
    redex_fun_body: Term
    redex_arg: Term
    args: tuple[Term, ...]


Shape = Union[HeadNormal, HeadRedex]


def classify_shape(m: Term) -> Shape:
    """Total decomposition: every term is a head normal form or has a head redex."""
    binders = []
    while isinstance(m, Abs):
        binders.append(m.binder)
        m = m.body
    args: list[Term] = []
    while isinstance(m, App):
        args.append(m.arg)
        m = m.fun
    args.reverse()
    if isinstance(m, Var):
        return HeadNormal(tuple(binders), m.name, tuple(args))
    assert isinstance(m, Abs)
    if not args:
        raise AssertionError("abstraction spine left no argument for the redex")
    return HeadRedex(tuple(binders), m.binder, m.body, args[0], tuple(args[1:]))


def head_step(m: Term) -> Term | None:
    """Contract the head redex, or None when m is already in head normal form."""
    shape = classify_shape(m)
    if isinstance(shape, HeadNormal):
        return None
    out = substitute(shape.redex_fun_body, shape.redex_fun_binder, shape.redex_arg)
    for a in shape.args:
        out = App(out, a)
    for b in reversed(shape.binders):
        out = Abs(b, out)
    return out


@dataclass(frozen=True)
class Reached:
    hnf: Term
    steps: int


@dataclass(frozen=True)
class FuelExhausted:
    last: Term
    steps: int


def _same_named(a: Term, b: Term) -> bool:
    """Structural equality including binder names; == is alpha-equivalence.

    Walks application spines in a loop and skips shared subterms, so
    comparing a reduct with an earlier term costs little next to head_step.
    """
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        while a is not b:
            if type(a) is not type(b):
                return False
            if isinstance(a, Var):
                if a.name != b.name:
                    return False
                break
            if isinstance(a, Abs):
                if a.binder != b.binder:
                    return False
                a, b = a.body, b.body
            else:
                if a.arg is not b.arg:
                    stack.append((a.arg, b.arg))
                a, b = a.fun, b.fun
    return True


def head_reduce(m: Term, fuel: int) -> Reached | FuelExhausted:
    """Run at most fuel head steps; Reached means a head normal form was hit.

    Reached proves m solvable.  FuelExhausted never asserts unsolvability:
    head reduction of a solvable term can simply be longer than the budget.

    head_step is a function of the named term, so once a term repeats by
    name the reduction is periodic and the term at step fuel is found by
    stepping the remainder of fuel modulo the period.  Repeats are found by
    Brent's cycle detection, which keeps one saved term.
    """
    if fuel < 0:
        raise InvalidInput("fuel must be nonnegative")
    saved, saved_at, power = m, 0, 1
    steps = 0
    while steps <= fuel:
        nxt = head_step(m)
        if nxt is None:
            return Reached(m, steps)
        if steps == fuel:
            break
        m = nxt
        steps += 1
        if _same_named(m, saved):
            for _ in range((fuel - steps) % (steps - saved_at)):
                m = head_step(m)
            break
        if steps - saved_at == power:
            saved, saved_at, power = m, steps, 2 * power
    return FuelExhausted(m, fuel)
