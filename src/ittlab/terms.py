"""Lambda terms: parsing, printing, substitution, head reduction.

Terms obey Barendregt's convention: every parse freshens binders so that no
binder shadows another binder or a free variable.  Equality (and hashing) is
alpha-equivalence, implemented by comparing locally nameless skeletons (free
variables by name, bound ones by de Bruijn index), so the freshening is
unobservable to clients.

Terms pay for alpha-equality only when it is asked.  A term hashes by its
shape, an int made from its node kinds alone, and by its free variables,
neither of which renaming a binder can change; == compares the hashes
first, and only terms whose hashes meet build their skeletons and compare
them.  A constructor writes its fields and computes nothing; a term's free
variables, shape and skeleton are memoised on it the first time they are
asked for, each made from its children's memoised values.  An application
shares its children's skeletons, and an abstraction rebuilds only the paths
that reach its binder.

Every term text is read by one reader, read_fresh_term, which fills each
node's free variables and shape as it builds it, from its children's, so a
parsed term never walks itself for them.  It gives each binder its fresh
name as it reads it, so a parsed term is never walked to be freshened
either; it reads a term a second time only when a free name turns out to be
a name it gave a binder.  freshen, for terms built by substitution, returns
every subterm that it does not rename as the same object and fills the memo
of every node it builds.
"""

from __future__ import annotations

import re
from dataclasses import FrozenInstanceError
from typing import Union

from .errors import InvalidInput, ParseError
from .lexer import IDENT, IDENT_START, Tokens, parse
from .records import Record

Term = Union["Var", "Abs", "App"]


class _Term:
    """Shared behaviour of the three immutable term constructors.

    A constructor writes its fields and leaves the memo slots None; each is
    filled, without a lock, the first time it is read:

    - _fv, the free variables, from the children's sets (free_vars); the
      reader, freshen and substitute write it as they build each node;
    - _shape (Abs and App; a variable's is _VAR_SHAPE), from the children's
      shapes (_shape_of); the builders write it with _fv when the
      children's are filled;
    - _sk, the skeleton (Abs and App only), from the children's skeletons
      (_skeleton).

    The hash is that of (shape, free variables): alpha-equal terms share
    both, and an int shape hashes alike under every PYTHONHASHSEED.  A
    skeleton is the locally nameless form of the term: a free variable is
    its name, a bound one its de Bruijn index (an int), an abstraction
    (hash, body) and an application (hash, fun, arg).  Alpha-equal terms, and
    only they, have equal skeletons, and a skeleton's hash is made from its
    children's stored hashes, so no deep tuple is ever hashed.  == builds
    skeletons only for terms of one type whose hashes are equal.
    """

    __slots__ = ("_fv",)
    __match_args__: tuple[str, ...] = ()

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, _Term):
            return NotImplemented
        if type(self) is not type(other) or hash(self) != hash(other):
            return False
        return _same(_skeleton(self), _skeleton(other))

    def __hash__(self) -> int:
        # Var has its own; an abstraction's or application's is made from
        # what no renaming of a binder changes
        shape, fv = self._shape, self._fv
        if shape is None:
            shape = _shape_of(self)
        if fv is None:
            fv = free_vars(self)
        return hash((shape, fv))

    def __reduce__(self):
        # copy and pickle rebuild from the fields alone: a string's hash
        # differs between processes, so the memoised skeleton must not travel
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __str__(self) -> str:
        return print_term(self)


# every variable's shape, a fixed int that no hash seed changes
_VAR_SHAPE = 1


class Var(_Term):
    __slots__ = ("name",)
    __match_args__ = ("name",)
    name: str
    _shape = _VAR_SHAPE

    def __init__(self, name: str):
        _set_name(self, name)
        _set_fv(self, None)

    def __eq__(self, other: object) -> bool:
        if type(other) is Var:
            return self.name == other.name
        return super().__eq__(other)

    def __hash__(self) -> int:
        return hash(self.name)

    def __repr__(self) -> str:
        return f"Var({self.name!r})"


class Abs(_Term):
    __slots__ = ("binder", "body", "_shape", "_sk")
    __match_args__ = ("binder", "body")
    binder: str
    body: Term

    def __init__(self, binder: str, body: Term):
        _set_binder(self, binder)
        _set_body(self, body)
        _set_fv(self, None)
        _set_abs_shape(self, None)
        _set_abs_sk(self, None)

    def __repr__(self) -> str:
        return f"Abs({self.binder!r}, {self.body!r})"


class App(_Term):
    __slots__ = ("fun", "arg", "_shape", "_sk")
    __match_args__ = ("fun", "arg")
    fun: Term
    arg: Term

    def __init__(self, fun: Term, arg: Term):
        _set_fun(self, fun)
        _set_arg(self, arg)
        _set_fv(self, None)
        _set_app_shape(self, None)
        _set_app_sk(self, None)

    def __repr__(self) -> str:
        return f"App({self.fun!r}, {self.arg!r})"


# fields and memo slots are written through their descriptors, past the
# __setattr__ that keeps terms immutable
_set_fv = _Term._fv.__set__
_set_name = Var.name.__set__
_set_binder = Abs.binder.__set__
_set_body = Abs.body.__set__
_set_abs_shape = Abs._shape.__set__
_set_abs_sk = Abs._sk.__set__
_set_fun = App.fun.__set__
_set_arg = App.arg.__set__
_set_app_shape = App._shape.__set__
_set_app_sk = App._sk.__set__
_new = object.__new__


def _abs_fv(binder: str, body: frozenset[str]) -> frozenset[str]:
    return body - {binder} if binder in body else body


def _app_fv(fun: frozenset[str], arg: frozenset[str]) -> frozenset[str]:
    return fun if arg <= fun else arg if fun <= arg else fun | arg


# The builders of the reader, freshen and substitute: each writes a node's
# fields and its free variables, made from its children's, which must be
# filled, and its shape, when its children's are filled.  A shape hashes a
# tuple of one field for an abstraction and of two for an application, so
# the kind of every node goes into it.


def _var(name: str) -> Var:
    u = _new(Var)
    _set_name(u, name)
    _set_fv(u, frozenset((name,)))
    return u


def _abs(binder: str, body: Term) -> Abs:
    u = _new(Abs)
    _set_binder(u, binder)
    _set_body(u, body)
    _set_fv(u, _abs_fv(binder, body._fv))
    b = body._shape
    _set_abs_shape(u, None if b is None else hash((b,)))
    _set_abs_sk(u, None)
    return u


def _app(fun: Term, arg: Term) -> App:
    u = _new(App)
    _set_fun(u, fun)
    _set_arg(u, arg)
    _set_fv(u, _app_fv(fun._fv, arg._fv))
    f, a = fun._shape, arg._shape
    _set_app_shape(u, None if f is None or a is None else hash((f, a)))
    _set_app_sk(u, None)
    return u


def free_vars(t: Term) -> frozenset[str]:
    """The free variables of t, memoised on t and on each subterm."""
    fv = t._fv
    if fv is not None:
        return fv
    # fill the memo children first with an explicit stack, so that no depth
    # of term can exhaust the interpreter's
    stack = [t]
    while stack:
        u = stack[-1]
        if u._fv is not None:
            stack.pop()
            continue
        if type(u) is Var:
            fv = frozenset((u.name,))
        elif type(u) is Abs:
            inner = u.body._fv
            if inner is None:
                stack.append(u.body)
                continue
            fv = _abs_fv(u.binder, inner)
        else:
            f, a = u.fun._fv, u.arg._fv
            if f is None or a is None:
                if f is None:
                    stack.append(u.fun)
                if a is None:
                    stack.append(u.arg)
                continue
            fv = _app_fv(f, a)
        _set_fv(u, fv)
        stack.pop()
    return t._fv


def _shape_of(t: Abs | App) -> int:
    """t's shape, memoised on t and on each abstraction and application
    below it, filled children first with an explicit stack as free_vars
    fills its memo."""
    stack = [t]
    while stack:
        u = stack[-1]
        if u._shape is not None:
            stack.pop()
            continue
        if type(u) is Abs:
            b = u.body._shape
            if b is None:
                stack.append(u.body)
                continue
            _set_abs_shape(u, hash((b,)))
        else:
            f, a = u.fun._shape, u.arg._shape
            if f is None or a is None:
                if f is None:
                    stack.append(u.fun)
                if a is None:
                    stack.append(u.arg)
                continue
            _set_app_shape(u, hash((f, a)))
        stack.pop()
    return t._shape


def _skel_hash(s: object) -> int:
    return s[0] if type(s) is tuple else hash(s)


def _app_skel(f: object, a: object) -> tuple:
    return hash((_skel_hash(f), _skel_hash(a))), f, a


def _abs_skel(b: object) -> tuple:
    return hash((_skel_hash(b),)), b


def _skeleton(t: Term) -> object:
    """t's skeleton, memoised on t and on each abstraction and application
    below it; a variable's skeleton is its name."""
    if type(t) is Var:
        return t.name
    sk = t._sk
    if sk is not None:
        return sk
    stack = [t]
    while stack:
        u = stack[-1]
        if u._sk is not None:
            stack.pop()
            continue
        if type(u) is App:
            f, a = u.fun, u.arg
            fs = f.name if type(f) is Var else f._sk
            as_ = a.name if type(a) is Var else a._sk
            if fs is None or as_ is None:
                if fs is None:
                    stack.append(f)
                if as_ is None:
                    stack.append(a)
                continue
            _set_app_sk(u, _app_skel(fs, as_))
        else:
            b = u.body
            bs = b.name if type(b) is Var else b._sk
            if bs is None:
                stack.append(b)
                continue
            _set_abs_sk(u, _abs_skel(_close(b, bs, u.binder)))
        stack.pop()
    return t._sk


# a marker on _close's work stack: rebuild the node of that many children
# from the last results
_BUILD = object()


def _close(t: Term, s: object, x: str) -> object:
    """s, the skeleton of t, with the free occurrences of x bound by an
    abstraction just above t.  Only the paths that reach x are rebuilt;
    every subterm where x is not free keeps its skeleton."""
    if x not in free_vars(t):
        return s
    # free_vars(t) has filled the memo of every subterm of t
    done: list[object] = []
    todo: list[tuple] = [(t, s, 0)]
    while todo:
        u, s, depth = todo.pop()
        if u is _BUILD:
            if s == 2:
                a = done.pop()
                done.append(_app_skel(done.pop(), a))
            else:
                done.append(_abs_skel(done.pop()))
        elif x not in u._fv:
            done.append(s)
        elif type(u) is Var:
            done.append(depth)
        elif type(u) is Abs:
            todo.append((_BUILD, 1, 0))
            todo.append((u.body, s[1], depth + 1))
        else:
            todo.append((_BUILD, 2, 0))
            todo.append((u.arg, s[2], depth))
            todo.append((u.fun, s[1], depth))
    return done[0]


def _same(a: object, b: object) -> bool:
    """Whether two skeletons are equal, compared node by node with a stack:
    a shared node is equal at once, a differing hash unequal at once."""
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        if a is b:
            continue
        if type(a) is not tuple or type(b) is not tuple:
            if a != b:
                return False
        elif a[0] != b[0] or len(a) != len(b):
            return False
        else:
            stack.extend(zip(a[1:], b[1:]))
    return True


def alpha_eq(a: Term, b: Term) -> bool:
    return a == b


def _all_names(t: Term) -> set[str]:
    """Every name in t, free or bound."""
    names: set[str] = set()
    stack = [t]
    while stack:
        u = stack.pop()
        if type(u) is Var:
            names.add(u.name)
        elif type(u) is Abs:
            names.add(u.binder)
            stack.append(u.body)
        elif type(u) is App:
            stack.append(u.arg)
            stack.append(u.fun)
        else:
            raise TypeError(f"not a term: {u!r}")
    return names


_SUFFIX = re.compile(r"_\d+$")


def fresh_name(base: str, avoid: set[str]) -> str:
    """Smallest variant of base (base, base_1, base_2, ...) not in avoid."""
    if base not in avoid:
        return base
    stem = _SUFFIX.sub("", base) or "x"
    n = 1
    while f"{stem}_{n}" in avoid:
        n += 1
    return f"{stem}_{n}"


def freshen(t: Term, avoid: set[str] | None = None) -> Term:
    """Rename binders so all are distinct from each other and from free names.

    Binder names that cause no collision are kept, so round-tripping through
    the printer stays readable, and every subterm with nothing renamed in it
    is returned as the same object.  Every node it builds has its free
    variables memoised, like the subterms it keeps, and its shape when its
    children's are.
    """
    used = set(avoid or ()) | free_vars(t)
    # Walks an explicit stack, function before argument, so that no length
    # of spine can exhaust the interpreter's.  ren holds only the binders
    # that were renamed: a binder whose name is used already is renamed, and
    # every binder's name is used once visited.  An entry (_BUILD, (u, new))
    # rebuilds u from the last results, an abstraction whose binder becomes
    # new or, with new None, an application, and keeps u if nothing changed.
    done: list[Term] = []
    todo: list[tuple] = [(t, {})]
    while todo:
        u, ren = todo.pop()
        if u is _BUILD:
            u, new = ren
            if new is None:
                arg = done.pop()
                fun = done.pop()
                done.append(u if fun is u.fun and arg is u.arg else _app(fun, arg))
            else:
                body = done.pop()
                done.append(u if body is u.body and new == u.binder else _abs(new, body))
        elif type(u) is Var:
            new = ren.get(u.name)
            done.append(u if new is None else _var(new))
        elif type(u) is Abs:
            new = fresh_name(u.binder, used)
            used.add(new)
            todo.append((_BUILD, (u, new)))
            todo.append((u.body, ren if new == u.binder else {**ren, u.binder: new}))
        elif type(u) is App:
            todo.append((_BUILD, (u, None)))
            todo.append((u.arg, ren))
            todo.append((u.fun, ren))
        else:
            raise TypeError(f"not a term: {u!r}")
    return done[0]


def read_fresh_term(tk: Tokens) -> Term:
    """Read `t ::= ident | \\ ident+ . t | t t | (t)` off tk, up to the first
    token that cannot start an atom, with its binders freshened: the one
    reader of every term text.

    Application associates left; an abstraction body extends as far right as
    possible.  Each node is built with its free variables and shape
    memoised.  The binders are freshened as they are read, to what freshen
    makes of the term: each binder, in reading order, which is preorder,
    keeps its name unless the name is taken, and takes fresh_name's
    otherwise.  A name is taken once a binder has it, or when it is a free
    name of the term, which is known only at the end: a term whose free
    names meet its binders' is read again, with its free names taken from
    the start.
    """
    start = tk.pos
    free: set[str] = set()
    taken: set[str] = set()
    t = _read_term(tk, (taken, {}, free))
    if free.isdisjoint(taken):
        return t
    tk.pos = start
    return _read_term(tk, (set(free), {}, set()))


# Each nesting level of a term costs the reader the frames it always has, a
# term and an atom or a lambda, with a variable built by its constructor and
# its name read by _read_name, so that input nested too deep for the
# interpreter's stack fails at the offset where it always has (lexer.parse).
# The reader's state is (taken, scope, free): the names taken so far, each
# enclosing binder's name as read mapped to the name it was given, and the
# free names met so far.


def _read_term(tk: Tokens, state: tuple) -> Term:
    texts = tk.texts
    if texts[tk.pos] == "\\":
        return _read_lambda(tk, state)
    out = _read_atom(tk, state)
    while (text := texts[tk.pos]) == "(" or text[:1] in IDENT_START:
        out = _app(out, _read_atom(tk, state))
    if text == "\\":
        out = _app(out, _read_lambda(tk, state))
    return out


def _read_lambda(tk: Tokens, state: tuple) -> Term:
    tk.take("\\")
    names = [_read_name(tk)]
    while tk.texts[tk.pos][:1] in IDENT_START:
        names.append(_read_name(tk))
    tk.take(".")
    taken, scope, _ = state
    bound = []
    for b in names:
        new = fresh_name(b, taken)
        taken.add(new)
        bound.append((b, new, scope.get(b)))
        scope[b] = new
    body = _read_term(tk, state)
    for b, new, outer in reversed(bound):
        if outer is None:
            del scope[b]
        else:
            scope[b] = outer
        body = _abs(new, body)
    return body


def _read_atom(tk: Tokens, state: tuple) -> Term:
    text = tk.texts[tk.pos]
    if text == "(":
        tk.take("(")
        inner = _read_term(tk, state)
        tk.take(")")
        return inner
    if text[:1] not in IDENT_START:
        raise ParseError("empty term", tk.at())
    name = _read_name(tk)
    given = state[1].get(name)
    if given is None:
        state[2].add(name)
        given = name
    u = Var(given)
    _set_fv(u, frozenset((given,)))
    return u


def _read_name(tk: Tokens) -> str:
    name = tk.take(IDENT)
    if "$" in name:
        raise ParseError(f"reserved name {name!r}", tk.last())
    return name


def parse_term(src: str) -> Term:
    """The term that is all of src, with its binders freshened; see
    read_fresh_term."""
    return parse(Tokens(src), read_fresh_term, "term")


def print_term(t: Term) -> str:
    """Minimal-parenthesis printer; inverse of parse_term up to alpha.

    Walks an explicit stack of terms and of text to emit as it is, so that
    no depth of term can exhaust the interpreter's."""
    out: list[str] = []
    todo: list = [t]
    while todo:
        u = todo.pop()
        if type(u) is str:
            out.append(u)
        elif type(u) is Var:
            out.append(u.name)
        elif type(u) is Abs:
            binders = []
            while type(u) is Abs:
                binders.append(u.binder)
                u = u.body
            out.append(f"\\{' '.join(binders)}.")
            todo.append(u)
        elif type(u) is App:
            # the spine's arguments, last first, each after a space and
            # parenthesised unless a variable; then its head
            while type(u) is App:
                a = u.arg
                todo += (a, " ") if type(a) is Var else (")", a, " (")
                u = u.fun
            todo += (")", u, "(") if type(u) is Abs else (u,)
        else:
            raise TypeError(f"not a term: {u!r}")
    return "".join(out)


def substitute(m: Term, x: str, n: Term) -> Term:
    """Capture-avoiding M[x:=N].

    Walks an explicit stack, function before argument, as freshen does.  sub
    maps each name to what its free occurrences become: x to n, and each
    binder renamed on the way down, because n goes below it with its name
    free, to a name of neither m nor n nor an earlier rename, which captures
    nothing.  Subterms where no name of sub is free are kept as they are,
    and every node built has its free variables memoised, and its shape
    when its children's are.  An entry
    (_BUILD, new) builds an abstraction with binder new from the last
    result or, with new None, an application from the last two.
    """
    if x not in free_vars(m):
        return m
    # free_vars(m) has filled the memo of every subterm of m
    n_free = free_vars(n)
    avoid: set[str] | None = None
    done: list[Term] = []
    todo: list[tuple] = [(m, {x: n})]
    while todo:
        u, sub = todo.pop()
        if u is _BUILD:
            if sub is None:
                arg = done.pop()
                done.append(_app(done.pop(), arg))
            else:
                done.append(_abs(sub, done.pop()))
        elif type(u) is Var:
            done.append(sub.get(u.name, u))
        elif u._fv.isdisjoint(sub):
            done.append(u)
        elif type(u) is Abs:
            new = b = u.binder
            if b in n_free and x in sub and x in u._fv:
                if avoid is None:
                    avoid = _all_names(m) | _all_names(n)
                new = fresh_name(b, avoid)
                avoid.add(new)
                sub = {**sub, b: _var(new)}
            elif b in sub:
                sub = {k: v for k, v in sub.items() if k != b}
            todo.append((_BUILD, new))
            todo.append((u.body, sub))
        else:
            todo.append((_BUILD, None))
            todo.append((u.arg, sub))
            todo.append((u.fun, sub))
    return done[0]


class HeadNormal(Record):
    """lx1..xn. y M1 ... Mm with a variable y in head position."""

    binders: tuple[str, ...]
    head: str
    args: tuple[Term, ...]


class HeadRedex(Record):
    """lx1..xn. (lz.N) P M1 ... Mm; the redex (lz.N) P is the head redex."""

    binders: tuple[str, ...]
    redex_fun_binder: str
    redex_fun_body: Term
    redex_arg: Term
    args: tuple[Term, ...]


def _unwind(t: Term, binders: list[str], stack: list[Term]) -> Term:
    """Take t apart onto binders and a stack of arguments, the first on top,
    and return its head: a variable, or an abstraction whose argument is on
    top.  Head reduction keeps its term so, as Krivine's machine does."""
    if not stack:
        while type(t) is Abs:
            binders.append(t.binder)
            t = t.body
    while type(t) is App:
        stack.append(t.arg)
        t = t.fun
    return t


def _wind(binders: list[str], head: Term, stack: list[Term]) -> Term:
    for a in reversed(stack):
        head = App(head, a)
    for b in reversed(binders):
        head = Abs(b, head)
    return head


def classify_shape(m: Term) -> HeadNormal | HeadRedex:
    """Total decomposition: every term is a head normal form or has a head redex."""
    binders, stack = [], []
    head = _unwind(m, binders, stack)
    args = tuple(reversed(stack))
    if type(head) is Var:
        return HeadNormal(tuple(binders), head.name, args)
    return HeadRedex(tuple(binders), head.binder, head.body, args[0], args[1:])


def head_step(m: Term) -> Term | None:
    """Contract the head redex, or None when m is already in head normal form."""
    binders, stack = [], []
    head = _unwind(m, binders, stack)
    if type(head) is Var:
        return None
    return _wind(binders, substitute(head.body, head.binder, stack.pop()), stack)


class Reached(Record):
    hnf: Term
    steps: int


class FuelExhausted(Record):
    last: Term
    steps: int


def _same_named(a: Term, b: Term) -> bool:
    """Equality including binder names (== is alpha-equality): identity, then
    the hashes of shape and free variables, then a walk that skips shared
    subterms."""
    if a is b or hash(a) != hash(b):
        return a is b
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        if a is b:
            continue
        if type(a) is not type(b) or (type(a) is Var and a.name != b.name):
            return False
        if type(a) is Abs:
            if a.binder != b.binder:
                return False
            stack.append((a.body, b.body))
        elif type(a) is App:
            stack += ((a.arg, b.arg), (a.fun, b.fun))
    return True


def head_reduce(m: Term, fuel: int) -> Reached | FuelExhausted:
    """Run at most fuel head steps; Reached means a head normal form was hit.

    Reached proves m solvable.  FuelExhausted never asserts unsolvability:
    head reduction of a solvable term can simply be longer than the budget.

    The term stays taken apart (_unwind), so a step costs its substitution.
    A step is a function of the named term, so after a repeat by name the
    run ends early, at the step of the period that step fuel falls on.
    Brent's cycle check finds repeats, comparing its saved state cheapest
    first: binder count (binders only grow), stack length, then by name.
    """
    if fuel < 0:
        raise InvalidInput("fuel must be nonnegative")
    binders, stack = [], []
    head = _unwind(m, binders, stack)
    saved_n, spine, saved_at, power = len(binders), (head, *stack[::-1]), 0, 1
    steps, end = 0, fuel
    while type(head) is not Var and steps < end:
        head = _unwind(substitute(head.body, head.binder, stack.pop()), binders, stack)
        steps += 1
        if (saved_n, len(spine)) == (len(binders), len(stack) + 1) and all(
            map(_same_named, spine, (head, *stack[::-1]))
        ):
            end = steps + (fuel - steps) % (steps - saved_at)
        elif steps - saved_at == power:
            saved_n, spine, saved_at, power = len(binders), (head, *stack[::-1]), steps, 2 * power
    out = m if steps == 0 else _wind(binders, head, stack)
    return Reached(out, steps) if type(head) is Var else FuelExhausted(out, fuel)
