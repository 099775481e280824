"""Intersection type syntax and canonical forms.

Types are hash-consed (Filliatre & Conchon, "Type-safe modular hash-consing",
2006): every constructor looks its fields up in one weak-valued intern table,
so structurally equal types are one object and equality is identity.  Each
node stores its hash, computed once as the hash of its field tuple, its
ty_key, its size, and, once asked for, its canonical form.  Engines compare
types via canonicalize, which quotients by associativity, commutativity and
idempotence of & plus neutrality of U; anything theory-specific is the
subtype engine's business, never equality's.
"""

from __future__ import annotations

import threading
from dataclasses import FrozenInstanceError
from typing import Iterator, Union
from weakref import ref

from _weakref import _remove_dead_weakref

from .errors import ParseError
from .lexer import IDENT, Tokens, parse

Ty = Union["Const", "Top", "Arrow", "Inter"]

# (class, field identities) -> weak reference to the one live node with those
# fields.  A node holds its fields alive, so while its entry is live the ids
# in its key cannot be reused.  Const keys hold the name itself, since equal
# strings need not be one object.
_INTERNED: dict[tuple, "_Entry"] = {}
_INTERN_LOCK = threading.Lock()
# _canon of a node that is its own canonical form; storing the node itself
# would make it a reference cycle and keep it out of reach of the weak table
_IS_CANONICAL = object()


class _Entry(ref):
    """A weak reference to an interned node that knows its table key."""

    __slots__ = ("key",)


def _forget(dead: _Entry) -> None:
    # removes the entry only if it still holds a dead reference; a node
    # interned under the same key since then keeps its entry
    _remove_dead_weakref(_INTERNED, dead.key)


def _intern(
    cls: type, key: tuple, fields: tuple, ty_key: tuple, size: int
) -> "_Node":
    """The live node under key, made from fields if there is none.  The
    constructors look key up unlocked first; a miss is settled here, under
    the lock, so two threads never make two nodes with one key."""
    with _INTERN_LOCK:
        entry = _INTERNED.get(key)
        node = entry() if entry is not None else None
        if node is None:
            node = object.__new__(cls)
            for name, value in zip(cls.__match_args__, fields):
                object.__setattr__(node, name, value)
            _set_hash(node, hash(fields))
            _set_key(node, ty_key)
            _set_size(node, size)
            _set_canon(node, None)
            if cls is Inter:
                _set_parts(node, None)
            entry = _Entry(node, _forget)
            entry.key = key
            _INTERNED[key] = entry
    return node


def _check_ty(value: object) -> None:
    if not isinstance(value, _Node):
        raise TypeError(f"not a type: {value!r}")


class _Node:
    """Shared behaviour of the four interned, immutable type constructors."""

    __slots__ = ("_hash", "_key", "_size", "_canon", "__weakref__")
    __match_args__: tuple[str, ...] = ()

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through the constructor, which
        # hands back the interned node
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")


# the memo slots are written through their descriptors, past the __setattr__
# that keeps types immutable
_set_hash = _Node._hash.__set__
_set_key = _Node._key.__set__
_set_size = _Node._size.__set__
_set_canon = _Node._canon.__set__


class Const(_Node):
    __slots__ = ("name",)
    __match_args__ = ("name",)
    name: str

    def __new__(cls, name: str) -> "Const":
        entry = _INTERNED.get((cls, name))
        node = entry() if entry is not None else None
        if node is not None:
            return node
        if not isinstance(name, str):
            raise TypeError(f"constant name must be a string: {name!r}")
        return _intern(cls, (cls, name), (name,), (0, name), 1)


class Top(_Node):
    __slots__ = ()
    __match_args__ = ()

    def __new__(cls) -> "Top":
        return _intern(cls, (cls,), (), (1,), 1)


class Arrow(_Node):
    __slots__ = ("dom", "cod")
    __match_args__ = ("dom", "cod")
    dom: Ty
    cod: Ty

    def __new__(cls, dom: Ty, cod: Ty) -> "Arrow":
        key = (cls, id(dom), id(cod))
        entry = _INTERNED.get(key)
        node = entry() if entry is not None else None
        if node is not None:
            return node
        _check_ty(dom)
        _check_ty(cod)
        return _intern(
            cls, key, (dom, cod), (2, dom._key, cod._key), 1 + dom._size + cod._size
        )


class Inter(_Node):
    # _parts memoises inter_parts; only an intersection stores it, since a
    # node holding the tuple (itself,) would be a reference cycle
    __slots__ = ("left", "right", "_parts")
    __match_args__ = ("left", "right")
    left: Ty
    right: Ty

    def __new__(cls, left: Ty, right: Ty) -> "Inter":
        key = (cls, id(left), id(right))
        entry = _INTERNED.get(key)
        node = entry() if entry is not None else None
        if node is not None:
            return node
        _check_ty(left)
        _check_ty(right)
        return _intern(
            cls, key, (left, right), (3, left._key, right._key),
            1 + left._size + right._size,
        )


_set_parts = Inter._parts.__set__

TOP = Top()


def is_reserved(name: str) -> bool:
    """Names starting with $ are minted internally and rejected by the parser."""
    return name.startswith("$")


def ty_key(t: Ty) -> tuple:
    """Total order on types: constants, then U, then arrows, then intersections."""
    return t._key


def inter_parts(t: Ty) -> tuple[Ty, ...]:
    """Flatten nested & into a tuple; U flattens away; non-& types are singletons.

    Memoised on an intersection node."""
    if not isinstance(t, Inter):
        return () if t is TOP else (t,)
    done = t._parts
    if done is not None:
        return done
    acc: list[Ty] = []
    stack = [t]
    while stack:
        x = stack.pop()
        if isinstance(x, Inter):
            if x._parts is not None:
                acc.extend(x._parts)
            else:
                stack.append(x.right)
                stack.append(x.left)
        elif x is not TOP:
            acc.append(x)
    done = tuple(acc)
    _set_parts(t, done)
    return done


def make_inter(parts: list[Ty] | tuple[Ty, ...]) -> Ty:
    """Right-nested & of parts; empty becomes U.  Does not canonicalize."""
    if not parts:
        return TOP
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = Inter(p, out)
    return out


def canonicalize(a: Ty) -> Ty:
    """ACI-normal form: flatten &, drop U, dedupe, sort parts, recurse under ->.

    Memoised on the node, and canonicalize(canonicalize(a)) is canonicalize(a).
    """
    c = a._canon
    if c is _IS_CANONICAL:
        return a
    if c is not None:
        return c
    match a:
        case Const(_) | Top():
            c = a
        case Arrow(dom, cod):
            c = Arrow(canonicalize(dom), canonicalize(cod))
        case Inter(_, _):
            parts = sorted({canonicalize(p) for p in inter_parts(a)}, key=ty_key)
            c = make_inter(parts)
    _set_canon(c, _IS_CANONICAL)
    if c is not a:
        _set_canon(a, c)
    return c


def ty_size(t: Ty) -> int:
    """Number of nodes; stored on the node when it is interned."""
    return t._size


def subterms(t: Ty) -> Iterator[Ty]:
    """All subterms including t itself, parents before children and left
    before right.  Walks an explicit stack, so no width of & can exhaust the
    interpreter's."""
    stack = [t]
    while stack:
        t = stack.pop()
        yield t
        if isinstance(t, Arrow):
            stack.append(t.cod)
            stack.append(t.dom)
        elif isinstance(t, Inter):
            stack.append(t.right)
            stack.append(t.left)


def constants_of(t: Ty) -> frozenset[str]:
    return frozenset(s.name for s in subterms(t) if isinstance(s, Const))


def map_consts(t: Ty, fn) -> Ty:
    """Replace each constant leaf by fn(name); fn returns a whole Ty.

    Walks an explicit stack, left before right, and maps each distinct
    subterm once."""
    done: dict[Ty, Ty] = {}
    stack = [t]
    while stack:
        u = stack[-1]
        if u in done:
            pass
        elif isinstance(u, Const):
            done[u] = fn(u.name)
        elif isinstance(u, Top):
            done[u] = u
        elif isinstance(u, (Arrow, Inter)):
            kids = [getattr(u, f) for f in u.__match_args__]
            todo = [k for k in kids if k not in done]
            if todo:
                stack.extend(reversed(todo))
                continue
            done[u] = type(u)(*(done[k] for k in kids))
        else:
            raise TypeError(f"not a type: {u!r}")
        stack.pop()
    return done[t]


def read_ty(tk: Tokens) -> Ty:
    """Read `T ::= U | ident | T -> T | T & T | (T)` off tk, up to the first
    token that cannot extend it.

    & binds tighter than ->; -> associates right.  $-prefixed names are
    internal and rejected.
    """
    dom = _read_inter(tk)
    if tk.peek() != "->":
        return dom
    tk.take("->")
    return Arrow(dom, read_ty(tk))


def _read_inter(tk: Tokens) -> Ty:
    parts = [_read_atom(tk)]
    while tk.peek() == "&":
        tk.take("&")
        parts.append(_read_atom(tk))
    return make_inter(parts)


def _read_atom(tk: Tokens) -> Ty:
    if tk.peek() == "(":
        tk.take("(")
        inner = read_ty(tk)
        tk.take(")")
        return inner
    name = tk.take(IDENT)
    if name == "U":
        return TOP
    if is_reserved(name):
        raise ParseError(f"reserved name {name!r}", tk.last())
    return Const(name)


def read_le(tk: Tokens) -> tuple[Ty, Ty]:
    """Read `T <= T` off tk."""
    lo = read_ty(tk)
    tk.take("<=")
    return lo, read_ty(tk)


def parse_ty(src: str) -> Ty:
    """The type that is all of src; see read_ty."""
    return parse(Tokens(src), read_ty, "type")


def print_ty(t: Ty) -> str:
    """Minimal parentheses under the parse_ty grammar; inverse on canonical forms."""
    match t:
        case Const(name):
            return name
        case Top():
            return "U"
        case Arrow(dom, cod):
            ds = print_ty(dom)
            if isinstance(dom, Arrow):
                ds = f"({ds})"
            return f"{ds} -> {print_ty(cod)}"
        case Inter(left, right):
            out = []
            for p in inter_parts(t):
                ps = print_ty(p)
                out.append(f"({ps})" if isinstance(p, Arrow) else ps)
            if not out:
                return "U"
            return " & ".join(out)
    raise TypeError(f"not a type: {t!r}")
