"""Frozen records that behave as frozen dataclasses, without generated code.

@dataclass writes out and compiles the source of five or six methods for
every class it decorates, about half a millisecond per class at import.  A
Record subclass compiles nothing: its __init__, __eq__ and __hash__ are
copies of the templates below with their argument and attribute names
renamed to its fields, and its repr and frozen set and delete are shared.

The fields are the class's annotations, in order, after those of a record
it extends; a class attribute of a field's name is that field's default.  A
record behaves as @dataclass(frozen=True) with the same fields: the same
constructor, positional or keyword, with defaults and a __post_init__ hook;
== field by field, NotImplemented against another class; the hash of the
field tuple; the dataclass repr; __match_args__; and FrozenInstanceError on
setting or deleting an attribute.  A record keeps its fields in its
__dict__, so copy, deepcopy and pickle need nothing more.  A class that sets
__hash__ = None is unhashable, as a dataclass that is not frozen.
"""

from dataclasses import FrozenInstanceError
from types import CellType, FunctionType

_NO_DEFAULT = object()
# the names of the templates' own arguments and cells, which no field can take
_RESERVED = frozenset(("self", "post_init", "n0", "n1", "n2", "n3", "n4"))
# the constructors write each field past the __setattr__ that keeps records
# frozen, as a frozen dataclass's constructor does
_setattr = object.__setattr__


def _templates():
    """(__init__, __eq__, __hash__) for k fields, at index k.  An argument or
    attribute f<i> stands for field i, cell n<i> holds that field's name, and
    cell post_init the class's __post_init__ or None."""
    n0 = n1 = n2 = n3 = n4 = post_init = None

    def init0(self):
        if post_init is not None:
            post_init(self)

    def eq0(self, other):
        if other.__class__ is self.__class__:
            return True
        return NotImplemented

    def hash0(self):
        return hash(())

    def init1(self, f0):
        _setattr(self, n0, f0)
        if post_init is not None:
            post_init(self)

    def eq1(self, other):
        if other.__class__ is self.__class__:
            return (self.f0,) == (other.f0,)
        return NotImplemented

    def hash1(self):
        return hash((self.f0,))

    def init2(self, f0, f1):
        _setattr(self, n0, f0)
        _setattr(self, n1, f1)
        if post_init is not None:
            post_init(self)

    def eq2(self, other):
        if other.__class__ is self.__class__:
            return (self.f0, self.f1) == (other.f0, other.f1)
        return NotImplemented

    def hash2(self):
        return hash((self.f0, self.f1))

    def init3(self, f0, f1, f2):
        _setattr(self, n0, f0)
        _setattr(self, n1, f1)
        _setattr(self, n2, f2)
        if post_init is not None:
            post_init(self)

    def eq3(self, other):
        if other.__class__ is self.__class__:
            return (self.f0, self.f1, self.f2) == (other.f0, other.f1, other.f2)
        return NotImplemented

    def hash3(self):
        return hash((self.f0, self.f1, self.f2))

    def init4(self, f0, f1, f2, f3):
        _setattr(self, n0, f0)
        _setattr(self, n1, f1)
        _setattr(self, n2, f2)
        _setattr(self, n3, f3)
        if post_init is not None:
            post_init(self)

    def eq4(self, other):
        if other.__class__ is self.__class__:
            return (self.f0, self.f1, self.f2, self.f3) == (
                other.f0, other.f1, other.f2, other.f3
            )
        return NotImplemented

    def hash4(self):
        return hash((self.f0, self.f1, self.f2, self.f3))

    def init5(self, f0, f1, f2, f3, f4):
        _setattr(self, n0, f0)
        _setattr(self, n1, f1)
        _setattr(self, n2, f2)
        _setattr(self, n3, f3)
        _setattr(self, n4, f4)
        if post_init is not None:
            post_init(self)

    def eq5(self, other):
        if other.__class__ is self.__class__:
            return (self.f0, self.f1, self.f2, self.f3, self.f4) == (
                other.f0, other.f1, other.f2, other.f3, other.f4
            )
        return NotImplemented

    def hash5(self):
        return hash((self.f0, self.f1, self.f2, self.f3, self.f4))

    return (
        (init0, eq0, hash0),
        (init1, eq1, hash1),
        (init2, eq2, hash2),
        (init3, eq3, hash3),
        (init4, eq4, hash4),
        (init5, eq5, hash5),
    )


_TEMPLATES = _templates()


def _specialise(cls: type, name: str, template, fields: tuple[str, ...], defaults=None):
    """template as the method name of cls: f<i> renamed to field i in its
    arguments and attribute reads, and its cells bound as _templates says."""
    rename = {f"f{i}": f for i, f in enumerate(fields)}
    code = template.__code__
    code = code.replace(
        co_name=name,
        co_varnames=tuple(rename.get(v, v) for v in code.co_varnames),
        co_names=tuple(rename.get(v, v) for v in code.co_names),
    )
    cells = {f"n{i}": f for i, f in enumerate(fields)}
    cells["post_init"] = getattr(cls, "__post_init__", None)
    closure = tuple(CellType(cells[v]) for v in code.co_freevars)
    method = FunctionType(code, globals(), name, defaults, closure or None)
    method.__qualname__ = f"{cls.__qualname__}.{name}"
    return method


class Record:
    """Base of a frozen record; see the module docstring."""

    __match_args__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        inherited = super(cls, cls).__match_args__
        fields = inherited + tuple(f for f in cls.__annotations__ if f not in inherited)
        if len(fields) >= len(_TEMPLATES):
            raise TypeError(f"{cls.__name__}: a record has at most {len(_TEMPLATES) - 1} fields")
        if _RESERVED.intersection(fields):
            raise TypeError(f"{cls.__name__}: no field can be named {sorted(_RESERVED)}")
        defaults = tuple(getattr(cls, f, _NO_DEFAULT) for f in fields)
        first = next((i for i, d in enumerate(defaults) if d is not _NO_DEFAULT), len(fields))
        if any(d is _NO_DEFAULT for d in defaults[first:]):
            raise TypeError(f"{cls.__name__}: a field without a default follows a default")
        cls.__match_args__ = fields
        init, eq, hash_ = _TEMPLATES[len(fields)]
        cls.__init__ = _specialise(cls, "__init__", init, fields, defaults[first:] or None)
        cls.__eq__ = _specialise(cls, "__eq__", eq, fields)
        if "__hash__" not in vars(cls):
            cls.__hash__ = _specialise(cls, "__hash__", hash_, fields)

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")
