import copy
import gc
import pickle
import sys
import threading
import weakref

import pytest
from hypothesis import given, strategies as st

from ittlab import types
from ittlab.errors import ParseError
from ittlab.types import (
    TOP,
    Arrow,
    Const,
    Inter,
    canonicalize,
    constants_of,
    inter_parts,
    make_inter,
    map_consts,
    parse_ty,
    print_ty,
    subterms,
    ty_key,
    ty_size,
)

a, b, c = Const("a"), Const("b"), Const("c")

# besides plain letters, names that use every identifier character the
# lexer allows in a constant
const_names = st.sampled_from(["a", "b", "c", "d", "c0'", "_e", "f$g"])
tys = st.recursive(
    st.one_of(st.builds(Const, const_names), st.just(TOP)),
    lambda sub: st.one_of(st.builds(Arrow, sub, sub), st.builds(Inter, sub, sub)),
    max_leaves=20,
)


def test_parse_atoms():
    assert parse_ty("a") == a
    assert parse_ty("U") == TOP
    assert parse_ty("(a)") == a


def test_parse_inter_binds_tighter_than_arrow():
    assert parse_ty("a & b -> c") == Arrow(Inter(a, b), c)
    assert parse_ty("a -> b & c") == Arrow(a, Inter(b, c))


def test_parse_arrow_right_associative():
    assert parse_ty("a -> b -> c") == Arrow(a, Arrow(b, c))
    assert parse_ty("(a -> b) -> c") == Arrow(Arrow(a, b), c)


def test_parse_rejects_reserved_names():
    with pytest.raises(ParseError):
        parse_ty("$1")


def test_parse_rejects_garbage():
    for bad in ["", "a &", "-> a", "a -> ", "(a", "a)", "a b", "a | b"]:
        with pytest.raises(ParseError):
            parse_ty(bad)


def test_canonicalize_idempotent_intersection():
    assert canonicalize(parse_ty("a & a")) == a


def test_canonicalize_flattens_and_sorts():
    assert canonicalize(parse_ty("(a & b) & a")) == Inter(a, b)
    assert canonicalize(parse_ty("b & a")) == Inter(a, b)


def test_canonicalize_drops_top():
    assert canonicalize(parse_ty("a & U")) == a
    assert canonicalize(Inter(TOP, TOP)) == TOP


def test_canonicalize_recurses_under_arrow():
    assert canonicalize(parse_ty("(b & a & b) -> (U & c)")) == Arrow(Inter(a, b), c)


def test_canonicalize_orders_constants_before_arrows():
    got = canonicalize(parse_ty("(a -> b) & a"))
    assert got == Inter(a, Arrow(a, b))


@given(tys)
def test_canonicalize_is_idempotent(t):
    ct = canonicalize(t)
    assert canonicalize(ct) == ct
    assert canonicalize(ct) is ct
    assert canonicalize(t) is ct


@given(tys)
def test_canonicalize_size_nonincreasing(t):
    assert ty_size(canonicalize(t)) <= ty_size(t)


@given(tys)
def test_canonical_print_parse_exact(t):
    ct = canonicalize(t)
    assert parse_ty(print_ty(ct)) == ct


@given(tys)
def test_raw_print_parse_round_trip_mod_canonical(t):
    assert canonicalize(parse_ty(print_ty(t))) == canonicalize(t)


@given(tys, tys)
def test_ty_key_is_a_total_order(s, t):
    ks, kt = ty_key(s), ty_key(t)
    assert (ks == kt) == (s == t)
    assert ks < kt or kt < ks or ks == kt


@given(tys)
def test_inter_parts_never_contain_inter_or_top(t):
    for p in inter_parts(canonicalize(t)):
        assert not isinstance(p, (Inter,)) and p != TOP


def test_make_inter_right_nested():
    assert make_inter([a, b, c]) == Inter(a, Inter(b, c))
    assert make_inter([]) == TOP
    assert make_inter([a]) == a


def test_subterms_and_constants():
    t = parse_ty("(a -> b) & c")
    assert set(constants_of(t)) == {"a", "b", "c"}
    assert Arrow(a, b) in set(subterms(t))


def test_map_consts():
    t = parse_ty("a -> a & b")
    out = map_consts(t, lambda n: TOP if n == "b" else Const(n.upper()))
    assert out == Arrow(Const("A"), Inter(Const("A"), TOP))


def test_wide_intersection_walks_without_recursion():
    # parse_ty nests A1 & ... & An to the right, as make_inter does
    parts = [Const(f"c{i % 3}") for i in range(20_000)]
    t = make_inter(parts)
    assert constants_of(t) == {"c0", "c1", "c2"}
    out = map_consts(t, lambda n: Const(n.upper()))
    assert inter_parts(out) == tuple(Const(p.name.upper()) for p in parts)


# -- hash-consing ---------------------------------------------------------------


def _rebuild(t):
    """A structural copy made through the constructors, field by field."""
    match t:
        case Const(name):
            return Const(name)
        case Arrow(dom, cod):
            return Arrow(_rebuild(dom), _rebuild(cod))
        case Inter(left, right):
            return Inter(_rebuild(left), _rebuild(right))
    return t


@pytest.mark.parametrize(
    "src", ["a", "U", "a -> b", "a & b -> c & U", "(a -> b) -> a & a", "foo -> bar & foo"]
)
def test_parse_is_interned(src):
    assert parse_ty(src) is parse_ty(src)


def test_constants_intern_by_name_not_by_string_object():
    literal = "foo"
    built = "".join(["fo", "o"])
    assert built is not literal
    assert Const(built) is Const(literal)


@given(tys)
def test_structurally_equal_types_are_one_node(t):
    assert _rebuild(t) is t


@given(tys)
def test_hash_is_the_hash_of_the_fields(t):
    fields = tuple(getattr(t, f) for f in t.__match_args__)
    assert hash(t) == hash(fields)


def test_repr_is_dataclass_style():
    assert repr(parse_ty("a -> U & b")) == (
        "Arrow(dom=Const(name='a'), cod=Inter(left=Top(), right=Const(name='b')))"
    )


def test_types_are_immutable():
    t = Arrow(a, b)
    with pytest.raises(AttributeError):
        t.dom = c
    with pytest.raises(AttributeError):
        del t.cod
    assert t.dom is a


def test_fields_must_be_types():
    with pytest.raises(TypeError):
        Arrow("a", b)
    with pytest.raises(TypeError):
        Const(1)


@pytest.mark.parametrize(
    "clone", [copy.copy, copy.deepcopy, lambda t: pickle.loads(pickle.dumps(t))],
    ids=["copy", "deepcopy", "pickle"],
)
@pytest.mark.parametrize("src", ["a", "U", "a -> b", "(a -> b) & c -> a & U"])
def test_copy_and_pickle_return_the_interned_node(clone, src):
    t = parse_ty(src)
    assert clone(t) is t


def test_intern_table_forgets_dropped_types():
    gc.collect()
    before = len(types._INTERNED)
    made = [canonicalize(Arrow(Const(f"k{i}"), Inter(Const("k"), Const(f"k{i}"))))
            for i in range(10_000)]
    assert len(types._INTERNED) > before
    del made
    gc.collect()
    assert len(types._INTERNED) == before


def test_canonical_memo_makes_no_reference_cycle():
    # with the cycle collector off, only reference counting can free a node
    gc.disable()
    try:
        raw = parse_ty("(z1 & z0) -> z0 & z0")
        canon = canonicalize(raw)
        assert canon is not raw and canonicalize(canon) is canon
        # the parts memo too: only an intersection stores its parts
        sides = (raw.dom, raw.cod, canon.dom, canon.cod, raw)
        assert [len(inter_parts(t)) for t in sides] == [2, 2, 2, 1, 1]
        del sides
        assert inter_parts(canon.dom) is inter_parts(canon.dom)
        refs = [weakref.ref(t) for t in (raw, canon, canon.dom, canon.cod, raw.cod)]
        del raw, canon
        assert [r() for r in refs] == [None] * 5
    finally:
        gc.enable()


def test_concurrent_construction_yields_one_node():
    # more threads than cores, switching as often as the interpreter allows
    names = [f"race{i}" for i in range(3_000)]
    results: list[list] = [[] for _ in range(4)]

    def build(out):
        out.extend(Arrow(Const(n), Inter(Const(n), TOP)) for n in names)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(out,)) for out in results]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    for nodes in zip(*results, strict=True):
        assert all(n is nodes[0] for n in nodes)
