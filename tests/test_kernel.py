"""The certificate kernel stays independent of the engines it checks, its
records behave as the frozen dataclasses they replaced, and the package
exports its names lazily."""

import ast
import copy
import dataclasses
import inspect
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import ittlab
from ittlab import kernel
from ittlab.assignment import Found, NotFoundWithinFuel
from ittlab.embedding import ConstantMap, Failed, TransferCertificate, Undischarged, Verified
from ittlab.errors import InvalidInput
from ittlab.filters import FilterRep
from ittlab.kernel import Basis, Derivation, Judgment, SubProof
from ittlab.polarity import (
    ClassPoset,
    Decoration,
    NoDecoration,
    PolarityFail,
    PolarityPass,
    SignedGraph,
    StagingFailure,
)
from ittlab.probes import CounterexampleFound, NoCounterexampleUpTo
from ittlab.records import Record
from ittlab.sensibility import (
    NoneFound,
    NonSensible,
    RegistryEntry,
    Sensible,
    TheoryRegistry,
    Unknown,
    Witness,
)
from ittlab.subtyping import Proven, Universe, UnknownWithin
from ittlab.terms import FuelExhausted, HeadNormal, HeadRedex, Reached, parse_term
from ittlab.theory import (
    ArrowC,
    AxiomDecl,
    CharacteristicSet,
    InterC,
    RuleFlag,
    SelfC,
    TheorySpec,
)
from ittlab.types import TOP, Arrow, Const, Inter, parse_ty

SRC = Path(ittlab.__file__).resolve().parents[1]

ENGINES = (
    "ittlab.assignment",
    "ittlab.subtyping",
    "ittlab.sensibility",
    "ittlab.embedding",
    "ittlab.polarity",
    "ittlab.probes",
    "ittlab.filters",
    "ittlab.cli",
)

# the names `from ittlab import *` has always given
PUBLIC = {
    "Basis", "ConstantMap", "Derivation", "Found", "IttError", "Judgment",
    "NonSensible", "NotFoundWithinFuel", "Proven", "Sensible", "SubProof",
    "TOP", "TheorySpec", "TransferCertificate", "Ty", "Unknown",
    "UnknownWithin", "Verified", "builtin_theories", "canonicalize",
    "check_derivation", "check_positive_polarity", "check_subproof",
    "completion", "compose_maps", "decorate_class", "derive_le",
    "equivalence_classes", "extend_structurally", "head_reduce",
    "infer_bounded", "parse_term", "parse_theory", "parse_ty", "print_term",
    "print_ty", "probe_unsolvable_typing", "stage_plan",
    "subject_reduction_probe", "transfer_nonsensible", "transfer_sensible",
    "validate_natural", "verdict", "verify_embedding", "__version__",
}


def test_kernel_and_reader_load_no_engine():
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import ittlab\n"
        "print(' '.join(m for m in sys.modules if m.startswith('ittlab')))\n"
        "import ittlab.kernel, ittlab.sexpr\n"
        "print(' '.join(sys.modules))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    package, loaded = (set(line.split()) for line in out.stdout.splitlines())
    assert package == {"ittlab"}
    assert "ittlab.kernel" in loaded and "ittlab.sexpr" in loaded
    assert loaded.isdisjoint(ENGINES)


def test_kernel_imports_only_syntax_and_the_standard_library():
    tree = ast.parse(Path(kernel.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            tops = [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            tops = [node.module.split(".")[0]]
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 1
            assert node.module in ("errors", "types", "terms", "theory")
            continue
        else:
            continue
        for top in tops:
            assert top == "__future__" or top in sys.stdlib_module_names, top


def test_exports_resolve_and_bind_once():
    assert set(ittlab.__all__) == PUBLIC
    for name in ittlab.__all__:
        assert getattr(ittlab, name) is not None
    star: dict = {}
    exec("from ittlab import *", star)
    assert set(star) - {"__builtins__"} == PUBLIC
    assert ittlab.verdict is ittlab.sensibility.verdict
    # bound in the package, so a later read is a plain attribute lookup
    assert vars(ittlab)["verdict"] is ittlab.sensibility.verdict
    assert ittlab.check_subproof is kernel.check_subproof


# -- records: what a frozen dataclass with the same fields would do ------------

# each record class -> the dataclass it must behave as, field for field, with
# the defaults of its constructor.  All are frozen but CharacteristicSet's,
# whose record holds dicts and is unhashable like a plain dataclass; the
# record itself is frozen, as nothing assigns to its fields.
REFERENCE_RECORDS = {
    cls: dataclasses.make_dataclass(
        cls.__name__,
        [f if isinstance(f, str) else (f[0], object, dataclasses.field(default=f[1]))
         for f in fields],
        frozen=cls is not CharacteristicSet,
    )
    for cls, fields in (
        (Basis, [("bindings", ())]),
        (Judgment, ["basis", "term", "ty"]),
        (Derivation, ["rule", "conclusion", ("children", ()), ("sub", None)]),
        (SubProof, ["rule", "conclusion", ("premises", ())]),
        (Found, ["derivation"]),
        (NotFoundWithinFuel, ["fuel"]),
        (Proven, ["proof"]),
        (UnknownWithin, ["universe_size", "inter_width"]),
        (FilterRep, ["universe", "generators"]),
        (CounterexampleFound, ["lhs", "rhs", "detail", ("bounded_only", True)]),
        (NoCounterexampleUpTo, ["depth"]),
        (RegistryEntry, ["spec"]),
        (TheoryRegistry, ["entries"]),
        (Witness, ["term", "ty", "derivation", "head_trace"]),
        (NoneFound, ["fuel", "inter_width"]),
        (Sensible, ["evidence"]),
        (NonSensible, ["evidence"]),
        (Unknown, ["tried"]),
        (HeadNormal, ["binders", "head", "args"]),
        (HeadRedex, ["binders", "redex_fun_binder", "redex_fun_body", "redex_arg", "args"]),
        (Reached, ["hnf", "steps"]),
        (FuelExhausted, ["last", "steps"]),
        (ClassPoset, ["classes", "order"]),
        (SignedGraph, ["nodes", "edges"]),
        (PolarityPass, [("caveats", ())]),
        (PolarityFail, ["witness"]),
        (Decoration, ["assignment"]),
        (NoDecoration, ["conflict"]),
        (StagingFailure, ["reason"]),
        (AxiomDecl, ["kind", "lhs", "rhs"]),
        (SelfC, []),
        (ArrowC, ["dom", "cod"]),
        (InterC, ["left", "right"]),
        (CharacteristicSet, ["theory", "axioms", "fresh_defs", "aliases"]),
        (ConstantMap, ["source", "target", "mapping"]),
        (Verified, ["checks"]),
        (Failed, ["obligation", "detail"]),
        (Undischarged, ["obligation"]),
        (TransferCertificate, ["kind", "map", "embedding", "evidence"]),
    )
}

A, B = parse_ty("a"), parse_ty("b -> a")
G = Basis.of(x=A, f=B)
M = parse_term(r"\y. f (x y)")
PROOF = SubProof("Trans", (A, A), (SubProof("Refl", (A, A)), SubProof("Refl", (A, A))))
JUDGMENT = Judgment(G, M, Arrow(A, A))
# one-element sets, so that every repr, and so every test id, is the same in
# each process
T = TheorySpec("T", {"a"}, {RuleFlag.ARROW}, (AxiomDecl("le", A, Arrow(A, A)),))
KMAP = ConstantMap(T, T, (("a", A),))
WITNESS = Witness(M, A, Derivation("Ax", JUDGMENT), FuelExhausted(M, 3))
RECORDS = [
    Basis(),
    G,
    JUDGMENT,
    Derivation("ArrI", JUDGMENT),
    Derivation("Le", JUDGMENT, (Derivation("TopU", Judgment(G, M, TOP)),), PROOF),
    PROOF,
    SubProof("Refl", (A, A)),
    Found(Derivation("Ax", JUDGMENT)),
    NotFoundWithinFuel(5000),
    Proven(PROOF),
    UnknownWithin(120, 2),
    UnknownWithin(120, 3),
    FilterRep(Universe(frozenset({A})), frozenset({A})),
    CounterexampleFound(A, B, "no arrow subset"),
    CounterexampleFound(A, B, "no arrow subset", False),
    NoCounterexampleUpTo(3),
    RegistryEntry(T),
    TheoryRegistry((("T", RegistryEntry(T)),)),
    WITNESS,
    NoneFound(10000, 2),
    Sensible(PolarityPass()),
    NonSensible(WITNESS),
    Unknown(("polarity", "probe")),
    HeadNormal(("x",), "x", (M,)),
    HeadRedex(("x",), "z", M, M, (M, M)),
    HeadRedex(("x",), "z", M, M, ()),
    Reached(M, 2),
    FuelExhausted(M, 3),
    ClassPoset((frozenset({"a"}), frozenset({"b"})), frozenset({(0, 1)})),
    SignedGraph(frozenset({"a"}), frozenset({("a", "a", "+")})),
    PolarityPass(),
    PolarityPass(("a is self-defined",)),
    PolarityFail((("a", "a", "-"),)),
    Decoration((("a", "+"), ("b", "-"))),
    NoDecoration(("a", "b")),
    StagingFailure("cycle"),
    AxiomDecl("le", A, B),
    AxiomDecl("eq", A, B),
    SelfC(),
    ArrowC("a", "b"),
    InterC("a", "b"),
    CharacteristicSet(T, {"a": SelfC(), "b": ArrowC("a", "b")}, {}, {"c": "a"}),
    KMAP,
    Verified((("a <= b", PROOF), ("b <= a", None))),
    Failed("a <= b", "not derivable"),
    Undischarged("a <= b"),
    TransferCertificate("sensible", KMAP, Verified(()), PolarityPass()),
]


def reference_of(r):
    """r as the dataclass its class replaced."""
    return REFERENCE_RECORDS[type(r)](*(getattr(r, f) for f in type(r).__match_args__))


def signature(cls) -> list[tuple[str, object]]:
    """The names and defaults of cls's constructor arguments."""
    return [(p.name, p.default) for p in inspect.signature(cls).parameters.values()]


def test_every_record_class_has_a_sample():
    assert set(REFERENCE_RECORDS) == {type(r) for r in RECORDS}


@pytest.mark.parametrize("r", RECORDS, ids=repr)
def test_record_matches_a_frozen_dataclass(r):
    ref = reference_of(r)
    assert repr(r) == repr(ref)
    assert (type(r).__hash__ is None) == (type(ref).__hash__ is None)
    if type(r).__hash__ is None:
        with pytest.raises(TypeError):
            hash(r)
    else:
        assert hash(r) == hash(ref)
    assert (r == ref) is False and (r != ref) is True  # another class
    fields = type(r).__match_args__
    assert fields == tuple(f.name for f in dataclasses.fields(ref))
    assert signature(type(r)) == signature(type(ref))
    assert type(r)(**{f: getattr(r, f) for f in fields}) == r
    for f in fields:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(r, f, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(r, f)
    for clone in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
        assert type(clone) is type(r) and clone == r and repr(clone) == repr(r)
        if type(r).__hash__ is not None:
            assert hash(clone) == hash(r)


def test_records_compare_field_by_field():
    for i, r in enumerate(RECORDS):
        for j, s in enumerate(RECORDS):
            assert (r == s) == (i == j) == (reference_of(r) == reference_of(s))
            assert (r != s) == (i != j)
    # a rebuilt record is equal, and a record never equals its field tuple
    assert Judgment(Basis.of(f=B, x=A), parse_term(r"\z. f (x z)"), Arrow(A, A)) == JUDGMENT
    assert JUDGMENT != (G, M, Arrow(A, A))
    assert UnknownWithin(120, 2) != (120, 2) and SelfC() != ()
    match Derivation("Ax", JUDGMENT):
        case Derivation(rule, Judgment(g, _, ty), children, sub):
            assert (rule, g, ty, children, sub) == ("Ax", G, Arrow(A, A), (), None)
    match HeadRedex(("x",), "z", M, A, ()):
        case HeadRedex(binders, z, body, arg, args):
            assert (binders, z, body, arg, args) == (("x",), "z", M, A, ())


def test_records_keep_their_constructors_checks():
    assert CounterexampleFound(A, B, "d") == CounterexampleFound(A, B, "d", bounded_only=True)
    assert CounterexampleFound(lhs=A, rhs=B, detail="d").bounded_only is True
    assert UnknownWithin(inter_width=2, universe_size=120) == UnknownWithin(120, 2)
    with pytest.raises(InvalidInput, match="axiom kind must be 'le' or 'eq', got 'ge'"):
        AxiomDecl("ge", A, B)
    with pytest.raises(InvalidInput):
        AxiomDecl(kind="ge", lhs=A, rhs=B)
    u = Universe(frozenset({TOP, A}))
    for gens in ([Inter(TOP, A)], (Inter(A, A),), {A}):
        f = FilterRep(u, gens)
        assert f.generators == frozenset({A}) and type(f.generators) is frozenset
        assert f == FilterRep(universe=u, generators=frozenset({A}))
    with pytest.raises(TypeError, match="missing 1 required positional argument: 'fuel'"):
        NotFoundWithinFuel()
    with pytest.raises(TypeError, match="unexpected keyword argument 'depth'"):
        NotFoundWithinFuel(depth=3)


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"a": (1,), "b": ()}, "a field without a default follows a default"),
        ({f: () for f in "abcdef"}, "at most 5 fields"),
        ({"post_init": ()}, "no field can be named"),
        ({"n0": ()}, "no field can be named"),
    ],
)
def test_record_rejects_what_its_templates_cannot_build(fields, message):
    body = {"__annotations__": {f: int for f in fields}}
    body.update({f: d[0] for f, d in fields.items() if d})
    with pytest.raises(TypeError, match=message):
        type("Bad", (Record,), body)


# The set-up path of every command, then the CLI.  Only these classes stay
# dataclasses: TheorySpec, since tests call dataclasses.replace and fields on
# it; the kernel's records, which the kernel alone defines; and Universe and
# _Base, whose fields need per-field options (compare, repr, default_factory,
# eq=False) that Record does not offer.
DATACLASSES = {
    "TheorySpec", "Valid", "Invalid", "SubProof", "Basis", "Judgment", "Derivation",
    "Universe", "_Base",
}


def test_only_the_listed_classes_are_dataclasses():
    code = (
        "import gc, sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import ittlab\n"
        "from ittlab.sensibility import builtin_theories, registered_maps\n"
        "builtin_theories()\n"
        "registered_maps()\n"
        "import ittlab.cli\n"
        "print(' '.join(sorted(c.__qualname__ for c in gc.get_objects()\n"
        "    if isinstance(c, type) and c.__module__.startswith('ittlab')\n"
        "    and '__dataclass_fields__' in vars(c))))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert set(out.stdout.split()) == DATACLASSES


names = st.sampled_from(["x", "y", "z", "f", "g", "x_1", "y'"])
types = st.recursive(
    st.one_of(st.just(TOP), st.builds(Const, st.sampled_from(["a", "b", "c"]))),
    lambda sub: st.one_of(st.builds(Arrow, sub, sub), st.builds(Inter, sub, sub)),
    max_leaves=5,
)
bases = st.dictionaries(names, types, max_size=4).map(lambda d: Basis(tuple(d.items())))


@given(bases, names, types)
def test_extend_is_the_validating_constructor(g, x, a):
    if g.get(x) is not None:
        with pytest.raises(InvalidInput, match=f"variable {x!r} already bound"):
            g.extend(x, a)
        return
    out = g.extend(x, a)
    want = Basis(g.bindings + ((x, a),))
    assert out == want and out.bindings == want.bindings and hash(out) == hash(want)
    assert out.get(x) == want.get(x)
