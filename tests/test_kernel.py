"""The certificate kernel stays independent of the engines it checks, its
records behave as the frozen dataclasses they replaced, and the package
exports its names lazily."""

import ast
import copy
import dataclasses
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import ittlab
from ittlab import kernel
from ittlab.errors import InvalidInput
from ittlab.kernel import Basis, Derivation, Judgment, SubProof
from ittlab.terms import parse_term
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

# each record class -> the frozen dataclass it must behave as, field for field
REFERENCE_RECORDS = {
    cls: dataclasses.make_dataclass(cls.__name__, fields, frozen=True)
    for cls, fields in (
        (Basis, ["bindings"]),
        (Judgment, ["basis", "term", "ty"]),
        (Derivation, ["rule", "conclusion", "children", "sub"]),
        (SubProof, ["rule", "conclusion", "premises"]),
    )
}

A, B = parse_ty("a"), parse_ty("b -> a")
G = Basis.of(x=A, f=B)
M = parse_term(r"\y. f (x y)")
PROOF = SubProof("Trans", (A, A), (SubProof("Refl", (A, A)), SubProof("Refl", (A, A))))
JUDGMENT = Judgment(G, M, Arrow(A, A))
RECORDS = [
    Basis(),
    G,
    JUDGMENT,
    Derivation("ArrI", JUDGMENT),
    Derivation("Le", JUDGMENT, (Derivation("TopU", Judgment(G, M, TOP)),), PROOF),
    PROOF,
    SubProof("Refl", (A, A)),
]


def reference_of(r):
    """r as the frozen dataclass its class replaced."""
    return REFERENCE_RECORDS[type(r)](*(getattr(r, f) for f in type(r).__match_args__))


@pytest.mark.parametrize("r", RECORDS, ids=repr)
def test_record_matches_a_frozen_dataclass(r):
    ref = reference_of(r)
    assert repr(r) == repr(ref)
    assert hash(r) == hash(ref)
    assert (r == ref) is False and (r != ref) is True  # another class
    fields = type(r).__match_args__
    assert fields == tuple(f.name for f in dataclasses.fields(ref))
    for f in fields:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(r, f, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(r, f)
    for clone in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
        assert type(clone) is type(r) and clone == r and hash(clone) == hash(r)
        assert repr(clone) == repr(r)


def test_records_compare_field_by_field():
    for i, r in enumerate(RECORDS):
        for j, s in enumerate(RECORDS):
            assert (r == s) == (i == j) == (reference_of(r) == reference_of(s))
    # a rebuilt record is equal, and a record never equals its field tuple
    assert Judgment(Basis.of(f=B, x=A), parse_term(r"\z. f (x z)"), Arrow(A, A)) == JUDGMENT
    assert JUDGMENT != (G, M, Arrow(A, A))
    match Derivation("Ax", JUDGMENT):
        case Derivation(rule, Judgment(g, _, ty), children, sub):
            assert (rule, g, ty, children, sub) == ("Ax", G, Arrow(A, A), (), None)


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
