"""The certificate kernel stays independent of the engines it checks, and the
package exports its names lazily."""

import ast
import subprocess
import sys
from pathlib import Path

import ittlab
from ittlab import kernel

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
