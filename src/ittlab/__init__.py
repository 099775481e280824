"""Intersection type theories: subtyping, assignment, filter models, sensibility.

The submodules build on each other in this order: the frozen record base
(records), terms and types, theory specifications, the certificate kernel,
the bounded subtyping engine, type assignment and filters, probes, polarity
and staging, embeddings, and the sensibility pipeline.  The names exported
here cover the everyday workflow; anything finer-grained stays importable
from its submodule.

Importing the package loads no submodule.  Each exported name is read from
its submodule the first time it is asked for (PEP 562) and bound here, so
every later read is a plain attribute lookup.
"""

from importlib import import_module

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_EXPORTS = {
    "IttError": "errors",
    "head_reduce": "terms",
    "parse_term": "terms",
    "print_term": "terms",
    "TOP": "types",
    "Ty": "types",
    "canonicalize": "types",
    "parse_ty": "types",
    "print_ty": "types",
    "TheorySpec": "theory",
    "parse_theory": "theory",
    "validate_natural": "theory",
    "Basis": "kernel",
    "Derivation": "kernel",
    "Judgment": "kernel",
    "SubProof": "kernel",
    "check_derivation": "kernel",
    "check_subproof": "kernel",
    "Proven": "subtyping",
    "UnknownWithin": "subtyping",
    "derive_le": "subtyping",
    "Found": "assignment",
    "NotFoundWithinFuel": "assignment",
    "infer_bounded": "assignment",
    "subject_reduction_probe": "assignment",
    "check_positive_polarity": "polarity",
    "completion": "polarity",
    "decorate_class": "polarity",
    "equivalence_classes": "polarity",
    "stage_plan": "polarity",
    "ConstantMap": "embedding",
    "TransferCertificate": "embedding",
    "Verified": "embedding",
    "compose_maps": "embedding",
    "extend_structurally": "embedding",
    "transfer_nonsensible": "embedding",
    "transfer_sensible": "embedding",
    "verify_embedding": "embedding",
    "NonSensible": "sensibility",
    "Sensible": "sensibility",
    "Unknown": "sensibility",
    "builtin_theories": "sensibility",
    "probe_unsolvable_typing": "sensibility",
    "verdict": "sensibility",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
