"""Constant maps between theories and checked embedding certificates.

An embedding sends every source constant to a target type so that axioms,
the top constant, and the rule schemata are preserved.  A verified embedding
transfers sensibility backward (target sensible implies source sensible) and
non-sensibility forward.
"""

from __future__ import annotations

from typing import Mapping, Union

from .errors import InvalidInput, PreconditionFailed
from .kernel import SubProof
from .records import Record
from .subtyping import DEFAULT_WIDTH, Proven, context_for, is_top_equiv
from .theory import TheorySpec
from .types import TOP, Const, Ty, canonicalize, constants_of, map_consts, print_ty


class ConstantMap(Record):
    """Total map from source constants to target types."""

    source: TheorySpec
    target: TheorySpec
    mapping: tuple[tuple[str, Ty], ...]

    @staticmethod
    def of(
        source: TheorySpec, target: TheorySpec, mapping: Mapping[str, Ty]
    ) -> "ConstantMap":
        missing = source.constants - mapping.keys()
        if missing:
            names = ", ".join(sorted(missing))
            raise InvalidInput(f"map does not cover source constants: {names}")
        extra = mapping.keys() - source.constants
        if extra:
            names = ", ".join(sorted(extra))
            raise InvalidInput(f"map mentions non-source constants: {names}")
        entries = []
        for name in sorted(mapping):
            image = canonicalize(mapping[name])
            undeclared = constants_of(image) - target.constants
            if undeclared:
                names = ", ".join(sorted(undeclared))
                raise InvalidInput(
                    f"image of {name} uses constants not in target: {names}"
                )
            entries.append((name, image))
        return ConstantMap(source, target, tuple(entries))

    def lookup(self, name: str) -> Ty:
        for key, image in self.mapping:
            if key == name:
                return image
        raise InvalidInput(f"constant {name} not in map")

    def as_dict(self) -> dict[str, Ty]:
        return dict(self.mapping)


def extend_structurally(k: ConstantMap, a: Ty) -> Ty:
    """Homomorphic extension: constants via the map, U/->/& preserved."""
    undeclared = constants_of(a) - k.source.constants
    if undeclared:
        names = ", ".join(sorted(undeclared))
        raise InvalidInput(f"type uses constants not in source: {names}")
    return canonicalize(map_consts(a, lambda c: k.lookup(c)))


Check = tuple[str, Union[SubProof, None]]


class Verified(Record):
    checks: tuple[Check, ...]


class Failed(Record):
    obligation: str
    detail: str


class Undischarged(Record):
    """An obligation not provable inside the target universe; not a refutation."""

    obligation: str


EmbeddingVerdict = Union[Verified, Failed, Undischarged]


def _flag_gap(k: ConstantMap) -> frozenset:
    return k.source.flags - k.target.flags


def verify_embedding(
    k: ConstantMap, inter_width: int = DEFAULT_WIDTH
) -> EmbeddingVerdict:
    """Discharge the embedding obligations inside one target universe.

    Checked pointwise: every source axiom direction maps to a provable
    target inequality, and each constant's image is provably top-equivalent
    exactly when the constant is in the source.  Preservation of arrows and
    meets holds by construction of extend_structurally; preservation of the
    full generated order then follows from the axiom checks together with
    the rule-flag inclusion, recorded as a meta-obligation.
    """
    gap = _flag_gap(k)
    if gap:
        names = ", ".join(sorted(f.value for f in gap))
        return Failed(
            "rule-flags",
            f"RuleFlagGap: source enables {names} not available in target",
        )

    checks: list[Check] = []
    checks.append(
        (
            "rule schemata: source flags covered by target (order preservation "
            "follows from axiom checks under shared schemata)",
            None,
        )
    )

    seeds: list[Ty] = [Const(c) for c in sorted(k.target.constants)]
    mapped_axioms: list[tuple[str, Ty, Ty]] = []
    for lhs, rhs in k.source.le_axiom_pairs():
        image_l = extend_structurally(k, lhs)
        image_r = extend_structurally(k, rhs)
        seeds.extend([image_l, image_r])
        desc = (
            f"axiom image: {print_ty(lhs)} <= {print_ty(rhs)}  |->  "
            f"{print_ty(image_l)} <= {print_ty(image_r)}"
        )
        mapped_axioms.append((desc, image_l, image_r))
    for name, image in k.mapping:
        seeds.append(image)

    ctx = context_for(k.target, seeds, inter_width)

    for desc, image_l, image_r in mapped_axioms:
        if ctx.holds(image_l, image_r):
            checks.append((desc, ctx.proof(image_l, image_r)))
        else:
            return Undischarged(desc)

    for name, image in k.mapping:
        src_top = is_top_equiv(k.source, Const(name), inter_width)
        tgt_top = ctx.holds(TOP, image)
        desc = f"top preservation: {name} |-> {print_ty(image)}"
        if isinstance(src_top, Proven) and tgt_top:
            checks.append((desc + " (both ~ U)", ctx.proof(TOP, image)))
        elif not isinstance(src_top, Proven) and not tgt_top:
            checks.append((desc + " (neither provably ~ U)", None))
        else:
            # One side provably collapses to U and the other is not known
            # to; the negative half is undecidable within this universe.
            return Undischarged(desc)

    return Verified(tuple(checks))


def compose_maps(k1: ConstantMap, k2: ConstantMap) -> ConstantMap:
    """Pointwise composition: first k1, then k2 extended structurally.  k1's
    target and k2's source must be one theory up to its name (equal keys)."""
    if k1.target.key != k2.source.key:
        raise InvalidInput("maps do not compose: k1 target differs from k2 source")
    composed = {name: extend_structurally(k2, image) for name, image in k1.mapping}
    return ConstantMap.of(k1.source, k2.target, composed)


class TransferCertificate(Record):
    """Bundled embedding checks plus the evidence that crossed the map.

    The checks are proofs in map.target; the evidence is about map.target
    for kind "sensible" and about map.source for kind "nonsensible".
    """

    kind: str
    map: ConstantMap
    embedding: Verified
    evidence: object


_EVIDENCE = {
    "sensible": "sensibility evidence for the target",
    "nonsensible": "non-sensibility evidence for the source",
}


def transfer(
    k: ConstantMap,
    kind: str,
    evidence: object,
    inter_width: int = DEFAULT_WIDTH,
) -> TransferCertificate | Failed | Undischarged:
    """Verify k once and, if Verified, certify that evidence crosses it.

    Kind "sensible" carries the target's sensibility back to the source;
    kind "nonsensible" carries the source's non-sensibility forward to the
    target.  A failed verification is returned unchanged.

    A sensible transfer also needs equal rule flags.  verify_embedding checks
    top preservation constant by constant, which covers every type only when
    both theories have the same schemata: with a schema the source lacks,
    such as arrow-U, a type like c0 -> U is top in the target but not in the
    source, and no per-constant check sees it.
    """
    if kind not in _EVIDENCE:
        raise InvalidInput(f"unknown transfer kind {kind!r}")
    if evidence is None:
        raise PreconditionFailed(f"{_EVIDENCE[kind]} is required")
    if kind == "sensible" and k.source.flags != k.target.flags:
        names = ", ".join(sorted(f.value for f in k.source.flags ^ k.target.flags))
        return Failed(
            "rule-flags",
            f"RuleFlagMismatch: a sensible transfer needs equal flags; {names} differ",
        )
    verdict = verify_embedding(k, inter_width)
    if not isinstance(verdict, Verified):
        return verdict
    return TransferCertificate(kind, k, verdict, evidence)


def _transfer_or_raise(k: ConstantMap, kind: str, evidence: object) -> TransferCertificate:
    cert = transfer(k, kind, evidence)
    if not isinstance(cert, TransferCertificate):
        raise PreconditionFailed(f"embedding not verified: {cert}")
    return cert


def transfer_sensible(k: ConstantMap, target_evidence: object) -> TransferCertificate:
    """Target sensible plus verified embedding yields source sensible."""
    return _transfer_or_raise(k, "sensible", target_evidence)


def transfer_nonsensible(k: ConstantMap, source_evidence: object) -> TransferCertificate:
    """Source non-sensible plus verified embedding yields target non-sensible."""
    return _transfer_or_raise(k, "nonsensible", source_evidence)
