"""Constant maps, embedding verification, composition, and transfer."""

import dataclasses

import pytest

from ittlab.embedding import (
    ConstantMap,
    Failed,
    TransferCertificate,
    Undischarged,
    Verified,
    compose_maps,
    extend_structurally,
    transfer_nonsensible,
    transfer_sensible,
    verify_embedding,
)
from ittlab.errors import InvalidInput, PreconditionFailed
from ittlab.sensibility import builtin_theories, registered_maps
from ittlab.subtyping import Valid, check_subproof
from ittlab.theory import AxiomDecl, RuleFlag
from ittlab.types import TOP, Arrow, Const, parse_ty, print_ty


def spec(name):
    return builtin_theories().lookup(name).spec


def corpus_map(src, tgt):
    for k in registered_maps():
        if k.source.name == src and k.target.name == tgt:
            return k
    raise AssertionError(f"no registered map {src} -> {tgt}")


def identity_map(t):
    return ConstantMap.of(t, t, {c: Const(c) for c in t.constants})


def with_fresh_self_arrow(t, name="zz"):
    """t plus a fresh constant equated to its own arrow."""
    return dataclasses.replace(
        t,
        name=t.name + "+" + name,
        constants=t.constants | {name},
        axioms=t.axioms
        + (AxiomDecl("eq", Const(name), Arrow(Const(name), Const(name))),),
        flags=t.flags | {RuleFlag.ARROW_TOP},
    )


class TestConstantMap:
    def test_images_canonicalized_and_sorted(self):
        t3, tcdz = spec("T3"), spec("TCDZ")
        k = ConstantMap.of(
            t3, tcdz, {"c1": parse_ty("c4 & c4"), "c0": parse_ty("c4"), "c2": parse_ty("c3")}
        )
        assert [n for n, _ in k.mapping] == ["c0", "c1", "c2"]
        assert k.lookup("c1") == parse_ty("c4")

    def test_must_cover_source(self):
        with pytest.raises(InvalidInput):
            ConstantMap.of(spec("T3"), spec("TCDZ"), {"c0": parse_ty("c4")})

    def test_no_extra_keys(self):
        t = spec("Park")
        with pytest.raises(InvalidInput):
            ConstantMap.of(t, t, {"c": parse_ty("c"), "zz": parse_ty("c")})

    def test_image_constants_must_be_declared(self):
        with pytest.raises(InvalidInput):
            ConstantMap.of(spec("Park"), spec("TCDZ"), {"c": parse_ty("c9")})

    def test_lookup_unknown(self):
        with pytest.raises(InvalidInput):
            corpus_map("T3", "TCDZ").lookup("zz")


class TestExtendStructurally:
    def test_t3_image_of_compound(self):
        k = corpus_map("T3", "TCDZ")
        out = extend_structurally(k, parse_ty("c0 & (c1 -> c2)"))
        assert print_ty(out) == "c4 & (c4 -> c3)"

    def test_top_fixed(self):
        assert extend_structurally(corpus_map("T3", "TCDZ"), TOP) == TOP

    def test_identity_extension_is_canonical_identity(self):
        t = spec("EP")
        k = identity_map(t)
        a = parse_ty("c1 & c1 -> c3")
        assert extend_structurally(k, a) == parse_ty("c1 -> c3")

    def test_unknown_source_constant_rejected(self):
        with pytest.raises(InvalidInput):
            extend_structurally(corpus_map("T3", "TCDZ"), parse_ty("zz"))


class TestVerifyEmbedding:
    def test_all_registered_maps_verify(self):
        for k in registered_maps():
            r = verify_embedding(k)
            assert isinstance(r, Verified), (k.source.name, k.target.name, r)
            for desc, proof in r.checks:
                assert isinstance(desc, str) and desc
                if proof is not None:
                    assert check_subproof(k.target, proof) == Valid()

    def test_identity_verifies_on_every_corpus_theory(self):
        reg = builtin_theories()
        for name in reg.names():
            t = reg.lookup(name).spec
            assert isinstance(verify_embedding(identity_map(t)), Verified), name

    def test_flag_gap_fails_fast(self):
        k = ConstantMap.of(spec("Tstar"), spec("Park"), {"c": parse_ty("c")})
        r = verify_embedding(k)
        assert isinstance(r, Failed)
        assert r.obligation == "rule-flags"
        assert "RuleFlagGap" in r.detail

    def test_unprovable_axiom_image_is_inconclusive(self):
        tcdz = spec("TCDZ")
        swap = ConstantMap.of(tcdz, tcdz, {"c3": Const("c4"), "c4": Const("c3")})
        r = verify_embedding(swap)
        assert isinstance(r, Undischarged)
        assert "c4 <= c3" in r.obligation

    def test_collapse_everything_to_top_fails_top_preservation(self):
        # TCDZ's constants are not provably ~ U, but their images would be
        tcdz = spec("TCDZ")
        k = ConstantMap.of(tcdz, tcdz, {"c3": TOP, "c4": TOP})
        r = verify_embedding(k)
        assert isinstance(r, Undischarged)
        assert "top preservation" in r.obligation


class TestCompose:
    def test_register_then_identity(self):
        k = corpus_map("T3", "TCDZ")
        kk = compose_maps(k, identity_map(spec("TCDZ")))
        assert kk.mapping == k.mapping
        assert isinstance(verify_embedding(kk), Verified)

    def test_two_step_chain(self):
        t2 = spec("T2")
        mid = spec("T2prime")
        end = with_fresh_self_arrow(mid)
        first = corpus_map("T2", "T2prime")
        second = ConstantMap.of(
            mid, end, {c: Const(c) for c in mid.constants}
        )
        chained = compose_maps(first, second)
        assert chained.source.name == "T2" and chained.target.name == end.name
        assert isinstance(verify_embedding(chained), Verified)

    def test_mismatched_interface_rejected(self):
        with pytest.raises(InvalidInput):
            compose_maps(corpus_map("T3", "TCDZ"), corpus_map("T2", "T2prime"))

    def test_composes_through_a_renamed_copy(self):
        k = corpus_map("T3", "TCDZ")
        copy = dataclasses.replace(spec("TCDZ"), name="TCDZcopy")
        kk = compose_maps(k, identity_map(copy))
        assert kk.mapping == k.mapping and kk.target is copy

    @pytest.mark.parametrize(
        "change",
        [
            lambda t: {"axioms": t.axioms + (AxiomDecl("le", Const("c1"), Const("c0")),)},
            lambda t: {"flags": t.flags | {RuleFlag.ARROW}},
        ],
        ids=["axiom", "flag"],
    )
    def test_same_name_other_theory_rejected(self, change):
        t0 = spec("T0")
        other = dataclasses.replace(t0, **change(t0))
        assert other.name == t0.name and other.constants == t0.constants
        with pytest.raises(InvalidInput, match="maps do not compose"):
            compose_maps(identity_map(t0), identity_map(other))


class TestTransfer:
    def test_sensible_transfers_backward(self):
        k = corpus_map("T3", "TCDZ")
        cert = transfer_sensible(k, target_evidence="registry: CDZ 1987")
        assert cert == TransferCertificate(
            "sensible", k, cert.embedding, "registry: CDZ 1987"
        )
        assert isinstance(cert.embedding, Verified)

    def test_nonsensible_transfers_forward(self):
        k = corpus_map("Park", "T2inv")
        cert = transfer_nonsensible(k, source_evidence="unsolvable typed at c")
        assert cert.kind == "nonsensible"
        assert (cert.map.source.name, cert.map.target.name) == ("Park", "T2inv")

    def test_evidence_required(self):
        k = corpus_map("T3", "TCDZ")
        with pytest.raises(PreconditionFailed):
            transfer_sensible(k, None)
        with pytest.raises(PreconditionFailed):
            transfer_nonsensible(k, None)

    def test_unverified_map_rejected(self):
        tcdz = spec("TCDZ")
        swap = ConstantMap.of(tcdz, tcdz, {"c3": Const("c4"), "c4": Const("c3")})
        with pytest.raises(PreconditionFailed):
            transfer_sensible(swap, "anything")

    def test_fresh_self_arrow_absorbs_park_everywhere(self):
        # adding one fresh self-arrow constant makes any corpus theory a
        # Park target, so non-sensibility transfers into all of them
        reg = builtin_theories()
        park = spec("Park")
        for name in reg.names():
            extended = with_fresh_self_arrow(reg.lookup(name).spec)
            k = ConstantMap.of(park, extended, {"c": Const("zz")})
            cert = transfer_nonsensible(k, source_evidence="Park witness")
            assert cert.kind == "nonsensible"
            assert cert.map.target.name == extended.name, name
