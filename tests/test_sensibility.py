"""Registry, unsolvable-typing probe, and the verdict pipeline."""

import dataclasses
import hashlib
import json
from importlib import resources

import pytest

from ittlab import embedding, sensibility
from ittlab.assignment import DEFAULT_FUEL, check_derivation
from ittlab.embedding import ConstantMap, TransferCertificate, Verified
from ittlab.errors import InvalidInput
from ittlab.polarity import PolarityPass
from ittlab.sensibility import (
    UNSOLVABLE_POOL,
    NoneFound,
    NonSensible,
    Sensible,
    Unknown,
    Witness,
    builtin_theories,
    evidence_summary,
    probe_unsolvable_typing,
    registered_maps,
    verdict,
)
from ittlab.cli import main
from ittlab.subtyping import Proven, Valid, check_subproof, is_top_equiv
from ittlab.terms import FuelExhausted, alpha_eq, head_reduce, parse_term, print_term
from ittlab.theory import parse_theory
from ittlab.types import Const, print_ty

OMEGA = parse_term(r"(\x. x x) (\x. x x)")


def spec(name):
    return builtin_theories().lookup(name).spec


def golden_verdicts():
    raw = resources.files("ittlab").joinpath("corpus", "verdicts.json").read_text()
    return json.loads(raw)


class TestRegistry:
    def test_names_and_size(self):
        reg = builtin_theories()
        assert len(reg.names()) == 21
        assert reg.names()[0] == "T0" and "TCDZ" in reg.names()

    def test_exact_lookup_beats_substring(self):
        assert builtin_theories().lookup("T0").spec.name == "T0"

    def test_unique_substring_lookup(self):
        entry = builtin_theories().lookup("CDZ")
        assert entry.spec.name == "TCDZ"

    def test_ambiguous_and_missing_rejected(self):
        with pytest.raises(InvalidInput):
            builtin_theories().lookup("Ain")
        with pytest.raises(InvalidInput):
            builtin_theories().lookup("zzz")

    def test_pool_really_is_unsolvable(self):
        for term in UNSOLVABLE_POOL:
            assert isinstance(head_reduce(term, 300), FuelExhausted)
        assert len(set(UNSOLVABLE_POOL)) == len(UNSOLVABLE_POOL)

    def test_pool_at_the_cli_fuel(self):
        # the last term of each pool term at DEFAULT_FUEL, pinned by the
        # sha256 of its printed form
        pinned = [
            "5be56ef4463b41bad7177d9845f96a72000ba31148217f4f206ebafd4b43c9a0",
            "e05713bb239859a6e7aa2695c4662f2817190cd7a846021c55a29761aa5c6ab4",
            "97e4443c864fd658f108548d69d26942220f01fae6629148e6f5b0f8dd698ef2",
        ]
        assert DEFAULT_FUEL == 10_000
        for term, digest in zip(UNSOLVABLE_POOL, pinned, strict=True):
            r = head_reduce(term, DEFAULT_FUEL)
            assert r == FuelExhausted(r.last, 10_000)
            assert hashlib.sha256(print_term(r.last).encode()).hexdigest() == digest


class TestProbe:
    def test_park_witness(self):
        w = probe_unsolvable_typing(spec("Park"))
        assert isinstance(w, Witness)
        assert alpha_eq(w.term, OMEGA)
        assert w.ty == Const("c")
        assert check_derivation(spec("Park"), w.derivation) == Valid()
        assert isinstance(w.head_trace, FuelExhausted)
        assert w.head_trace.steps == DEFAULT_FUEL

    def test_t4_witness_at_c3(self):
        w = probe_unsolvable_typing(spec("T4"))
        assert isinstance(w, Witness)
        assert alpha_eq(w.term, OMEGA) and w.ty == Const("c3")
        assert check_derivation(spec("T4"), w.derivation) == Valid()

    def test_t2inv_and_tsharp_witnesses(self):
        assert probe_unsolvable_typing(spec("T2inv")).ty == Const("c0")
        assert probe_unsolvable_typing(spec("Tsharp")).ty == Const("c2")

    def test_none_found_on_the_safe_theories(self):
        for name in ["TCDZ", "T3", "Tstar", "Tstarup", "Tflat", "EP",
                     "Ainf1", "Ainf2", "Ainf3", "Ainf4", "Ainf5"]:
            r = probe_unsolvable_typing(spec(name))
            assert r == NoneFound(fuel=DEFAULT_FUEL, inter_width=2), name

    def test_witness_survives_more_fuel(self):
        for name in ["Park", "T2inv"]:
            short = probe_unsolvable_typing(spec(name), fuel=500)
            long = probe_unsolvable_typing(spec(name), fuel=1000)
            assert isinstance(long, Witness), name
            assert long.ty == short.ty and long.head_trace.steps == 1000

    def test_solvable_extra_pool_term_cannot_fake_a_witness(self):
        # the identity types at c1 -> c0 in T0, but it reaches an hnf
        r = probe_unsolvable_typing(spec("T0"), extra_pool=(parse_term(r"\x.x"),))
        assert isinstance(r, NoneFound)

    def test_a_solvable_term_is_reduced_once(self, monkeypatch):
        # \x.x types at all four targets; its first Found shows it solvable,
        # so the probe moves on without reducing it again
        t = parse_theory(
            "natural\nconstants a b\nflags arrow arrow-cap U-leq\n"
            "axiom a ~ a -> a\naxiom b ~ b -> b\n"
        )
        assert len(sensibility._probe_targets(t)) == 4
        calls = []

        def counting(term, fuel):
            calls.append(term)
            return head_reduce(term, fuel)

        monkeypatch.setattr(sensibility, "UNSOLVABLE_POOL", ())
        monkeypatch.setattr(sensibility, "head_reduce", counting)
        r = probe_unsolvable_typing(t, extra_pool=(parse_term(r"\x.x"),))
        assert r == NoneFound(DEFAULT_FUEL, 2)
        assert calls == [parse_term(r"\x.x")]

    def test_a_target_derivably_top_is_no_witness(self, tmp_path, capsys):
        # U <= c1 -> U <= c1 -> c2 <= c3, so c3 ~ U, though the universe of
        # {U, c3} lacks c1 -> U.  Every chain model sends c3 to its top, so
        # nothing certifies c3 below U and Omega : c3 is no witness.
        text = (
            "theory R\nnatural\nconstants c1 c2 c3\n"
            "flags arrow arrow-U arrow-cap U-leq\n"
            "axiom c2 ~ U\naxiom c1 ~ c1 -> c3\naxiom c3 ~ c1 -> c2\n"
        )
        r = parse_theory(text)
        assert sensibility._probe_targets(r) == ()
        assert probe_unsolvable_typing(r) == NoneFound(DEFAULT_FUEL, 2)
        path = tmp_path / "R.itt"
        path.write_text(text)
        assert main(["sensibility", str(path)]) == 2
        assert capsys.readouterr().out.startswith("Unknown")

    def test_every_corpus_target_is_certified_below_top(self):
        # a model certifies every side the bounded is_top_equiv leaves unproven
        for name in builtin_theories().names():
            t = spec(name)
            sides = {Const(c) for c in t.constants}
            sides.update(ty for pair in t.canonical_pairs for ty in pair)
            unproven = {ty for ty in sides if not isinstance(is_top_equiv(t, ty), Proven)}
            assert set(sensibility._probe_targets(t)) == unproven, name
        # past the bank's bound no target is certified
        wide = parse_theory("constants " + " ".join(f"c{i}" for i in range(11)))
        assert sensibility._probe_targets(wide) == ()


class TestVerdicts:
    def test_every_corpus_theory_matches_its_golden(self):
        golden = golden_verdicts()
        reg = builtin_theories()
        assert sorted(golden) == sorted(reg.names())
        for name in reg.names():
            v = verdict(reg.lookup(name).spec)
            assert type(v).__name__ == golden[name]["verdict"], name
            assert evidence_summary(v) == golden[name]["evidence"], name
            if isinstance(v, Unknown):
                continue
            # no verdict rests on a citation: every transfer bottoms out in
            # evidence the pipeline computed
            leaf = v.evidence
            while isinstance(leaf, TransferCertificate):
                leaf = leaf.evidence
            assert isinstance(leaf, (PolarityPass, Witness)), name

    def test_nonsensible_evidence_revalidates(self):
        v = verdict(spec("T4"))
        assert isinstance(v, NonSensible)
        e = v.evidence
        assert isinstance(e, Witness)
        assert check_derivation(spec("T4"), e.derivation) == Valid()
        assert isinstance(e.head_trace, FuelExhausted)

    def test_embedding_evidence_revalidates(self):
        v = verdict(spec("T3"))
        assert isinstance(v, Sensible)
        e = v.evidence
        assert isinstance(e, TransferCertificate) and e.map.target.name == "TCDZ"
        assert e.kind == "sensible"
        for _, proof in e.embedding.checks:
            if proof is not None:
                assert check_subproof(spec("TCDZ"), proof) == Valid()

    def test_sensible_theories_never_probe_positive(self):
        golden = golden_verdicts()
        for name, row in golden.items():
            if row["verdict"] == "Sensible":
                assert isinstance(probe_unsolvable_typing(spec(name)), NoneFound), name

    def test_verdict_is_structural_not_nominal(self):
        mystery = dataclasses.replace(spec("T3"), name="Mystery")
        v = verdict(mystery)
        assert isinstance(v, Sensible)
        assert isinstance(v.evidence, TransferCertificate)
        assert v.evidence.kind == "sensible"
        assert v.evidence.map.target.name == "TCDZ"

    def test_unknown_reports_what_was_tried(self):
        v = verdict(spec("T0"))
        assert isinstance(v, Unknown)
        assert v.tried[0] == "polarity: not applicable (theory not marked natural)"
        assert any("unsolvable-typing probe: NoneFound" in line for line in v.tried)
        assert isinstance(verdict(spec("T1")), Unknown)
        # Park's own probe finds no witness at fuel 1, so nothing crosses
        assert verdict(spec("T2inv"), fuel=1) == Unknown((
            "polarity: Fail (criterion is sufficient only)",
            "unsolvable-typing probe: NoneFound at fuel 1",
            "embedding from Park: source probe NoneFound at fuel 1",
        ))

    def test_extra_map_opens_a_route(self):
        # handing verdict() the registered Park map changes nothing (it is
        # already in the pool), but an unrelated copy of Park finds its way
        # out through structural matching
        clone = dataclasses.replace(spec("Park"), name="ParkClone")
        v = verdict(clone)
        assert isinstance(v, NonSensible)
        assert isinstance(v.evidence, Witness)
        assert print_ty(v.evidence.ty) == "c"

    def test_embedding_from_a_known_nonsensible_source(self):
        # at fuel 10 the probe finds no witness in T2inv itself but finds one
        # in Park, and it crosses the registered embedding of Park
        v = verdict(spec("T2inv"), fuel=10)
        assert isinstance(v, NonSensible)
        assert isinstance(v.evidence, TransferCertificate)
        assert v.evidence.map.source.name == "Park"
        assert v.evidence.kind == "nonsensible"
        assert isinstance(v.evidence.embedding, Verified)
        w = v.evidence.evidence
        assert isinstance(w, Witness)
        assert check_derivation(spec("Park"), w.derivation) == Valid()

    def test_same_named_targets_are_each_tried(self):
        # two extra targets named Foo: an axiom-free one that nothing shows
        # sensible, then a renamed TCDZ; the second must not be dropped as a
        # duplicate of the first
        x = parse_theory(
            "theory X\nconstants a\nflags arrow arrow-U arrow-cap U-leq\n"
        )
        hollow = parse_theory(
            "theory Foo\nconstants c3 c4\nflags arrow arrow-U arrow-cap U-leq\n"
        )
        foo = dataclasses.replace(spec("TCDZ"), name="Foo")
        maps = tuple(ConstantMap.of(x, k, {"a": Const("c3")}) for k in (hollow, foo))
        v = verdict(x, extra_maps=maps)
        assert isinstance(v, Sensible)
        assert isinstance(v.evidence, TransferCertificate)
        assert v.evidence.map.target is foo

    def test_each_embedding_is_verified_once(self, monkeypatch):
        calls = []
        original = embedding.verify_embedding

        def counting(k, *args, **kwargs):
            calls.append(k)
            return original(k, *args, **kwargs)

        monkeypatch.setattr(embedding, "verify_embedding", counting)
        if hasattr(sensibility, "verify_embedding"):
            monkeypatch.setattr(sensibility, "verify_embedding", counting)
        assert isinstance(verdict(spec("T3")), Sensible)
        assert len(calls) == 1


_CHAIN_PAIRS = {
    ("T2", False): [("T2", "T2prime")],
    ("T3", False): [("T3", "TCDZ")],
    ("Tstar", False): [("Tstar", "TCDZ")],
    ("Tstarup", False): [("Tstarup", "TCDZ")],
    ("Tflat", False): [("Tflat", "TCDZ")],
    ("TCDZ", True): [(name, "TCDZ") for name in ("T3", "Tstar", "Tstarup", "Tflat")],
    ("T2prime", True): [("T2", "T2prime")],
    ("T2inv", True): [("Park", "T2inv")],
    ("Park", False): [("Park", "T2inv")],
}


@pytest.mark.parametrize("into", [False, True], ids=["from", "into"])
@pytest.mark.parametrize("name", builtin_theories().names())
def test_chain_enumerator_pairs(name, into):
    pool = registered_maps()
    chains = sensibility._chains(spec(name), pool, 3, into)
    pairs = [(k.source.name, k.target.name) for k in chains]
    assert pairs == _CHAIN_PAIRS.get((name, into), [])
    for k in chains:
        assert (k.target if into else k.source) is spec(name)
