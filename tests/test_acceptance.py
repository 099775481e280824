"""End-to-end gate: one printed pass/fail line per criterion."""

import contextlib
import io
import json
import time
from contextlib import contextmanager
from importlib import resources

from hypothesis import settings

import test_polarity
from ittlab.assignment import (
    Basis,
    Derivation,
    Judgment,
    NotFoundWithinFuel,
    check_derivation,
    subject_reduction_probe,
)
from ittlab.cli import main
from ittlab.embedding import Verified, transfer_nonsensible, transfer_sensible, verify_embedding
from ittlab.polarity import (
    PolarityFail,
    PolarityPass,
    check_positive_polarity,
    closure_of,
    completion,
    decorate_class,
    equivalence_classes,
    stage_plan,
)
from ittlab.probes import CounterexampleFound, NoCounterexampleUpTo, beta_soundness_probe
from ittlab.sensibility import (
    NoneFound,
    NonSensible,
    Witness,
    builtin_theories,
    evidence_summary,
    polarity_stage,
    probe_unsolvable_typing,
    registered_maps,
    verdict,
)
from ittlab.sexpr import parse_derivation
from ittlab.subtyping import Proven, Valid, check_subproof, derive_le
from ittlab.terms import Abs, App, FuelExhausted, Var, head_reduce, parse_term
from ittlab.theory import ArrowC, SelfC, validate_natural
from ittlab.types import parse_ty


def spec(name):
    return builtin_theories().lookup(name).spec


@contextmanager
def criterion(capsys, n, label, budget=None):
    start = time.monotonic()
    ok = False
    try:
        yield
        if budget is not None:
            elapsed = time.monotonic() - start
            assert elapsed < budget, f"budget {budget}s exceeded: {elapsed:.1f}s"
        ok = True
    finally:
        with capsys.disabled():
            print(f"ACCEPTANCE {n} {label}: {'PASS' if ok else 'FAIL'}")


def test_criterion_1_t0_suite(capsys):
    with criterion(capsys, 1, "T0 suite", budget=5.0):
        t0 = spec("T0")
        lo, hi = parse_ty("c0 -> c0"), parse_ty("c1 -> c0")
        r = derive_le(t0, lo, hi)
        assert isinstance(r, Proven)
        assert check_subproof(t0, r.proof) == Valid()

        ident = Abs("x", Var("x"))
        closed = Derivation(
            "Le",
            Judgment(Basis(), ident, hi),
            (
                Derivation(
                    "ArrI",
                    Judgment(Basis(), ident, lo),
                    (Derivation("Ax", Judgment(Basis.of(x=parse_ty("c0")), Var("x"), parse_ty("c0"))),),
                ),
            ),
            r.proof,
        )
        assert check_derivation(t0, closed) == Valid()

        g = Basis.of(y=parse_ty("c1"))
        redex = Derivation(
            "ArrE",
            Judgment(g, App(ident, Var("y")), parse_ty("c0")),
            (
                Derivation(
                    "Le",
                    Judgment(g, ident, hi),
                    (
                        Derivation(
                            "ArrI",
                            Judgment(g, ident, lo),
                            (
                                Derivation(
                                    "Ax",
                                    Judgment(g.extend("x", parse_ty("c0")), Var("x"), parse_ty("c0")),
                                ),
                            ),
                        ),
                    ),
                    r.proof,
                ),
                Derivation("Ax", Judgment(g, Var("y"), parse_ty("c1"))),
            ),
        )
        assert check_derivation(t0, redex) == Valid()
        assert isinstance(subject_reduction_probe(t0, redex, fuel=5000), NotFoundWithinFuel)

        cx = beta_soundness_probe(t0, depth=3)
        assert isinstance(cx, CounterexampleFound)
        assert cx.lhs == lo and cx.rhs == hi
        assert isinstance(beta_soundness_probe(spec("T0le"), depth=3), NoCounterexampleUpTo)
        assert isinstance(beta_soundness_probe(spec("T1"), depth=3), NoCounterexampleUpTo)


def test_criterion_2_t4_witness(capsys):
    with criterion(capsys, 2, "T4 unsolvable witness", budget=10.0):
        t4 = spec("T4")
        drv = resources.files("ittlab").joinpath(
            "corpus", "derivations", "omega2omega2_c3.drv"
        ).read_text()
        golden = parse_derivation(drv)
        assert check_derivation(t4, golden) == Valid()
        assert golden.conclusion.ty == parse_ty("c3")

        omega = parse_term(r"(\x. x x) (\x. x x)")
        trace = head_reduce(omega, 10_000)
        assert isinstance(trace, FuelExhausted) and trace.steps == 10_000

        v = verdict(t4)
        assert isinstance(v, NonSensible)
        assert isinstance(v.evidence, Witness)
        assert v.evidence.ty == parse_ty("c3")


def test_criterion_3_structural_facts(capsys):
    with criterion(capsys, 3, "completion, classes, staging", budget=5.0):
        raw = {"c0": ArrowC("c2", "c0"), "c1": ArrowC("c2", "c1")}
        assert completion(raw) == {**raw, "c2": SelfC()}

        ep = completion(validate_natural(spec("EP")).axioms)
        assert closure_of("c1", ep) == frozenset({"c1", "c2"})
        assert closure_of("c3", ep) == frozenset({"c1", "c2", "c3", "c4", "c5"})
        po = equivalence_classes(ep)
        assert po.classes == (frozenset({"c1", "c2"}), frozenset({"c3", "c4", "c5"}))
        assert po.order == frozenset({(0, 0), (0, 1), (1, 1)})
        assert po.leq("c1", "c3")

        plan = stage_plan(ep)
        assert [cls for cls, _ in plan] == [po.classes[0], po.classes[1]]
        first, second = plan
        assert set(first[1].as_dict().values()) == {"+", "-"}
        marks = second[1].as_dict()
        assert all(marks[c] == "+" for c in ("c3", "c4", "c5"))


def test_criterion_4_polarity_verdicts(capsys):
    with criterion(capsys, 4, "polarity verdicts and oracle", budget=10.0):
        def char(name):
            return completion(validate_natural(spec(name)).axioms)

        tsharp = check_positive_polarity(char("Tsharp"))
        assert isinstance(tsharp, PolarityFail)
        assert any("c0" in (a, b) for a, b, _ in tsharp.witness)
        assert isinstance(check_positive_polarity(char("Park")), PolarityFail)
        assert isinstance(check_positive_polarity(char("T2")), PolarityFail)
        assert check_positive_polarity(char("EP")) == PolarityPass()
        assert check_positive_polarity(char("TCDZ")) == PolarityPass()

        # the declared order axiom is outside the criterion, so the pipeline
        # must flag it rather than silently claim full coverage
        v = verdict(spec("TCDZ"))
        assert isinstance(v.evidence, PolarityPass)
        assert any("order" in c for c in v.evidence.caveats)

        reg = builtin_theories()
        for name in reg.names():
            t = reg.lookup(name).spec
            if not t.natural or len(t.constants) > 5:
                continue
            engine = check_positive_polarity(char(name))
            assert isinstance(engine, PolarityFail) == test_polarity.oracle_is_negative(
                t, depth=10
            ), name


def test_criterion_5_embedding_suite(capsys):
    with criterion(capsys, 5, "embedding suite", budget=30.0):
        expected = {
            ("T3", "TCDZ"): {"c0": "c4", "c1": "c4", "c2": "c3"},
            ("Tstar", "TCDZ"): {"c": "c3"},
            ("Tstarup", "TCDZ"): {"c": "c4"},
            ("Tflat", "TCDZ"): {"c": "c3"},
            ("T2", "T2prime"): {"c0": "c0", "c1": "c1"},
            ("Park", "T2inv"): {"c": "c0"},
        }
        maps = {(k.source.name, k.target.name): k for k in registered_maps()}
        assert set(maps) == set(expected)
        for key, images in expected.items():
            k = maps[key]
            assert {n: i for n, i in k.mapping} == {
                n: parse_ty(s) for n, s in images.items()
            }, key
            v = verify_embedding(k)
            assert isinstance(v, Verified), key
            for _, proof in v.checks:
                if proof is not None:
                    assert check_subproof(k.target, proof) == Valid(), key

        tcdz_fact = polarity_stage(spec("TCDZ"))
        assert isinstance(tcdz_fact, PolarityPass)
        t2prime_fact = check_positive_polarity(
            completion(validate_natural(spec("T2prime")).axioms)
        )
        assert isinstance(t2prime_fact, PolarityPass)
        for src, tgt, evidence in [
            ("T3", "TCDZ", tcdz_fact),
            ("Tstar", "TCDZ", tcdz_fact),
            ("Tstarup", "TCDZ", tcdz_fact),
            ("Tflat", "TCDZ", tcdz_fact),
            ("T2", "T2prime", t2prime_fact),
        ]:
            cert = transfer_sensible(maps[(src, tgt)], evidence)
            assert cert.kind == "sensible" and cert.map.source.name == src

        park_witness = probe_unsolvable_typing(spec("Park"))
        assert isinstance(park_witness, Witness)
        cert = transfer_nonsensible(maps[("Park", "T2inv")], park_witness)
        assert cert.kind == "nonsensible" and cert.map.target.name == "T2inv"


def test_criterion_6_probe_clean_sweep(capsys):
    with criterion(capsys, 6, "no witness on the safe theories", budget=30.0):
        for name in ["TCDZ", "T3", "Tstar", "Tstarup", "Tflat", "EP",
                     "Ainf1", "Ainf2", "Ainf3", "Ainf4", "Ainf5"]:
            r = probe_unsolvable_typing(spec(name), fuel=500, inter_width=2)
            assert r == NoneFound(fuel=500, inter_width=2), name


def test_criterion_7_property_suites(capsys):
    with criterion(capsys, 7, "property suites present and deterministic"):
        assert settings().max_examples >= 200

        import test_assignment
        import test_cli
        import test_subtyping
        import test_terms

        suites = [
            test_terms.test_shape_total_and_unique,
            test_terms.test_hnf_has_no_head_step,
            test_subtyping.test_aci_laws_proven_everywhere,
            test_subtyping.test_width_monotone,
            test_subtyping.test_engine_matches_naive_closure,
            test_assignment.TestExpansion.test_round_trip_property,
            test_assignment.TestAdmissible.test_weaken_then_le_left_on_random_derivations,
            test_assignment.TestFilters.test_apply_monotone,
            test_polarity.test_stage_plan_total_iff_polarity_passes,
            test_cli.test_polarity_reports_are_deterministic,
        ]
        for fn in suites:
            assert hasattr(fn, "hypothesis"), fn

        outs = []
        for _ in range(2):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                main(["corpus", "T3", "T4", "Park", "--json"])
            outs.append(buf.getvalue())
        assert outs[0] == outs[1]
        report = json.loads(outs[0])
        assert report["verdict"]["all_match"] is True
