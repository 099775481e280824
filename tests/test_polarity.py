"""Positive-polarity criterion, class poset, decorations, and staging."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ittlab.errors import UndefinedConstant
from ittlab.polarity import (
    BOTH,
    MINUS,
    PLUS,
    Decoration,
    NoDecoration,
    PolarityFail,
    PolarityPass,
    StagingFailure,
    check_positive_polarity,
    closure_of,
    completion,
    decorate_class,
    equivalence_classes,
    signed_graph,
    stage_plan,
)
from ittlab.sensibility import builtin_theories
from ittlab.theory import ArrowC, InterC, SelfC, parse_theory, validate_natural
from ittlab.types import TOP, Arrow, Const, Inter, Top, print_ty


def spec(name):
    return builtin_theories().lookup(name).spec


def char_axioms(name):
    return completion(validate_natural(spec(name)).axioms)


# ---------------------------------------------------------------------------
# brute-force oracle: unfold the raw equational definitions, tracking the
# sign of each constant occurrence; Neg iff some defined constant can reach
# itself in negative position.  Depth d is exact once d >= 2 * #constants.
# walk is memoised on its arguments: without the memo it re-walks a definition
# at every occurrence, exponentially in the fuel.


def _flip(sign):
    return MINUS if sign == PLUS else PLUS


def oracle_is_negative(t, depth=10):
    defs = {}
    for ax in t.axioms:
        if ax.kind == "eq" and isinstance(ax.lhs, Const):
            defs[ax.lhs.name] = ax.rhs

    memo = {}

    def walk(start, ty, sign, fuel):
        key = (start, ty, sign, fuel)
        if key not in memo:
            memo[key] = _walk(start, ty, sign, fuel)
        return memo[key]

    def _walk(start, ty, sign, fuel):
        match ty:
            case Top():
                return False
            case Const(n):
                if n == start and sign == MINUS:
                    return True
                if fuel > 0 and n in defs:
                    return walk(start, defs[n], sign, fuel - 1)
                return False
            case Arrow(dom, cod):
                return walk(start, dom, _flip(sign), fuel) or walk(
                    start, cod, sign, fuel
                )
            case Inter(left, right):
                return walk(start, left, sign, fuel) or walk(
                    start, right, sign, fuel
                )
        raise TypeError(f"not a type: {ty!r}")

    return any(walk(c, defs[c], PLUS, depth) for c in defs)


# ---------------------------------------------------------------------------
# completion and closures


class TestCompletion:
    def test_adds_exactly_the_missing_self_axiom(self):
        raw = {"c0": ArrowC("c2", "c0"), "c1": ArrowC("c2", "c1")}
        done = completion(raw)
        assert done == {**raw, "c2": SelfC()}

    def test_noop_when_already_complete(self):
        raw = char_axioms("EP")
        assert completion(raw) == raw

    def test_does_not_mutate_input(self):
        raw = {"c0": ArrowC("c1", "c0")}
        completion(raw)
        assert raw == {"c0": ArrowC("c1", "c0")}


class TestClosures:
    def test_ep_closures(self):
        ax = char_axioms("EP")
        assert closure_of("c1", ax) == frozenset({"c1", "c2"})
        assert closure_of("c2", ax) == frozenset({"c1", "c2"})
        assert closure_of("c3", ax) == frozenset({"c1", "c2", "c3", "c4", "c5"})
        assert closure_of("c4", ax) == closure_of("c3", ax)
        assert closure_of("c5", ax) == closure_of("c3", ax)

    def test_undefined_constant_rejected(self):
        with pytest.raises(UndefinedConstant):
            closure_of("zz", char_axioms("EP"))
        with pytest.raises(UndefinedConstant):
            closure_of("c0", {"c0": ArrowC("missing", "c0")})

    def test_ep_class_poset(self):
        po = equivalence_classes(char_axioms("EP"))
        assert po.classes == (
            frozenset({"c1", "c2"}),
            frozenset({"c3", "c4", "c5"}),
        )
        assert po.order == frozenset({(0, 0), (0, 1), (1, 1)})
        assert po.leq("c1", "c3") and not po.leq("c3", "c1")

    def test_asharp_poset_two_incomparable_tops(self):
        po = equivalence_classes(char_axioms("Asharp"))
        assert po.classes == (
            frozenset({"c0"}),
            frozenset({"c1"}),
            frozenset({"c2"}),
        )
        assert not po.leq("c0", "c1") and not po.leq("c1", "c0")
        assert po.leq("c2", "c0") and po.leq("c2", "c1")


# ---------------------------------------------------------------------------
# the criterion itself on the shipped theories


class TestCriterionOnCorpus:
    def test_tsharp_fails_through_c0(self):
        cs = validate_natural(spec("Tsharp"))
        assert cs.aliases == {"c1": "c0"}
        assert cs.axioms == {"c0": ArrowC("c0", "c2"), "c2": SelfC()}
        r = check_positive_polarity(completion(cs.axioms))
        assert r == PolarityFail(witness=(("c0", "c0", MINUS),))

    def test_park_fails(self):
        r = check_positive_polarity(char_axioms("Park"))
        assert r == PolarityFail(witness=(("c", "c", MINUS),))

    def test_t2_fails_via_auxiliary(self):
        r = check_positive_polarity(char_axioms("T2"))
        assert isinstance(r, PolarityFail)
        nodes = {n for a, b, _ in r.witness for n in (a, b)}
        assert "c0" in nodes

    def test_passes(self):
        for name in ["T2prime", "TCDZ", "Asharp", "EP", "Ainf1", "Ainf3", "Ainf5"]:
            assert check_positive_polarity(char_axioms(name)) == PolarityPass()

    def test_fail_witness_is_a_negative_cycle(self):
        for name in ["T2", "T2inv", "T3", "T4", "Tsharp", "Park", "Tflat"]:
            ax = char_axioms(name)
            r = check_positive_polarity(ax)
            assert isinstance(r, PolarityFail), name
            g = signed_graph(ax)
            for edge in r.witness:
                assert edge in g.edges, (name, edge)
            for (_, hop, _), (src, _, _) in zip(r.witness, r.witness[1:]):
                assert hop == src, name
            assert r.witness[0][0] == r.witness[-1][1], name
            minuses = sum(1 for _, _, s in r.witness if s == MINUS)
            assert minuses % 2 == 1, name

    def test_oracle_agrees_on_small_corpus_theories(self):
        reg = builtin_theories()
        for name in reg.names():
            t = reg.lookup(name).spec
            if not t.natural or len(t.constants) > 5:
                continue
            engine = check_positive_polarity(char_axioms(name))
            assert isinstance(engine, PolarityFail) == oracle_is_negative(t), name


# ---------------------------------------------------------------------------
# decorations and staging


class TestDecoration:
    def test_ep_first_class(self):
        ax = char_axioms("EP")
        d = decorate_class(ax, frozenset({"c1", "c2"}))
        assert d == Decoration.of({"c1": PLUS, "c2": MINUS})

    def test_ep_second_class_with_first_solved(self):
        ax = char_axioms("EP")
        d = decorate_class(
            ax, frozenset({"c3", "c4", "c5"}), solved=frozenset({"c1", "c2"})
        )
        assert d == Decoration.of(
            {"c1": BOTH, "c2": BOTH, "c3": PLUS, "c4": PLUS, "c5": PLUS}
        )

    def test_ep_whole_set_conflicts(self):
        ax = char_axioms("EP")
        d = decorate_class(ax, frozenset(ax))
        assert isinstance(d, NoDecoration)
        assert d.conflict

    def test_self_defined_constant_takes_both(self):
        ax = {"c0": SelfC()}
        assert decorate_class(ax, frozenset({"c0"})) == Decoration.of({"c0": BOTH})

    def test_unknown_member_rejected(self):
        with pytest.raises(UndefinedConstant):
            decorate_class(char_axioms("EP"), frozenset({"zz"}))


class TestStagePlan:
    def test_ep_two_stages(self):
        plan = stage_plan(char_axioms("EP"))
        assert [cls for cls, _ in plan] == [
            frozenset({"c1", "c2"}),
            frozenset({"c3", "c4", "c5"}),
        ]
        first, second = plan
        assert set(first[1].as_dict().values()) == {PLUS, MINUS}
        stage2 = second[1].as_dict()
        assert all(stage2[c] == PLUS for c in ("c3", "c4", "c5"))
        assert stage2["c1"] == BOTH and stage2["c2"] == BOTH

    def test_tsharp_staging_fails(self):
        r = stage_plan(completion(validate_natural(spec("Tsharp")).axioms))
        assert isinstance(r, StagingFailure)
        assert "c0" in r.reason

    def test_asharp_three_singleton_stages(self):
        plan = stage_plan(char_axioms("Asharp"))
        assert [sorted(cls) for cls, _ in plan] == [["c2"], ["c0"], ["c1"]]


# ---------------------------------------------------------------------------
# random theories: engine vs oracle, poset laws, staging totality

rhs_tys = st.recursive(
    st.one_of(st.builds(Const, st.sampled_from(["c0", "c1", "c2", "c3"])), st.just(TOP)),
    lambda sub: st.one_of(st.builds(Arrow, sub, sub), st.builds(Inter, sub, sub)),
    max_leaves=6,
)


@st.composite
def natural_theories(draw):
    defined = draw(
        st.lists(
            st.sampled_from(["c0", "c1", "c2", "c3"]), min_size=1, max_size=4, unique=True
        )
    )
    lines = ["theory R", "natural", "constants c0 c1 c2 c3"]
    for c in defined:
        lines.append(f"axiom {c} ~ {print_ty(draw(rhs_tys))}")
    return parse_theory("\n".join(lines) + "\n")


@given(natural_theories())
def test_engine_matches_oracle_on_random_theories(t):
    ax = completion(validate_natural(t).axioms)
    engine = check_positive_polarity(ax)
    assert isinstance(engine, PolarityFail) == oracle_is_negative(t)


@given(natural_theories())
def test_class_poset_laws(t):
    po = equivalence_classes(completion(validate_natural(t).axioms))
    n = len(po.classes)
    for i in range(n):
        assert (i, i) in po.order
    for i, j in po.order:
        for jj, k in po.order:
            if j == jj:
                assert (i, k) in po.order
        if (j, i) in po.order:
            assert i == j


@given(natural_theories())
def test_classes_are_mutual_reachability_components(t):
    # equal-closure grouping must coincide with two-way reachability, and
    # the class order must be plain reachability
    ax = completion(validate_natural(t).axioms)
    po = equivalence_classes(ax)
    cl = {c: closure_of(c, ax) for c in ax}
    for c in ax:
        component = frozenset(d for d in ax if d in cl[c] and c in cl[d])
        assert po.classes[po.class_of(c)] == component
        for d in ax:
            assert po.leq(c, d) == (c in cl[d])


@given(natural_theories())
def test_stage_plan_total_iff_polarity_passes(t):
    ax = completion(validate_natural(t).axioms)
    plan = stage_plan(ax)
    if isinstance(check_positive_polarity(ax), PolarityPass):
        assert not isinstance(plan, StagingFailure)
        staged = [c for cls, _ in plan for c in cls]
        assert sorted(staged) == sorted(ax)
        assert len(staged) == len(set(staged))
        solved = set()
        for cls, dec in plan:
            marks = dec.as_dict()
            for c in solved:
                assert marks.get(c, BOTH) == BOTH
            for c in cls:
                assert marks[c] in (PLUS, MINUS, BOTH)
            solved |= cls


@given(natural_theories())
def test_fail_witnesses_always_check_out(t):
    ax = completion(validate_natural(t).axioms)
    r = check_positive_polarity(ax)
    if isinstance(r, PolarityFail):
        g = signed_graph(ax)
        assert all(e in g.edges for e in r.witness)
        for (_, hop, _), (src, _, _) in zip(r.witness, r.witness[1:]):
            assert hop == src
        assert r.witness[0][0] == r.witness[-1][1]
        assert sum(1 for _, _, s in r.witness if s == MINUS) % 2 == 1
