import pytest
from hypothesis import given, strategies as st

from ittlab.errors import ParseError
from ittlab.terms import (
    Abs,
    App,
    FuelExhausted,
    HeadNormal,
    HeadRedex,
    Reached,
    Var,
    alpha_eq,
    classify_shape,
    free_vars,
    head_reduce,
    head_step,
    parse_term,
    print_term,
    substitute,
)

I = parse_term("\\x.x")
OMEGA_FN = parse_term("\\x.x x")
OMEGA = App(OMEGA_FN, OMEGA_FN)


def beta_reducts(t):
    """Every one-step beta reduct of t, contracted in place.  Oracle for head_step."""
    out = []
    if isinstance(t, App):
        if isinstance(t.fun, Abs):
            out.append(substitute(t.fun.body, t.fun.binder, t.arg))
        out.extend(App(f, t.arg) for f in beta_reducts(t.fun))
        out.extend(App(t.fun, a) for a in beta_reducts(t.arg))
    elif isinstance(t, Abs):
        out.extend(Abs(t.binder, b) for b in beta_reducts(t.body))
    return out


names = st.sampled_from(["x", "y", "z", "u", "v", "w", "x'", "y_1"])
terms = st.recursive(
    st.builds(Var, names),
    lambda sub: st.one_of(st.builds(Abs, names, sub), st.builds(App, sub, sub)),
    max_leaves=40,
)


# -- parsing -----------------------------------------------------------------


def test_parse_identity():
    assert parse_term("\\x.x") == Abs("x", Var("x"))


def test_parse_omega():
    w = Abs("x", App(Var("x"), Var("x")))
    assert parse_term("(\\x.x x)(\\x.x x)") == App(w, w)


def test_parse_multi_binder_sugar():
    assert parse_term("\\x y.x") == Abs("x", Abs("y", Var("x")))


def test_parse_application_left_associative():
    assert parse_term("x y z") == App(App(Var("x"), Var("y")), Var("z"))


def test_parse_body_extends_right():
    assert parse_term("\\x.x y") == Abs("x", App(Var("x"), Var("y")))


def test_parse_lambda_as_last_argument():
    assert parse_term("x \\y.y") == App(Var("x"), Abs("y", Var("y")))


def test_parse_rejects_garbage():
    for bad in ["", "(", "\\.x", "\\x x", "x)", "x . y", "λx.x"]:
        with pytest.raises(ParseError):
            parse_term(bad)


def test_parse_freshens_shadowed_binders():
    t = parse_term("\\x.\\x.x")
    assert isinstance(t, Abs) and isinstance(t.body, Abs)
    assert t.binder != t.body.binder
    assert t == Abs("a", Abs("b", Var("b")))


def test_parse_keeps_binders_distinct_from_free_vars():
    t = parse_term("y (\\y.y)")
    assert isinstance(t, App) and isinstance(t.arg, Abs)
    assert t.fun == Var("y")
    assert t.arg.binder != "y"


def test_alpha_equality_and_hash():
    a = parse_term("\\x.x")
    b = parse_term("\\y.y")
    assert a == b and hash(a) == hash(b)
    assert parse_term("\\x y.x") != parse_term("\\x y.y")


@given(terms)
def test_print_parse_round_trip(t):
    assert parse_term(print_term(t)) == t


# -- substitution ------------------------------------------------------------


def test_substitute_variable_hit():
    assert substitute(Var("x"), "x", I) == I


def test_substitute_avoids_capture():
    out = substitute(Abs("y", Var("x")), "x", Var("y"))
    assert isinstance(out, Abs)
    assert out.binder != "y"
    assert out.body == Var("y")
    assert out == parse_term("\\z.y")


def test_substitute_builds_omega():
    assert substitute(App(Var("x"), Var("x")), "x", OMEGA_FN) == OMEGA


@given(terms, names, terms)
def test_substitute_free_variable_equation(m, x, n):
    out = substitute(m, x, n)
    expect = free_vars(m) - {x}
    if x in free_vars(m):
        expect |= free_vars(n)
    assert free_vars(out) == expect


@given(terms, names, terms)
def test_substitute_respects_alpha(m, x, n):
    m2 = parse_term(print_term(m))  # alpha-variant with freshened binders
    assert alpha_eq(substitute(m, x, n), substitute(m2, x, n))


# -- shapes and head reduction -----------------------------------------------


def test_shape_head_normal_with_args():
    t = parse_term("\\x.x ((\\x.x x)(\\x.x x))")
    s = classify_shape(t)
    assert isinstance(s, HeadNormal)
    assert s.binders == (t.binder,)
    assert s.head == t.binder
    assert s.args == (OMEGA,)


def test_shape_bare_redex():
    s = classify_shape(parse_term("(\\x.x) y"))
    assert isinstance(s, HeadRedex)
    assert s.binders == ()
    assert s.redex_fun_body == Var(s.redex_fun_binder)
    assert s.redex_arg == Var("y")
    assert s.args == ()


def test_shape_redex_under_binder_with_trailing_args():
    s = classify_shape(parse_term("\\z.(\\x.x) y z"))
    assert isinstance(s, HeadRedex)
    assert s.binders == ("z",)
    assert s.redex_arg == Var("y")
    assert s.args == (Var("z"),)


@given(terms)
def test_shape_total_and_unique(t):
    s = classify_shape(t)
    assert isinstance(s, (HeadNormal, HeadRedex))


@given(terms)
def test_hnf_has_no_head_step(t):
    if isinstance(classify_shape(t), HeadNormal):
        assert head_step(t) is None
    else:
        assert head_step(t) is not None


@given(terms)
def test_head_step_is_a_beta_reduct(t):
    nxt = head_step(t)
    if nxt is not None:
        assert any(alpha_eq(nxt, r) for r in beta_reducts(t))


def test_head_step_examples():
    assert head_step(parse_term("(\\x.x) y")) == Var("y")
    assert head_step(OMEGA) == OMEGA
    assert head_step(parse_term("\\x.x y")) is None


def test_head_reduce_omega_exhausts():
    assert head_reduce(OMEGA, 10) == FuelExhausted(OMEGA, 10)


def test_head_reduce_single_step():
    out = head_reduce(parse_term("(\\x.x) y"), 10)
    assert out == Reached(Var("y"), 1)


def test_head_reduce_zero_fuel():
    assert head_reduce(Var("x"), 0) == Reached(Var("x"), 0)
    out = head_reduce(OMEGA, 0)
    assert isinstance(out, FuelExhausted) and out.last == OMEGA


def test_head_reduce_omega2omega2_loops():
    # \x.x x applied to itself is alpha-identical to the usual divergent term.
    t = App(parse_term("\\x.x x"), parse_term("\\x.x x"))
    out = head_reduce(t, 1000)
    assert isinstance(out, FuelExhausted)


def test_head_reduce_rejects_negative_fuel():
    with pytest.raises(ValueError):
        head_reduce(Var("x"), -1)


@given(terms, st.integers(min_value=0, max_value=30))
def test_head_reduce_reached_is_hnf(t, fuel):
    out = head_reduce(t, fuel)
    if isinstance(out, Reached):
        assert isinstance(classify_shape(out.hnf), HeadNormal)
        assert out.steps <= fuel
        assert head_step(out.hnf) is None
    else:
        assert isinstance(out, FuelExhausted)


def test_print_term_long_spine_is_iterative():
    t = Var("f")
    for _ in range(5000):
        t = App(t, Var("x"))
    assert print_term(t) == "f" + " x" * 5000


def test_solvable_probe_omega_unknown():
    # Solvability of Omega stays unknown at any fuel: head reduction exhausts.
    assert head_reduce(OMEGA, 100) == FuelExhausted(OMEGA, 100)


def test_head_reduce_identity_is_already_hnf():
    assert head_reduce(I, 1) == Reached(I, 0)


def test_head_reduce_hnf_with_diverging_argument():
    t = parse_term("\\x.x ((\\x.x x)(\\x.x x))")
    assert head_reduce(t, 1) == Reached(t, 0)


# -- the cycle shortcut in head_reduce against plain stepping -------------------


def plain_head_reduce(m, fuel):
    """Reference for head_reduce: one head_step per unit of fuel, no shortcut.
    Returns the printed outcome, so binder names count."""
    steps = 0
    while True:
        nxt = head_step(m)
        if nxt is None:
            return "Reached", print_term(m), steps
        if steps == fuel:
            return "FuelExhausted", print_term(m), fuel
        m, steps = nxt, steps + 1


def printed(out):
    if isinstance(out, Reached):
        return "Reached", print_term(out.hnf), out.steps
    return "FuelExhausted", print_term(out.last), out.steps


OMEGA_SRC = r"(\x. x x) (\x. x x)"
PERIOD_TWO_SRC = r"(\x. (\y. x x) z) (\x. (\y. x x) z)"
CYCLE_FUELS = (0, 1, 2, 3, 7, 10_000)


@pytest.mark.parametrize(
    "src, fuel",
    [(s, f) for s in (OMEGA_SRC, rf"({OMEGA_SRC}) (\y. y)", PERIOD_TWO_SRC) for f in CYCLE_FUELS]
    + [(r"(\x. x x x) (\x. x x x)", f) for f in (0, 1, 2, 3, 7, 200)],
)
def test_head_reduce_matches_plain_stepping(src, fuel):
    m = parse_term(src)
    assert printed(head_reduce(m, fuel)) == plain_head_reduce(m, fuel)


def test_period_two_term_repeats_by_alpha_before_by_name():
    # Step 2 is alpha-equal to step 0 but renames x to x_1, so a shortcut
    # that detected cycles by == would print the wrong last term.
    m0 = parse_term(PERIOD_TWO_SRC)
    m2 = head_step(head_step(m0))
    assert m2 == m0 and print_term(m2) != print_term(m0)
    assert printed(head_reduce(m0, 3)) == plain_head_reduce(m0, 3)


@given(terms, st.integers(min_value=0, max_value=30))
def test_head_reduce_matches_plain_stepping_on_random_terms(t, fuel):
    assert printed(head_reduce(t, fuel)) == plain_head_reduce(t, fuel)
