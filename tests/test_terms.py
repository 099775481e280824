import pytest
from hypothesis import given, settings, strategies as st

from ittlab.errors import ParseError
from ittlab.terms import (
    Abs,
    App,
    FuelExhausted,
    HeadNormal,
    HeadRedex,
    Reached,
    Var,
    _same,
    alpha_eq,
    classify_shape,
    fresh_name,
    free_vars,
    freshen,
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


# -- alpha-equality against a reference skeleton --------------------------------


def reference_skeleton(t, env=None, depth=0):
    """De Bruijn skeleton of t, rebuilt from scratch on every call: bound
    variables by their distance to their binder, free ones by name.  Oracle
    for the memoised skeletons behind == and hash."""
    env = env or {}
    match t:
        case Var(name):
            return ("b", depth - env[name]) if name in env else ("f", name)
        case Abs(binder, body):
            return ("l", reference_skeleton(body, {**env, binder: depth + 1}, depth + 1))
        case App(fun, arg):
            return ("a", reference_skeleton(fun, env, depth), reference_skeleton(arg, env, depth))


def binders(t):
    """Every binder name of t, with repeats."""
    match t:
        case Var(_):
            return []
        case Abs(binder, body):
            return [binder, *binders(body)]
        case App(fun, arg):
            return binders(fun) + binders(arg)


def subterm_list(t):
    """Every proper subterm of t, with repeats."""
    match t:
        case Var(_):
            return []
        case Abs(_, body):
            return [body, *subterm_list(body)]
        case App(fun, arg):
            return [fun, arg, *subterm_list(fun), *subterm_list(arg)]


def rename_binders(t, draw):
    """An alpha-variant of t: each binder x becomes a drawn name y that is
    not free in its body, the body rewritten by substitute.  y may shadow an
    outer binder or equal a free name of the whole term."""
    match t:
        case Var(_):
            return t
        case Abs(x, body):
            body = rename_binders(body, draw)
            y = draw(names.filter(lambda y: y == x or y not in free_vars(body)))
            return Abs(y, substitute(body, x, Var(y)))
        case App(fun, arg):
            return App(rename_binders(fun, draw), rename_binders(arg, draw))


def rebind(t, draw):
    """t with some binders renamed and their bodies left alone, so that
    occurrences may change binder, be captured or come free."""
    match t:
        case Var(_):
            return t
        case Abs(x, body):
            return Abs(draw(names) if draw(st.booleans()) else x, rebind(body, draw))
        case App(fun, arg):
            return App(rebind(fun, draw), rebind(arg, draw))


def variant(t, data):
    """An alpha-variant of t, or a term that differs from it in one free
    name, in its binding structure or in its shape."""
    how = data.draw(st.sampled_from(["freshen", "rename", "free", "rebind", "other"]))
    if how == "freshen":
        avoid = data.draw(st.sets(names, max_size=4))
        return freshen(t, avoid)
    if how == "rename":
        return rename_binders(t, data.draw)
    if how == "free":
        x = data.draw(names)
        return substitute(t, x, Var(data.draw(names)))
    if how == "rebind":
        return rebind(t, data.draw)
    return data.draw(terms)


X, Y, Z = Var("x"), Var("y"), Var("z")


@pytest.mark.parametrize(
    "a, b, same",
    [
        (Abs("x", Abs("x", X)), Abs("y", Abs("z", Z)), True),
        (Abs("x", Abs("x", X)), Abs("x", Abs("y", X)), False),
        (Abs("x", App(X, Abs("x", X))), Abs("y", App(Y, Abs("z", Z))), True),
        (Abs("x", App(X, Abs("x", X))), Abs("y", App(Y, Abs("z", Y))), False),
        (Abs("x", Y), Abs("y", Y), False),
        (App(X, Y), App(Y, X), False),
        (Abs("x", X), X, False),
    ],
)
def test_alpha_equality_examples(a, b, same):
    assert (a == b) == same == (reference_skeleton(a) == reference_skeleton(b))
    assert not same or hash(a) == hash(b)


@given(terms, st.data())
def test_alpha_equality_matches_the_reference_skeleton(t, data):
    # t == u fills both terms' memos from the top; the subterms then compare
    # through the memos filled for them
    u = variant(t, data)
    left = [(a, reference_skeleton(a)) for a in (t, *subterm_list(t))]
    right = [(b, reference_skeleton(b)) for b in (u, *subterm_list(u))]
    for a, ra in left:
        for b, rb in right:
            assert (a == b) == (b == a) == (ra == rb)
            assert ra != rb or hash(a) == hash(b)


def test_skeletons_with_equal_hashes_still_compare_their_nodes():
    # a hash collision must not make two different skeletons equal
    assert not _same((7, "x", "y"), (7, "x", "z"))
    assert not _same((7, (3, 0)), (7, (3, 1)))
    assert not _same((7, "x"), (7, "x", "x"))
    assert _same((7, (3, 0), "y"), (7, (3, 0), "y"))


@given(terms)
def test_freshen_returns_a_fresh_term_itself(t):
    bs = binders(t)
    if len(set(bs)) == len(bs) and not set(bs) & free_vars(t):
        assert freshen(t) is t
    fresh = parse_term(print_term(t))
    assert freshen(fresh) is fresh


def test_deep_spine_memos_fill_without_recursion():
    def spine(x):
        m = Var("f")
        for _ in range(20_000):
            m = App(m, Var(x))
        return m

    m = spine("x")
    assert isinstance(hash(m), int)
    assert free_vars(m) == {"f", "x"}
    assert m == m
    # a separate copy compares node by node, and a binder over the spine
    # closes the whole path to its occurrences
    assert m == spine("x") and m != spine("y")
    assert Abs("x", m) == Abs("y", spine("y"))
    assert hash(Abs("x", m)) == hash(Abs("y", spine("y")))


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


def reference_names(t):
    match t:
        case Var(name):
            return {name}
        case Abs(binder, body):
            return {binder} | reference_names(body)
        case App(fun, arg):
            return reference_names(fun) | reference_names(arg)


def reference_rename_free(t, old, new):
    if old not in free_vars(t):
        return t
    match t:
        case Var(_):
            return Var(new)
        case Abs(binder, body):
            return Abs(binder, reference_rename_free(body, old, new))
        case App(fun, arg):
            return App(reference_rename_free(fun, old, new), reference_rename_free(arg, old, new))


def reference_substitute(m, x, n):
    """Capture-avoiding M[x:=N] by a plain recursive walk: the binders that
    capture a free name of N are renamed in preorder, function before
    argument, each to the first fresh_name outside every name of M and N
    and every name given before, its body renamed before it is walked."""
    if x not in free_vars(m):
        return m
    avoid = reference_names(m) | reference_names(n)

    def go(t):
        if x not in free_vars(t):
            return t
        match t:
            case Var(_):
                return n
            case Abs(binder, body):
                if binder in free_vars(n):
                    new = fresh_name(binder, avoid)
                    avoid.add(new)
                    return Abs(new, go(reference_rename_free(body, binder, new)))
                return Abs(binder, go(body))
            case App(fun, arg):
                return App(go(fun), go(arg))

    return go(m)


def ap(*ts):
    out = ts[0]
    for t in ts[1:]:
        out = App(out, t)
    return out


X, Y, Y1 = Var("x"), Var("y"), Var("y_1")


# built by the constructors, so binders may shadow and meet free names
@pytest.mark.parametrize(
    "m, n, text",
    [
        (Abs("y", ap(X, Y)), Y, r"\y_1.y y_1"),
        (Abs("y", Abs("y", ap(X, Y))), Y, r"\y_1 y_2.y y_2"),
        (Abs("y", ap(X, Y1)), ap(Y, Y1), r"\y_2.y y_1 y_1"),
        (ap(Abs("y", ap(X, Y)), Abs("y", ap(X, Y))), Y, r"(\y_1.y y_1) (\y_2.y y_2)"),
        (Abs("y", ap(Y, Abs("y", ap(X, Y)))), Y, r"\y_1.y_1 (\y_2.y y_2)"),
        (Abs("y", ap(X, Abs("y", ap(X, Y)), Y)), Y, r"\y_1.y (\y_2.y y_2) y_1"),
        (Abs("y_1", Abs("y", ap(X, Y, Y1))), ap(Y, Y1), r"\y_2 y_3.y y_1 y_3 y_2"),
        (Abs("y", Abs("x", ap(X, Y))), Y, r"\y x.x y"),
        (ap(X, Abs("x", X)), Y, r"y (\x.x)"),
    ],
)
def test_substitute_renames_capturing_binders_as_the_reference(m, n, text):
    out = substitute(m, "x", n)
    assert print_term(out) == text
    assert repr(out) == repr(reference_substitute(m, "x", n))


# over three names, so that binders often capture a free name of n
few_names = st.sampled_from(["x", "y", "z"])
crowded_terms = st.recursive(
    st.builds(Var, few_names),
    lambda sub: st.one_of(st.builds(Abs, few_names, sub), st.builds(App, sub, sub)),
    max_leaves=20,
)


@settings(max_examples=300)
@given(crowded_terms, few_names, crowded_terms)
def test_substitute_matches_the_recursive_reference(m, x, n):
    # the same term by name, not only up to alpha: every fresh name agrees
    assert repr(substitute(m, x, n)) == repr(reference_substitute(m, x, n))


def test_deep_argument_substitutes_and_prints_without_recursion():
    m = Var("x")
    for _ in range(20_000):
        m = App(Var("f"), m)
    out = substitute(Abs("y", App(Var("z"), m)), "z", Var("y"))
    assert isinstance(out, Abs) and out.binder == "y_1"
    text = print_term(out)
    assert text.startswith("\\y_1.y (f (f (f ") and text.count("(") == 20_000
    assert free_vars(substitute(m, "x", Var("y"))) == {"f", "y"}


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


def test_flat_spine_parses_without_recursion():
    # a spine is not nested, however long; its head's binder collides with
    # the free x and is renamed
    m = parse_term(r"(\x.x)" + " x" * 20_000)
    n = 0
    while isinstance(m, App):
        assert m.arg == Var("x")
        m, n = m.fun, n + 1
    assert n == 20_000
    assert m == I and m.binder == "x_1"


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
