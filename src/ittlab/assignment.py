"""Type assignment: bounded derivation search, the admissible
transformations, and subject expansion.

Rules: Ax, TopU (every term gets U), ArrI, ArrE, CapI, Le (subsumption via a
subtyping certificate).  Derivations and their checker live in kernel; this
module re-exports Basis, Judgment, Derivation and check_derivation.  The
transformations never search.  infer_bounded is the only searcher and is
honest about its bounds: Found carries a checkable derivation,
NotFoundWithinFuel asserts nothing.

The search is tabled: a goal's answer is stored, and a goal asked again
while it is still being searched is cut off, answering None on that path.
A None that leaned on such a cut-off is settled as a strongly connected
component completes (Tarjan 1972; Chen and Warren, tabled resolution, 1996):
it is stored once every running goal it leaned on has answered None, and
dropped, to be expanded again when asked, when one of them is Found.  The
Nones so stored form an unfounded set, so expanding one again could only
answer None: no refuted goal is expanded twice, and the Found derivations
are exactly those of a search that expands such goals again (see _Search).
"""

from __future__ import annotations

from typing import Callable

from .errors import InvalidInput
from .kernel import (
    Basis,
    Derivation,
    Judgment,
    SubProof,
    Valid,
    check_derivation,
)
from .records import Record
from .subtyping import DEFAULT_WIDTH, Proven, bits, context_for, derive_le
from .terms import (
    Abs,
    App,
    Term,
    Var,
    free_vars,
    fresh_name,
    freshen,
    head_step,
    substitute,
)
from .theory import TheorySpec
from .types import (
    TOP,
    Arrow,
    Inter,
    Ty,
    canonicalize,
    inter_parts,
    make_inter,
    print_ty,
    ty_key,
)

DEFAULT_FUEL = 10_000


# -- bounded goal-directed search ---------------------------------------------


class Found(Record):
    derivation: Derivation


class NotFoundWithinFuel(Record):
    fuel: int


class _FuelOut(Exception):
    pass


class _Search:
    """One bounded search.  A goal g |- m : a is keyed by three ints: the
    search's id for g, its id for m's alpha-class, and the identity of a,
    which is hash-consed and canonical (every goal type is a universe
    member, so the relation is read by a's member id, never through
    holds).  Each basis and term object is hashed once, when the search
    first meets it, and is kept alive so that its id stays its own; a term's
    hash is memoised on it, so an alpha-class costs one lookup.

    Cycles are settled by SCC completion.  While a goal runs, its table
    entry is its depth on the search stack.  Asking a running goal is a
    cut-off: it answers None and lowers low, the shallowest running depth
    that a cut-off below the current goal reached.  When a goal finishes:

    - Found is stored, and the Nones waiting in pending below it are
      dropped unstored, since they may have leaned on it;
    - a None whose own low is not above its own depth is final: it is
      stored, and so is every None waiting in pending below it;
    - any other None joins pending unstored and passes its low up.

    This is exact.  The stored Nones form an unfounded set: each candidate
    of each has a premise that is a stored None or another member, so none
    of them has a derivation.  A search that never stores a None that
    leaned on a cut-off expands such a goal again each time it is asked;
    there it answers None and stores nothing new.  This search's expansions
    are therefore a subsequence of that search's, every Found derivation is
    the same, byte for byte, and an answer can differ only where that
    search runs out of fuel, from its NotFoundWithinFuel to Found."""

    def __init__(self, ctx, fuel: int):
        self.ctx = ctx
        self.fuel = fuel
        self.top = ctx.idx[TOP]
        # goal key -> its derivation, None when it has none, its stack depth
        # (an int) while it is being searched
        self.table: dict[tuple[int, int, int], object] = {}
        # the depth of the next goal expanded; the shallowest running depth
        # that a cut-off below the current goal reached; and the keys of the
        # Nones that leaned on a running goal, waiting for it to finish
        self.depth = 0
        self.low = 0
        self.pending: list[tuple[int, int, int]] = []
        # id(basis or term) -> the id of its class: equal bases, and
        # alpha-equal terms, share one
        self.ids: dict[int, int] = {}
        self.classes: dict[object, int] = {}
        self.alive: list = []
        # (basis id, binder, id(domain)) -> the extended basis, built once
        self.bases: dict[tuple[int, str, int], Basis] = {}
        # work counters: goals expanded (one fuel each), goals answered from
        # the table, and goals cut off because they were already in progress
        self.expanded = 0
        self.hits = 0
        self.cycle_events = 0

    def _class_id(self, obj: Basis | Term) -> int:
        k = self.classes.setdefault(obj, len(self.classes))
        self.ids[id(obj)] = k
        self.alive.append(obj)
        return k

    def _le_wrap(self, d: Derivation, a: Ty) -> Derivation:
        """Subsume d's type up to a (both canonical) when they differ."""
        b = canonicalize(d.conclusion.ty)
        if b == a:
            return d
        sub = self.ctx.proof(b, a)
        concl = Judgment(d.conclusion.basis, d.conclusion.term, a)
        return Derivation("Le", concl, (d,), sub)

    def goal(self, g: Basis, m: Term, a: Ty) -> Derivation | None:
        """A derivation of g |- m : a, for a canonical a, or None."""
        ids = self.ids
        gi = ids.get(id(g))
        if gi is None:
            gi = self._class_id(g)
        mi = ids.get(id(m))
        if mi is None:
            mi = self._class_id(m)
        key = (gi, mi, id(a))
        table = self.table
        d = table.get(key, table)
        if d is not table:
            if d.__class__ is int:  # running: cut the cycle off
                self.cycle_events += 1
                if d < self.low:
                    self.low = d
                return None
            self.hits += 1
            return d
        if self.fuel <= 0:
            raise _FuelOut
        self.fuel -= 1
        self.expanded += 1
        depth, low, pending = self.depth, self.low, self.pending
        mark = len(pending)
        table[key] = self.low = depth  # an exception ends the whole search
        self.depth = depth + 1
        d = self._solve(g, m, a)
        self.depth = depth
        if d is not None:
            # the Nones waiting below may have leaned on this goal
            table[key] = d
            del pending[mark:]
        elif self.low >= depth:
            # no cut-off reached above this goal: it and the Nones waiting
            # below it are final
            table[key] = None
            for k in pending[mark:]:
                table[k] = None
            del pending[mark:]
        else:
            del table[key]
            pending.append(key)
            low = min(low, self.low)
        self.low = low
        return d

    def _solve(self, g: Basis, m: Term, a: Ty) -> Derivation | None:
        ctx = self.ctx
        if a == TOP:
            return Derivation("TopU", Judgment(g, m, TOP))
        # the members below a, read off the relation by a's id
        below_a = ctx.pred[ctx.idx[a]]
        if below_a >> self.top & 1:
            top = Derivation("TopU", Judgment(g, m, TOP))
            return self._le_wrap(top, a)
        if isinstance(a, Inter) and isinstance(m, (Abs, App)):
            parts = inter_parts(a)
            acc = self.goal(g, m, parts[0])
            if acc is not None:
                for p in parts[1:]:
                    nxt = self.goal(g, m, p)
                    if nxt is None:
                        acc = None
                        break
                    joined = canonicalize(Inter(acc.conclusion.ty, p))
                    acc = Derivation("CapI", Judgment(g, m, joined), (acc, nxt))
                if acc is not None:
                    return acc
        if isinstance(m, Var):
            bound = g.get(m.name)
            i = ctx.idx.get(bound)
            if i is None or not below_a >> i & 1:
                return None
            ax = Derivation("Ax", Judgment(g, m, canonicalize(bound)))
            return self._le_wrap(ax, a)
        if isinstance(m, App):
            return self._solve_app(g, m, a, below_a)
        if isinstance(m, Abs):
            return self._solve_abs(g, m, a, below_a)
        return None

    def _solve_app(
        self, g: Basis, m: App, a: Ty, below_a: int
    ) -> Derivation | None:
        ctx = self.ctx
        ms = ctx.members
        # the arrows whose codomain is below a, in id (= ty_key) order
        singles = 0
        for c, fs in ctx.arrows_to.items():
            if below_a >> c & 1:
                singles |= fs
        for i in bits(singles):
            f = ms[i]
            df = self.goal(g, m.fun, f)
            if df is None:
                continue
            dx = self.goal(g, m.arg, f.dom)
            if dx is None:
                continue
            app = Derivation("ArrE", Judgment(g, m, f.cod), (df, dx))
            return self._le_wrap(app, a)
        # pair fallback: a common-domain pair of arrows whose &-codomain fits,
        # usable when the &-arrow itself is a universe member (ArrowCap wraps it)
        for i1, i2, meet, joined in ctx.arrow_pairs:
            if joined is None or not below_a >> ctx.cod[joined] & 1:
                continue
            f1, f2, meet_ty, joined_ty = ms[i1], ms[i2], ms[meet], ms[joined]
            d1 = self.goal(g, m.fun, f1)
            if d1 is None:
                continue
            d2 = self.goal(g, m.fun, f2)
            if d2 is None:
                continue
            cap = Derivation("CapI", Judgment(g, m.fun, meet_ty), (d1, d2))
            fn = Derivation(
                "Le",
                Judgment(g, m.fun, joined_ty),
                (cap,),
                ctx.proof(meet_ty, joined_ty),
            )
            dx = self.goal(g, m.arg, f1.dom)
            if dx is None:
                continue
            app = Derivation("ArrE", Judgment(g, m, joined_ty.cod), (fn, dx))
            return self._le_wrap(app, a)
        return None

    def _solve_abs(
        self, g: Basis, m: Abs, a: Ty, below_a: int
    ) -> Derivation | None:
        ctx = self.ctx
        ms = ctx.members
        x, body = m.binder, m.body
        if g.get(x) is not None:
            nx = fresh_name(x, set(g.names()) | free_vars(body))
            body = substitute(body, x, Var(nx))
            x = nx
            m = Abs(x, body)
        gi, bases = self.ids[id(g)], self.bases
        for i in bits(below_a & ctx.arrow_mask):
            f = ms[i]
            bkey = (gi, x, id(f.dom))
            inner = bases.get(bkey)
            if inner is None:
                inner = bases[bkey] = g.extend(x, f.dom)
            db = self.goal(inner, body, f.cod)
            if db is None:
                continue
            arr = Derivation("ArrI", Judgment(g, m, f), (db,))
            return self._le_wrap(arr, a)
        # pair fallback: an & of two arrows sitting below the target
        for i1, i2, meet, _ in ctx.arrow_pairs:
            if not below_a >> meet & 1:
                continue
            d1 = self.goal(g, m, ms[i1])
            if d1 is None:
                continue
            d2 = self.goal(g, m, ms[i2])
            if d2 is None:
                continue
            cap = Derivation("CapI", Judgment(g, m, ms[meet]), (d1, d2))
            return self._le_wrap(cap, a)
        return None


def infer_bounded(
    t: TheorySpec,
    g: Basis,
    m: Term,
    target: Ty,
    fuel: int = DEFAULT_FUEL,
    inter_width: int = DEFAULT_WIDTH,
) -> Found | NotFoundWithinFuel:
    """Goal-directed, memoised, fuel-bounded search for g |- m : target.

    Arrow candidates come from the universe seeded by the target, the basis
    types and the axiom sides; Found derivations always re-check Valid.
    """
    if fuel < 0:
        raise InvalidInput("fuel must be nonnegative")
    ctx = context_for(t, (target, *g.types()), inter_width)
    search = _Search(ctx, fuel)
    try:
        d = search.goal(g, m, canonicalize(target))
    except _FuelOut:
        return NotFoundWithinFuel(fuel)
    if d is None:
        return NotFoundWithinFuel(fuel)
    return Found(d)


def subject_reduction_probe(
    t: TheorySpec,
    d: Derivation,
    fuel: int = DEFAULT_FUEL,
) -> Found | NotFoundWithinFuel:
    """Contract the head redex of d's subject and re-search the same judgment."""
    ok = check_derivation(t, d)
    if ok != Valid():
        raise InvalidInput(f"derivation invalid: {ok.reason}")
    reduct = head_step(d.conclusion.term)
    if reduct is None:
        raise InvalidInput("subject has no head redex")
    return infer_bounded(t, d.conclusion.basis, reduct, d.conclusion.ty, fuel)


# -- admissible transformations -------------------------------------------------

Leaf = Callable[[Derivation, Term, Basis], Derivation | None]


def _rebuild(
    d: Derivation, subject: Term | None, basis: Basis, leaf: Leaf | None = None
) -> Derivation:
    """Rebuild d over basis: each node concludes basis |- subject : (its own
    type), the subject walked in step with d, or each node's own when None.

    ArrI extends basis by the subject's binder at the arrow's domain, ArrE
    splits the subject into function and argument, the other rules keep it.
    leaf(node, subject, basis) may return a replacement for the subtree at
    node.  None keeps every binder name of d: the search shares one
    subderivation between alpha-equal subterms whose binders differ."""
    m = d.conclusion.term if subject is None else subject
    if leaf is not None and (out := leaf(d, m, basis)) is not None:
        return out
    inner = basis
    if d.rule == "ArrI":
        if not isinstance(m, Abs):
            raise InvalidInput("ArrI node does not match an abstraction")
        inner = basis.extend(m.binder, canonicalize(d.conclusion.ty).dom)
        parts: tuple[Term, ...] = (m.body,)
    elif d.rule == "ArrE":
        if not isinstance(m, App):
            raise InvalidInput("ArrE node does not match an application")
        parts = (m.fun, m.arg)
    else:  # CapI and Le keep the subject
        parts = (m,) * len(d.children)
    kids = tuple(
        _rebuild(ch, None if subject is None else p, inner, leaf)
        for ch, p in zip(d.children, parts)
    )
    return Derivation(d.rule, Judgment(basis, m, d.conclusion.ty), kids, d.sub)


def weaken(t: TheorySpec, d: Derivation, x: str, b: Ty) -> Derivation:
    """Admissible weakening: insert an unused binding x:b everywhere."""
    out = _rebuild(d, None, d.conclusion.basis.extend(x, b))
    ok = check_derivation(t, out)
    if ok != Valid():
        raise InvalidInput(f"weakening broke the derivation: {ok.reason}")
    return out


def le_left(t: TheorySpec, d: Derivation, x: str, b_new: Ty) -> Derivation:
    """Admissible (<=-L): replace x's binding by a smaller type b_new."""
    b_old = d.conclusion.basis.get(x)
    if b_old is None:
        raise InvalidInput(f"{x!r} not bound at the root")
    verdict = derive_le(t, b_new, b_old)
    if not isinstance(verdict, Proven):
        raise InvalidInput(
            f"{print_ty(b_new)} <= {print_ty(b_old)} not derivable within bounds"
        )
    b_new = canonicalize(b_new)

    def leaf(node: Derivation, subject: Term, basis: Basis) -> Derivation | None:
        if node.rule != "Ax" or subject != Var(x):
            return None
        ax = Derivation("Ax", Judgment(basis, subject, b_new))
        if b_new == b_old:
            return ax
        concl = Judgment(basis, subject, node.conclusion.ty)
        return Derivation("Le", concl, (ax,), verdict.proof)

    root_basis = d.conclusion.basis.without(x).extend(x, b_new)
    out = _rebuild(d, None, root_basis, leaf)
    ok = check_derivation(t, out)
    if ok != Valid():
        raise InvalidInput(f"(<=-L) broke the derivation: {ok.reason}")
    return out


# -- subject expansion ----------------------------------------------------------


def expand_derivation(
    t: TheorySpec, d: Derivation, x: str, m: Term, n: Term
) -> Derivation:
    """From a derivation of G |- m[x:=n] : A build one of G |- (\\x.m) n : A.

    The occurrences of n in the subject are retyped as the variable x at the
    & of their types (U when x never occurs), the abstraction is introduced,
    and n is typed once per distinct occurrence type, joined by CapI.
    """
    ok = check_derivation(t, d)
    if ok != Valid():
        raise InvalidInput(f"derivation invalid: {ok.reason}")
    g = d.conclusion.basis
    if x in g.names():
        # the new binder would shadow a basis variable; the rebuilt basis
        # g + x must stay well formed, so rename (result is alpha-equal)
        x2 = fresh_name(x, set(g.names()) | free_vars(m) | free_vars(n))
        m = substitute(m, x, Var(x2))
        x = x2
    m = freshen(m, avoid={x} | free_vars(n) | set(g.names()) | free_vars(m))
    # n is retyped under g, so its binders must not shadow g's names or
    # each other (the result is alpha-equal)
    n = freshen(n, avoid=set(g.names()))
    if d.conclusion.term != substitute(m, x, n):
        raise InvalidInput("derivation subject is not m[x:=n]")

    occs: list[Derivation] = []

    def collect(node: Derivation, subject: Term, basis: Basis) -> Derivation | None:
        if subject != Var(x):
            return None
        occs.append(node)
        return node

    _rebuild(d, m, g, collect)

    by_ty: dict[Ty, Derivation] = {}
    for o in occs:
        by_ty.setdefault(canonicalize(o.conclusion.ty), o)
    if len(by_ty) > 1:
        by_ty.pop(TOP, None)  # a U-typed occurrence adds nothing to the &
    tys = sorted(by_ty, key=ty_key)
    x_ty = canonicalize(make_inter(tys)) if tys else TOP
    x_parts = inter_parts(x_ty)

    def project(node: Derivation, subject: Term, basis: Basis) -> Derivation | None:
        """Type an occurrence of x at its occurrence's type, from x : x_ty."""
        if subject != Var(x):
            return None
        want = canonicalize(node.conclusion.ty)
        if want == TOP and x_ty != TOP:
            return Derivation("TopU", Judgment(basis, subject, TOP))
        ax = Derivation("Ax", Judgment(basis, subject, x_ty))
        if want == x_ty:
            return ax
        # want's &-parts are &-parts of x_ty: one Inc step each, joined by Glb
        # when want is itself an intersection
        wanted = inter_parts(want)
        incs = tuple(
            SubProof("IncL" if p is x_parts[0] else "IncR", (x_ty, p)) for p in wanted
        )
        sub = incs[0] if len(incs) == 1 else SubProof("Glb", (x_ty, want), incs)
        return Derivation("Le", Judgment(basis, subject, want), (ax,), sub)

    a = canonicalize(d.conclusion.ty)
    body = _rebuild(d, m, g.extend(x, x_ty), project)
    lam = Derivation("ArrI", Judgment(g, Abs(x, m), Arrow(x_ty, a)), (body,))

    if not tys:
        arg: Derivation = Derivation("TopU", Judgment(g, n, TOP))
    else:
        ds = [_rebuild(by_ty[ty], n, g) for ty in tys]
        arg = ds[0]
        for nxt in ds[1:]:
            joined = canonicalize(Inter(arg.conclusion.ty, nxt.conclusion.ty))
            arg = Derivation("CapI", Judgment(g, n, joined), (arg, nxt))

    out = Derivation("ArrE", Judgment(g, App(Abs(x, m), n), a), (lam, arg))
    final = check_derivation(t, out)
    if final != Valid():
        raise InvalidInput(f"expansion produced an invalid derivation: {final.reason}")
    return out
