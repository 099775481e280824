"""Finite filter representations and a bounded term interpretation.

A filter is represented by its generators inside a fixed universe; membership
means some finite & of generators provably sits below the candidate.  All
operations under-approximate the unbounded notions: absent members prove
nothing, present members are always backed by saturated subtyping facts or
checkable derivations.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import InvalidInput
from .subtyping import (
    DEFAULT_WIDTH,
    SubtypeCtx,
    Universe,
    build_universe,
    saturated_ctx,
)
from .terms import Term, free_vars
from .theory import TheorySpec
from .types import TOP, Arrow, Ty, canonicalize, make_inter, ty_key


@dataclass(frozen=True)
class FilterRep:
    """Upward closure (within universe, under <= and finite &) of generators."""

    universe: Universe
    generators: frozenset[Ty]

    def __post_init__(self):
        object.__setattr__(
            self, "generators", frozenset(canonicalize(g) for g in self.generators)
        )


_SUBSET_LIMIT = 12  # generators beyond this would make subset meets explode


def _gen_meets(ctx: SubtypeCtx, gens: frozenset[Ty]) -> list[Ty]:
    """Canonical meets of generator subsets that exist in the universe."""
    ordered = sorted(gens, key=ty_key)[:_SUBSET_LIMIT]
    meets = {TOP}
    for k in range(1, len(ordered) + 1):
        for combo in combinations(ordered, k):
            meet = canonicalize(make_inter(combo))
            if meet in ctx.universe.members:
                meets.add(meet)
    return sorted(meets, key=ty_key)


def filter_contains(t: TheorySpec, f: FilterRep, a: Ty) -> bool:
    a = canonicalize(a)
    if a not in f.universe.members:
        return False
    ctx = saturated_ctx(t, f.universe)
    return any(ctx.holds(meet, a) for meet in _gen_meets(ctx, f.generators))


def filter_members(t: TheorySpec, f: FilterRep) -> frozenset[Ty]:
    ctx = saturated_ctx(t, f.universe)
    meets = _gen_meets(ctx, f.generators)
    return frozenset(
        a for a in f.universe.members if any(ctx.holds(m, a) for m in meets)
    )


def filter_up(t: TheorySpec, u: Universe, xs) -> FilterRep:
    """The least filter within u containing xs, with redundant generators dropped."""
    gens = {canonicalize(x) for x in xs}
    outside = gens - u.members
    if outside:
        raise InvalidInput("generators must be universe members")
    gens.discard(TOP)
    kept = sorted(gens, key=ty_key)
    for g in list(kept):
        rest = frozenset(x for x in kept if x != g)
        if filter_contains(t, FilterRep(u, rest), g):
            kept.remove(g)
    return FilterRep(u, frozenset(kept))


def filter_apply(t: TheorySpec, f: FilterRep, g: FilterRep) -> FilterRep:
    """Application of filters: results of f's arrows at arguments from g."""
    if f.universe != g.universe:
        raise InvalidInput("filters must share a universe")
    u = f.universe
    g_members = filter_members(t, g)
    f_members = filter_members(t, f)
    raw = {
        arr.cod
        for arr in u.members
        if isinstance(arr, Arrow) and arr.dom in g_members and arr in f_members
    }
    return filter_up(t, u, raw)


_BASIS_BUDGET = 64  # cap on candidate bases tried per universe member


def _basis_candidates(ctx: SubtypeCtx, f: FilterRep) -> list[Ty]:
    gens = sorted(f.generators, key=ty_key)
    if not gens:
        return [TOP]
    out: list[Ty] = []
    meet = canonicalize(make_inter(gens))
    if meet in ctx.universe.members:
        out.append(meet)
    out.extend(g for g in gens if g not in out)
    if TOP not in out:
        out.append(TOP)
    return out


def interpret_term_bounded(
    t: TheorySpec,
    m: Term,
    env: dict[str, FilterRep],
    fuel: int = 2_000,
    inter_width: int = DEFAULT_WIDTH,
) -> FilterRep:
    """Bounded denotation: the filter of types derivable for m under bases
    drawn from the environment filters.  Fuel bounds each individual search."""
    from .assignment import Basis, Found, infer_bounded

    fv = sorted(free_vars(m))
    missing = [x for x in fv if x not in env]
    if missing:
        raise InvalidInput(f"environment misses free variables: {missing}")
    universes = {env[x].universe for x in fv}
    if len(universes) > 1:
        raise InvalidInput("environment filters must share a universe")
    u = universes.pop() if universes else build_universe(t, [], inter_width)
    ctx = saturated_ctx(t, u)

    per_var = [_basis_candidates(ctx, env[x]) for x in fv]
    bases: list[Basis] = [Basis()]
    for x, cands in zip(fv, per_var):
        grown = [b.extend(x, c) for b in bases for c in cands]
        bases = grown[:_BASIS_BUDGET]

    found: set[Ty] = set()
    for a in sorted(u.members, key=ty_key):
        if ctx.holds(TOP, a):
            found.add(a)
            continue
        for b in bases:
            out = infer_bounded(t, b, m, a, fuel, inter_width)
            if isinstance(out, Found):
                found.add(a)
                break
    return filter_up(t, u, found)
