"""Finite filter representations: membership, up-closure and application.

A filter is represented by its generators inside a fixed universe; membership
means some finite & of generators provably sits below the candidate.  All
operations under-approximate the unbounded notions: absent members prove
nothing, present members are always backed by saturated subtyping facts.
Which types a term gets is infer_bounded's question, answered with
derivations; this module interprets no terms.
"""

from __future__ import annotations

from itertools import combinations

from .errors import InvalidInput
from .records import Record
from .subtyping import SubtypeCtx, Universe, saturated_ctx
from .theory import TheorySpec
from .types import TOP, Arrow, Ty, canonicalize, make_inter, ty_key


class FilterRep(Record):
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
