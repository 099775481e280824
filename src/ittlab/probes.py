"""Bounded falsification probes for two global properties of an itt.

Both properties quantify over all types, so these probes only ever refute
within an enumerated fragment; NoCounterexampleUpTo certifies nothing beyond
it.  The subset/witness checks inside use Proven as "holds" and UnknownWithin
as "fails within universe", which can only make the probe report spurious
counterexamples, never hide real ones; reports are therefore marked
bounded_only.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterator, Union

from .errors import InvalidInput
from .subtyping import DEFAULT_WIDTH, bits, context_for
from .theory import TheorySpec
from .types import (
    inter_parts,
    TOP,
    Arrow,
    Const,
    Inter,
    Ty,
    canonicalize,
    make_inter,
    print_ty,
    ty_key,
    ty_size,
)


@dataclass(frozen=True)
class CounterexampleFound:
    lhs: Ty
    rhs: Ty
    detail: str
    bounded_only: bool = True


@dataclass(frozen=True)
class NoCounterexampleUpTo:
    depth: int


ProbeVerdict = Union[CounterexampleFound, NoCounterexampleUpTo]


def _types_up_to(constants: frozenset[str], depth: int) -> list[Ty]:
    """All canonical types of node size <= depth over the constants and U."""
    by_size: dict[int, set[Ty]] = {
        1: {TOP} | {Const(c) for c in sorted(constants)}
    }
    for n in range(2, depth + 1):
        cur: set[Ty] = set()
        for i in range(1, n - 1):
            j = n - 1 - i
            for d in by_size[i]:
                for c in by_size[j]:
                    cur.add(Arrow(d, c))
                    it = canonicalize(Inter(d, c))
                    if ty_size(it) == n:
                        cur.add(it)
        by_size[n] = cur
    out: set[Ty] = set()
    for bucket in by_size.values():
        out |= bucket
    return sorted(out, key=ty_key)


def _nonempty_subsets(items: tuple) -> Iterator[tuple]:
    for k in range(1, len(items) + 1):
        yield from combinations(items, k)


def _arrow_meets(
    arrows: list[Arrow], size_cap: int, inter_width: int
) -> list[tuple[Ty, tuple[Arrow, ...]]]:
    """Each arrow alone, and the canonical meet of each 2..inter_width of them
    whose size is at most size_cap, with its arrows, in ty_key order.

    The arrows are distinct canonical non-U types, so the meet of k of them
    keeps all k and has their sizes plus k-1 & nodes; every arrow has size
    >= 3, which bounds each member of a fitting combination.  So a
    combination's size is known before its Inter is built."""
    out: list[tuple[Ty, tuple[Arrow, ...]]] = [(ar, (ar,)) for ar in arrows]
    for k in range(2, min(inter_width, len(arrows)) + 1):
        room = size_cap - (k - 1)
        fitting = [ar for ar in arrows if ty_size(ar) <= room - 3 * (k - 1)]
        for combo in combinations(fitting, k):
            if sum(ty_size(ar) for ar in combo) <= room:
                out.append((canonicalize(make_inter(combo)), combo))
    out.sort(key=lambda pair: ty_key(pair[0]))
    return out


def beta_soundness_probe(
    t: TheorySpec,
    depth: int = 3,
    inter_width: int = DEFAULT_WIDTH,
) -> ProbeVerdict:
    """Search for Proven instances of (B1->A1)&..&(Bk->Ak) <= B -> A, with A
    not provably ~ U, that no subset J justifies via B <= meet(Bj) and
    meet(Aj) <= A.  Components range over types of size <= depth, k <= the
    width, and the whole left side is size-capped at 2*depth+1."""
    if depth < 1:
        raise InvalidInput("depth must be >= 1")
    pool = _types_up_to(t.constants, depth)
    arrows = [Arrow(b, a) for b in pool for a in pool]
    lhs_list = _arrow_meets(arrows, 2 * depth + 1, inter_width)

    # each left side's subset meets (meet(Bj), meet(Aj)), in subset order,
    # built once for both the seeds and the witness search
    seeds: set[Ty] = set(pool) | set(arrows)
    meets: list[list[tuple[Ty, Ty]]] = []
    for ty, combo in lhs_list:
        seeds.add(ty)
        sub = [
            (
                canonicalize(make_inter([x.dom for x in js])),
                canonicalize(make_inter([x.cod for x in js])),
            )
            for js in _nonempty_subsets(combo)
        ]
        meets.append(sub)
        for pair in sub:
            seeds.update(pair)
    ctx = context_for(t, seeds, inter_width=1)

    # the right sides whose codomain is not provably ~ U; arrows is in ty_key
    # order, which is id order, so walking a row's bits visits them as a walk
    # of arrows would.  Every meet and every side is a member, so each
    # subset test reads two bits of the relation.
    top_row = ctx.row(TOP)
    idx, succ = ctx.idx, ctx.succ
    rhs_mask = sum(1 << idx[rhs] for rhs in arrows if not top_row >> idx[rhs.cod] & 1)
    for (ty, _), sub in zip(lhs_list, meets):
        hits = ctx.row(ty) & rhs_mask
        if not hits:
            continue
        sub_ids = [(idx[meet_b], idx[meet_a]) for meet_b, meet_a in sub]
        for j in bits(hits):
            rhs = ctx.members[j]
            d, c = idx[rhs.dom], idx[rhs.cod]
            # rhs.dom <= meet_b and meet_a <= rhs.cod for some subset
            if not any(succ[d] >> b & 1 and succ[a] >> c & 1 for b, a in sub_ids):
                return CounterexampleFound(
                    ty,
                    rhs,
                    f"{print_ty(ty)} <= {print_ty(rhs)} is derivable but no "
                    f"arrow subset justifies it within the universe",
                )
    return NoCounterexampleUpTo(depth)


def _chain(bs: tuple[Ty, ...], end: Ty) -> Ty:
    out = end
    for b in reversed(bs):
        out = Arrow(b, out)
    return out


def set_condition_probe(
    t: TheorySpec,
    depth: int = 3,
    inter_width: int = DEFAULT_WIDTH,
) -> ProbeVerdict:
    """Search for Proven instances of A1&..&Ak <= B1->..->Bn->C, with C not
    provably ~ U, lacking a j and D with Aj ~ B1->..->Bn->D, D not ~ U and
    C&D ~ C.  Left sides range over types of size <= depth and their
    <= inter_width-fold intersections; each is decomposed into its canonical
    &-parts (the A_i), the Bi range over atoms, n <= depth, and D over the
    pool.  Coarser regroupings of the A_i are not probed: a grouped part
    A_j&A_k rarely stays equivalent to a single chain, so the literal
    any-grouping reading fails already for two incomparable constants."""
    if depth < 1:
        raise InvalidInput("depth must be >= 1")
    pool = _types_up_to(t.constants, depth)
    atoms: list[Ty] = [TOP] + [Const(c) for c in sorted(t.constants)]
    cs: list[Ty] = [Const(c) for c in sorted(t.constants)]

    lhs_set: set[Ty] = set(pool)
    for k in range(2, min(inter_width, len(pool)) + 1):
        for combo in combinations(pool, k):
            lhs_set.add(canonicalize(make_inter(combo)))
    lhs_list: list[tuple[Ty, tuple[Ty, ...]]] = [
        (ty, inter_parts(ty) if isinstance(ty, Inter) else (ty,))
        for ty in sorted(lhs_set, key=ty_key)
    ]

    b_seqs: list[tuple[Ty, ...]] = [()]
    for n in range(1, depth + 1):
        b_seqs.extend(product(atoms, repeat=n))

    seeds: set[Ty] = set(pool)
    for ty, _ in lhs_list:
        seeds.add(ty)
    for bs in b_seqs:
        for end in set(cs) | set(pool):
            seeds.add(_chain(bs, end))
    for c in cs:
        for d in pool:
            seeds.add(canonicalize(Inter(c, d)))
    ctx = context_for(t, seeds, inter_width=1)

    # the right sides B1->..->Bn->C with C not provably ~ U: each one's id
    # maps to its position in (bs, c) order, which a left side's hits are
    # sorted back into; distinct chains are distinct members
    top_row = ctx.row(TOP)
    idx = ctx.idx
    live = [c for c in cs if not top_row >> idx[c] & 1]
    rhs_at: dict[int, tuple[int, tuple[Ty, ...], Ty]] = {}
    for bs in b_seqs:
        for c in live:
            rhs_at[idx[_chain(bs, c)]] = (len(rhs_at), bs, c)
    rhs_mask = sum(1 << j for j in rhs_at)
    for ty, parts in lhs_list:
        hits = sorted(rhs_at[j] for j in bits(ctx.row(ty) & rhs_mask))
        for _, bs, c in hits:
            if _set_witness(ctx, parts, bs, c, pool):
                continue
            rhs = _chain(bs, c)
            return CounterexampleFound(
                ty,
                rhs,
                f"{print_ty(ty)} <= {print_ty(rhs)} is derivable but no "
                f"part is equivalent to a chain ending in a suitable D",
            )
    return NoCounterexampleUpTo(depth)


def _set_witness(ctx, parts: tuple[Ty, ...], bs: tuple[Ty, ...], c: Ty, pool) -> bool:
    for a_j in parts:
        for d in pool:
            if ctx.holds(TOP, d):
                continue
            chain_d = _chain(bs, d)
            if not (ctx.holds(a_j, chain_d) and ctx.holds(chain_d, a_j)):
                continue
            cd = canonicalize(Inter(c, d))
            if ctx.holds(c, cd) and ctx.holds(cd, c):
                return True
    return False
