"""Bounded falsification probe for beta soundness, a global property of an itt.

The property quantifies over all types, so the probe only ever refutes
within an enumerated fragment; NoCounterexampleUpTo certifies nothing beyond
it.  The subset checks inside use Proven as "holds" and UnknownWithin as
"fails within universe", which can only make the probe report spurious
counterexamples, never hide real ones; reports are therefore marked
bounded_only.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator, Union

from .errors import InvalidInput
from .records import Record
from .subtyping import DEFAULT_WIDTH, bits, context_for
from .theory import TheorySpec
from .types import (
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


class CounterexampleFound(Record):
    lhs: Ty
    rhs: Ty
    detail: str
    bounded_only: bool = True


class NoCounterexampleUpTo(Record):
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

