"""Bounded subtyping with proof certificates.

derive_le saturates the pairs of a finite type universe under the base rules
(Refl, IncL, IncR, Utop, Glb, Trans, arrow congruence) plus whatever flagged
schemes the theory enables, then reads the queried pair off the fixed point.
Verdicts are three-valued by design: Proven carries a replayable certificate,
UnknownWithin only says the pair was not reached inside this universe.  Trans
can pass through types outside any finite universe, so refutation is never
asserted.  The certificate, a SubProof, is defined and checked in kernel;
this module re-exports SubProof, Valid, Invalid and check_subproof.

Every universe of one theory and width holds the same base: the subterm
closure of U and the axiom sides, widened by its meets.  build_universe builds
that base once and shares it; a query's universe adds only its seeds' closure
members that the base lacks and the meets of the sets that hold one of them,
so its members are exactly those of a universe built from scratch.  The base
keeps the meets each combination of new members forms with its closure, so a
member seen before costs its union, not its meets.  The base is indexed
weakly and held by the universes built on it, so it dies with their
contexts.

Every rule is a monotone Horn rule over universe members, so the base's
fixed point lies inside the fixed point of every universe that contains the
base.  The base owns its saturated context, built from nothing on first need
outside the saturated_ctx LRU; a universe equal to the base gets that same
context.  A larger universe starts from it (semi-naive evaluation): it
copies the base's rows, seeds the premise-free facts of its new members,
fires the few rule instances whose premises are all base facts but which
relate a new member, and runs the worklist on what that adds.  A base fact
keeps the justification the base context recorded for it, and predates
every new fact, so proofs still rebuild without search.  The fixed point is
the one a context saturated from nothing reaches; only the first
derivation of a fact may differ.

Saturated contexts are cached per (theory, universe) by the saturated_ctx
LRU.  Queries reach them through context_for, which indexes each context by
the theory, the set of canonical seeds and the width that built its
universe, so a repeated seed set skips build_universe.  A hit still goes
through saturated_ctx, so the LRU evicts and saturates exactly as if every
query that saturates built its universe, and every answer is the same.  The
index holds its contexts weakly, so it keeps no context alive: after
saturated_ctx.cache_clear() the next query saturates afresh.

Most pairs that stay unknown are not derivable at all, and a map into a
small chain shows it without a saturation.  Each theory has, per height h
of HEIGHTS = (2, 3), a bank of every map into the chain 0 < .. < h - 1
that satisfies its axioms and enabled schemes (ChainModels, whose docstring
gives the soundness argument), built on first need and kept as long as the
theory; clearing saturated_ctx leaves it.  A derive_le query whose seed set
has no indexed context and whose universe strictly extends its base asks
the height-2 bank first, then the height-3 one.  When some model separates
the pair, the answer is the UnknownWithin saturation would give, and the
query builds no context and never reaches saturated_ctx, so it adds no
miss, no hit and no index entry.  A bank that would pass DEFAULT_CAP models
is not built (_fits decides it before any table is enumerated): height 2
past 10 constants, height 3 sooner, unless arrow-U or U-leq fixes part of
its arrow tables.  Where no bank is built every such query saturates.  The
answers stay those of saturation; the banks assert no refutation either.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce
from itertools import combinations, product
from math import prod
from operator import and_, or_, xor
from typing import Iterable, Iterator, Union
from weakref import WeakKeyDictionary, WeakValueDictionary

from .errors import InvalidInput, UniverseTooLarge
from .kernel import Invalid, SubProof, Valid, check_subproof
from .records import Record
from .theory import RuleFlag, TheorySpec
from .types import (
    TOP,
    Arrow,
    Const,
    Inter,
    Ty,
    canonicalize,
    inter_parts,
    make_inter,
    subterms,
    ty_key,
)

DEFAULT_WIDTH = 2
DEFAULT_CAP = 20_000


@dataclass(frozen=True, eq=False)
class _Base:
    """The part of every universe of one theory and width that no seed adds:
    build_universe(t, (), width), kept with the closure it widens, the meets
    its queries' new members have formed with the closure, and, once a
    query needs it, its saturated context."""

    theory: TheorySpec
    width: int
    closed: frozenset[Ty]  # subterm closure of U and the canonical axiom sides
    pool: tuple[Ty, ...]  # closed in ty_key order
    members: frozenset[Ty]  # closed plus the meets of its 2..width-subsets
    # a combination of new members, in ty_key order -> _meets(it, pool, width)
    meets: dict[tuple[Ty, ...], frozenset[Ty]] = field(default_factory=dict, repr=False)

    @cached_property
    def ctx(self) -> SubtypeCtx:
        """The base universe saturated from nothing, outside the
        saturated_ctx LRU; it lives as long as the base."""
        return SubtypeCtx(self.theory, Universe(self.members, self))

    def meets_with(self, fresh: tuple[Ty, ...]) -> frozenset[Ty]:
        """_meets(fresh, pool, width), computed once per combination."""
        got = self.meets.get(fresh)
        if got is None:
            got = self.meets[fresh] = frozenset(_meets(fresh, self.pool, self.width))
        return got


@dataclass(frozen=True)
class Universe:
    """The finite set of canonical types a query saturates over; the key
    of saturated_ctx."""

    members: frozenset[Ty]
    # the base it grew from, held so that the base lives as long as a
    # universe built on it; no part of equality, hash or repr
    base: _Base | None = field(default=None, compare=False, repr=False)


# (theory, width) -> its base.  The values are weak: a base dies with the last
# universe built on it, so after saturated_ctx.cache_clear() it is built anew.
_BASES: WeakValueDictionary[tuple, _Base] = WeakValueDictionary()


def _meets(fresh: tuple[Ty, ...], pool: tuple[Ty, ...], width: int) -> set[Ty]:
    """The canonical meet of every set of 2..width distinct canonical types
    that holds all of fresh and otherwise members of pool, each set once.
    The meet is canonicalize(make_inter(set)), built from its parts.  Past
    DEFAULT_CAP meets, read at call time, it raises UniverseTooLarge."""
    head: set[Ty] = set()
    for m in fresh:
        head.update(inter_parts(m))
    out: set[Ty] = set()
    j = len(fresh)
    for i in range(max(0, 2 - j), min(width - j, len(pool)) + 1):
        for rest in combinations(pool, i):
            parts = set(head)
            for m in rest:
                parts.update(inter_parts(m))
            out.add(make_inter(sorted(parts, key=ty_key)))
            if len(out) > DEFAULT_CAP:
                raise UniverseTooLarge(DEFAULT_CAP)
    return out


def _build_base(t: TheorySpec, width: int) -> _Base:
    closed: set[Ty] = set(subterms(TOP))
    for lhs, rhs in t.canonical_pairs:
        closed.update(subterms(lhs))
        closed.update(subterms(rhs))
    pool = tuple(sorted(closed, key=ty_key))
    members = closed | _meets((), pool, width)
    return _Base(t, width, frozenset(closed), pool, frozenset(members))


def build_universe(
    t: TheorySpec, seeds: Iterable[Ty], inter_width: int = DEFAULT_WIDTH
) -> Universe:
    """Subterm closure of seeds plus axiom sides plus U, widened by all
    canonical intersections of 2..inter_width distinct closure members.

    The theory's base, the universe of no seeds, is built once and shared by
    the universes built on it while one of them lives.  A query adds the
    closure members of its seeds that the base lacks, and the meets of the
    sets that hold at least one of them: for each combination of 1..width
    of those new members, the meets it forms with the base's closure, which
    the base computes once and keeps.  At width 1 no set meets.

    The one place the member bound is enforced: past DEFAULT_CAP members, read
    at call time, it raises UniverseTooLarge."""
    if inter_width < 1:
        raise InvalidInput("inter_width must be >= 1")
    key = (t, inter_width)
    base = _BASES.get(key)
    if base is None:
        base = _build_base(t, inter_width)
        _BASES[key] = base
    new = {m for s in seeds for m in subterms(canonicalize(s))} - base.closed
    members = set(base.members)
    members.update(new)
    if inter_width > 1:
        new_sorted = sorted(new, key=ty_key)
        for j in range(1, min(inter_width, len(new_sorted)) + 1):
            for fresh in combinations(new_sorted, j):
                members.update(base.meets_with(fresh))
                if len(members) > DEFAULT_CAP:
                    raise UniverseTooLarge(DEFAULT_CAP)
    if len(members) > DEFAULT_CAP:
        raise UniverseTooLarge(DEFAULT_CAP)
    return Universe(frozenset(members), base)


class Proven(Record):
    proof: SubProof


class UnknownWithin(Record):
    universe_size: int
    inter_width: int


SubtypeVerdict = Union[Proven, UnknownWithin]

Pair = tuple[Ty, Ty]
IdPair = tuple[int, int]

# Rule codes of SubtypeCtx.just, indexed into RULE_NAMES.  ArrCong has two
# codes because its four premises are recorded in one order for f <= g and in
# the reverse order for g <= f.
(
    REFL, AXIOM, INC_L, INC_R, UTOP, ARROW_TOP, ARROW_CAP,
    ARROW_RULE, TOP_LE, ARR_CONG, ARR_CONG_REV, GLB, TRANS,
) = range(13)
RULE_NAMES = (
    "Refl", "Axiom", "IncL", "IncR", "Utop", "ArrowTop", "ArrowCap",
    "ArrowRule", "TopLe", "ArrCong", "ArrCong", "Glb", "Trans",
)
RULE_BITS = 4  # a justification is rule | k << RULE_BITS


def bits(row: int) -> Iterator[int]:
    """Positions of the set bits of row, ascending: the ids a row holds."""
    while row:
        low = row & -row
        yield low.bit_length() - 1
        row ^= low


class SubtypeCtx:
    """Worklist saturation over one universe, run on construction; reusable
    across queries.

    Members get dense ids in ty_key order, and each row of the relation is
    one int bitset: bit b of succ[a], and bit a of its transpose pred[b], says
    a <= b.  Every fact a <= b records the rule that first produced it as one
    int, just[a * n + b] = rule | k << RULE_BITS, where k is the one id its
    premises need beyond a, b and the members' shapes: the middle type of a
    Trans, the arrow U <= k of a TopLe, and 0 otherwise.  justification
    decodes an entry back into the rule name and premise facts.  Premises
    always predate their consequence, so justifications form a DAG and proofs
    rebuild without search.  A pair outside the universe has no id and is
    never recorded.

    A universe that strictly contains its theory's base extends the base's
    context, base_ctx: it copies the base's rows through the id map, and
    just holds only the facts the extension adds.  justification reads a
    base fact's entry from base_ctx and maps its ids back; base facts
    predate every fact the extension adds, so the DAG order holds.  Any
    other universe is saturated from nothing, and base_ctx is None.
    """

    def __init__(self, theory: TheorySpec, universe: Universe):
        self.theory = theory
        self.universe = universe
        self.members = sorted(universe.members, key=ty_key)
        self.idx: dict[Ty, int] = {m: i for i, m in enumerate(self.members)}
        n = len(self.members)
        self.succ = [0] * n
        self.pred = [0] * n
        self.just: dict[int, int] = {}
        self.proofs: dict[IdPair, SubProof] = {}  # filled by proof
        self.queue: deque[int] = deque()  # facts as keys a * n + b
        # build_universe's members include every arrow's domain and codomain
        # and every intersection's parts, so all of them have ids
        self.dom: dict[int, int] = {}
        self.cod: dict[int, int] = {}
        self.arrows_by_dom: list[list[int]] = [[] for _ in range(n)]
        self.arrows_by_cod: list[list[int]] = [[] for _ in range(n)]
        # per intersection: its part ids in inter_parts order, and their mask
        self.parts: dict[int, tuple[int, ...]] = {}
        self.mask: dict[int, int] = {}
        self.part_to_inters: list[list[int]] = [[] for _ in range(n)]
        id_of = self.idx.__getitem__
        for i, m in enumerate(self.members):
            if isinstance(m, Arrow):
                d, c = id_of(m.dom), id_of(m.cod)
                self.dom[i], self.cod[i] = d, c
                self.arrows_by_dom[d].append(i)
                self.arrows_by_cod[c].append(i)
            elif isinstance(m, Inter):
                parts = tuple(map(id_of, inter_parts(m)))
                self.parts[i] = parts
                mask = 0
                for p in parts:
                    mask |= 1 << p
                    self.part_to_inters[p].append(i)
                self.mask[i] = mask
        # the base context this one extends; None when saturated from nothing
        self.base_ctx: SubtypeCtx | None = None
        # ArrowCap's sides (z, rhs) whose rhs is not a member; set by _seed
        self.caps_outside: list[tuple[Ty, Ty]] = []
        base = universe.base
        if base is not None and base.theory == theory and base.members < universe.members:
            new = self._extend(base.ctx)
            self._seed(new)
            self._fire_over_base(new)
        else:
            self._seed(range(n))
        self._saturate()

    def _add(self, a: int, b: int, rule: int) -> None:
        if self.succ[a] >> b & 1:
            return
        self.succ[a] |= 1 << b
        self.pred[b] |= 1 << a
        key = a * len(self.members) + b
        self.just[key] = rule
        self.queue.append(key)

    def _add_types(self, a: Ty, b: Ty, rule: int) -> None:
        i, j = self.idx.get(a), self.idx.get(b)
        if i is not None and j is not None:
            self._add(i, j, rule)

    def _extend(self, b: SubtypeCtx) -> list[int]:
        """Start from the saturated base context b: copy its rows into this
        context's ids and return the ids of the members b lacks.  Both
        contexts number their members in ty_key order, so each run of
        consecutive base ids lands on consecutive ids and moves with one
        mask and one shift.  The base facts' justifications stay in b."""
        n, nb = len(self.members), len(b.members)
        from_base = list(map(self.idx.__getitem__, b.members))
        runs: list[tuple[int, int]] = []  # (mask of base ids, shift)
        start = 0
        for i in range(1, nb + 1):
            if i == nb or from_base[i] != from_base[i - 1] + 1:
                runs.append((((1 << i) - 1) ^ ((1 << start) - 1), from_base[start] - start))
                start = i

        succ, pred = self.succ, self.pred
        to_base: list[int | None] = [None] * n
        for i, j in enumerate(from_base):
            row_s, row_p = b.succ[i], b.pred[i]
            s = p = 0
            for mask, shift in runs:
                s |= (row_s & mask) << shift
                p |= (row_p & mask) << shift
            succ[j], pred[j] = s, p
            to_base[j] = i
        # base id -> id, and id -> base id or None, for justification
        self.base_ctx, self._from_base, self._to_base = b, from_base, to_base
        return [m for m, i in enumerate(to_base) if i is None]

    def _arrow_caps(self, inters: Iterable[int]) -> Iterator[tuple[Ty, Ty]]:
        """ArrowCap's sides (B->A1)&..&(B->Ak) and B -> A1&..&Ak, canonical,
        for each intersection of inters whose parts are arrows of one
        domain.  The right side need not be a member."""
        for z in inters:
            z_ty = self.members[z]
            parts = inter_parts(z_ty)
            if all(isinstance(p, Arrow) for p in parts):
                doms = {p.dom for p in parts}
                if len(doms) == 1:
                    yield z_ty, canonicalize(
                        Arrow(parts[0].dom, make_inter([p.cod for p in parts]))
                    )

    def _seed(self, new: Iterable[int]) -> None:
        """The rule instances with no premises that relate a member of new,
        in this order: Refl, the axioms, IncL/IncR, Utop, then the flagged
        ArrowTop and ArrowCap.  The Refl, Inc and Utop facts are written
        straight into the tables, and each skips a fact that is already
        there, so the queue and the justifications are those of one _add
        per fact.  new is every member of a context saturated from nothing,
        and the members an extension adds to its base, whose facts the
        tables already hold."""
        flags = self.theory.flags
        n = len(self.members)
        top = self.idx[TOP]
        succ, pred, just, queue = self.succ, self.pred, self.just, self.queue
        diagonal = [m * (n + 1) for m in new]
        for m in new:
            succ[m] = pred[m] = 1 << m
        just.update(dict.fromkeys(diagonal, REFL))
        queue.extend(diagonal)
        for lhs, rhs in self.theory.canonical_pairs:
            self._add_types(lhs, rhs, AXIOM)
        inters = [z for z in new if z in self.parts]
        for z in inters:
            rule = INC_L
            for p in self.parts[z]:
                if not succ[z] >> p & 1:
                    succ[z] |= 1 << p
                    pred[p] |= 1 << z
                    key = z * n + p
                    just[key] = rule
                    queue.append(key)
                rule = INC_R
        bit_top = 1 << top
        below = ((1 << n) - 1) & ~pred[top]
        pred[top] |= below
        for m in bits(below):
            succ[m] |= bit_top
            key = m * n + top
            just[key] = UTOP
            queue.append(key)
        if RuleFlag.ARROW_TOP in flags:
            for m, c in self.cod.items():
                if c == top:
                    self._add(top, m, ARROW_TOP)
        if RuleFlag.ARROW_CAP in flags:
            caps = list(self._arrow_caps(inters))
            if self.base_ctx is not None:
                caps += self.base_ctx.caps_outside
            for z_ty, rhs in caps:
                self._add_types(z_ty, rhs, ARROW_CAP)
                self._add_types(rhs, z_ty, ARROW_CAP)
            # the instances a universe that extends this one fires when it
            # holds their right side
            self.caps_outside = [cap for cap in caps if cap[1] not in self.idx]

    def _fire_over_base(self, new: list[int]) -> None:
        """The rule instances whose premises are all base facts but which
        relate a member of new: Glb into a new intersection of base members,
        from the members below all its parts, and (->) and congruence
        between two arrows whose domains and codomains are base members,
        one arrow new.  Every other instance with base premises lies in the
        base, whose fixed point holds its conclusion already."""
        succ, pred, dom, cod = self.succ, self.pred, self.dom, self.cod
        fresh = sum(1 << m for m in new)
        for z in new:
            parts = self.parts.get(z)
            if parts is not None and not self.mask[z] & fresh:
                below = pred[parts[0]]
                for p in parts[1:]:
                    below &= pred[p]
                for x in bits(below & ~pred[z]):
                    self._add(x, z, GLB)
        arrow_rule = RuleFlag.ARROW in self.theory.flags
        over_base = [f for f in dom if not (fresh >> dom[f] | fresh >> cod[f]) & 1]
        for f in over_base:
            if not fresh >> f & 1:
                continue
            df, cf = dom[f], cod[f]
            for g in over_base:
                dg, cg = dom[g], cod[g]
                dom_le, dom_ge = succ[dg] >> df & 1, succ[df] >> dg & 1
                cod_le, cod_ge = succ[cf] >> cg & 1, succ[cg] >> cf & 1
                if arrow_rule:
                    if dom_le and cod_le:
                        self._add(f, g, ARROW_RULE)
                    if dom_ge and cod_ge:
                        self._add(g, f, ARROW_RULE)
                if dom_le and dom_ge and cod_le and cod_ge:
                    self._add(f, g, ARR_CONG)
                    self._add(g, f, ARR_CONG_REV)

    def _saturate(self) -> None:
        """The worklist loop: each fact popped fires, in this order, the (->)
        rule, TopLe, arrow congruence, Glb and Trans.  Every firing is inlined
        over local aliases; a new fact is recorded, justified and queued at
        once, so the facts, their order and their justifications are those of
        one _add per candidate."""
        flags = self.theory.flags
        arrow_rule = RuleFlag.ARROW in flags
        top_le = RuleFlag.TOP_LE in flags
        top = self.idx[TOP]
        n = len(self.members)
        succ, pred, just = self.succ, self.pred, self.just
        queue = self.queue
        popleft, push = queue.popleft, queue.append
        dom, cod = self.dom, self.cod
        by_dom, by_cod = self.arrows_by_dom, self.arrows_by_cod
        parts_of, mask_of, part_to_inters = self.parts, self.mask, self.part_to_inters

        def add(a: int, b: int, rule: int) -> None:
            # the caller has checked that a <= b is new
            succ[a] |= 1 << b
            pred[b] |= 1 << a
            key = a * n + b
            just[key] = rule
            push(key)

        while queue:
            x, y = divmod(popleft(), n)
            if arrow_rule:
                # x <= y as the domain premise B' <= B of (->), with B' = x, B = y
                for f in by_dom[y]:
                    row = succ[cod[f]]
                    for g in by_dom[x]:
                        if row >> cod[g] & 1 and not succ[f] >> g & 1:
                            add(f, g, ARROW_RULE)
                # x <= y as the codomain premise A <= A', with A = x, A' = y
                for f in by_cod[x]:
                    for g in by_cod[y]:
                        if succ[dom[g]] >> dom[f] & 1 and not succ[f] >> g & 1:
                            add(f, g, ARROW_RULE)
            if top_le and x == top and y in cod:
                c = cod[y]
                if not succ[top] >> c & 1:
                    add(top, c, TOP_LE | y << RULE_BITS)
            if succ[y] >> x & 1:
                # x ~ y as the domains of congruent arrows
                for f in by_dom[x]:
                    for g in by_dom[y]:
                        cf, cg = cod[f], cod[g]
                        if succ[cf] >> cg & 1 and succ[cg] >> cf & 1:
                            if not succ[f] >> g & 1:
                                add(f, g, ARR_CONG)
                            if not succ[g] >> f & 1:
                                add(g, f, ARR_CONG_REV)
                # x ~ y as the codomains
                for f in by_cod[x]:
                    for g in by_cod[y]:
                        df, dg = dom[f], dom[g]
                        if succ[dg] >> df & 1 and succ[df] >> dg & 1:
                            if not succ[f] >> g & 1:
                                add(f, g, ARR_CONG)
                            if not succ[g] >> f & 1:
                                add(g, f, ARR_CONG_REV)
            for z in part_to_inters[y]:
                mask = mask_of[z]
                row = succ[x]
                if row & mask == mask and not row >> z & 1:
                    add(x, z, GLB)
            # Trans as row-ORs on the delta rows: x gains the successors of y
            # it lacks, then the predecessors of x that lack y gain it, each
            # in ascending id order.  No bit of a delta is set while it is
            # spent, so each of its facts is new.
            delta = succ[y] & ~succ[x]
            if delta:
                succ[x] |= delta
                bit_x = 1 << x
                base = x * n
                rule = TRANS | y << RULE_BITS
                for z in bits(delta):
                    pred[z] |= bit_x
                    key = base + z
                    just[key] = rule
                    push(key)
            delta = pred[x] & ~pred[y]
            if delta:
                pred[y] |= delta
                bit_y = 1 << y
                rule = TRANS | x << RULE_BITS
                for w in bits(delta):
                    succ[w] |= bit_y
                    key = w * n + y
                    just[key] = rule
                    push(key)

    @property
    def facts(self) -> set[Pair]:
        """Every saturated pair, as types."""
        ms = self.members
        return {(ms[a], ms[b]) for a, row in enumerate(self.succ) for b in bits(row)}

    def holds(self, a: Ty, b: Ty) -> bool:
        i = self.idx.get(canonicalize(a))
        j = self.idx.get(canonicalize(b))
        return i is not None and j is not None and bool(self.succ[i] >> j & 1)

    # -- row queries: whole rows of the saturated relation, for callers that
    # would otherwise ask holds once per member.  A type outside the
    # universe has an empty row, as holds never relates it.

    def row(self, a: Ty) -> int:
        """The ids of the members b with a <= b, as a bitset."""
        i = self.idx.get(canonicalize(a))
        return 0 if i is None else self.succ[i]

    @cached_property
    def arrow_mask(self) -> int:
        """The ids of the arrow members."""
        return sum(1 << f for f in self.dom)

    @cached_property
    def arrows_to(self) -> dict[int, int]:
        """For each id that is an arrow member's codomain, the ids of the
        arrow members with that codomain."""
        out: dict[int, int] = {}
        for c, fs in enumerate(self.arrows_by_cod):
            if fs:
                out[c] = sum(1 << f for f in fs)
        return out

    @cached_property
    def arrow_pairs(self) -> list[tuple[int, int, int, int | None]]:
        """(f1, f2, meet, joined) for every two arrow members f1 < f2 whose
        canonical meet f1 & f2 is a member, in (f1, f2) order.  joined is the
        id of B -> A1 & A2 when f1 = B -> A1 and f2 = B -> A2 share their
        domain, that arrow is a member and f1 & f2 <= it; otherwise None."""
        ms, idx, succ = self.members, self.idx, self.succ
        arrows = sorted(self.dom)
        out: list[tuple[int, int, int, int | None]] = []
        for k, f1 in enumerate(arrows):
            a1 = ms[f1]
            for f2 in arrows[k + 1:]:
                a2 = ms[f2]
                meet = idx.get(canonicalize(Inter(a1, a2)))
                if meet is None:
                    continue
                joined = None
                if a1.dom == a2.dom:
                    j = idx.get(Arrow(a1.dom, canonicalize(Inter(a1.cod, a2.cod))))
                    if j is not None and succ[meet] >> j & 1:
                        joined = j
                out.append((f1, f2, meet, joined))
        return out

    def justification(self, fact: IdPair) -> tuple[str, tuple[IdPair, ...]]:
        """The rule that first produced the fact a <= b, and its premise
        facts in the order the rule read them."""
        a, b = fact
        key = a * len(self.members) + b
        if key not in self.just and self.base_ctx is not None:
            # a base fact keeps the base context's justification
            ids, back = self._from_base, self._to_base
            rule_name, prems = self.base_ctx.justification((back[a], back[b]))
            return rule_name, tuple((ids[x], ids[y]) for x, y in prems)
        k, rule = divmod(self.just[key], 1 << RULE_BITS)
        dom, cod = self.dom, self.cod
        if rule == TRANS:
            prems: tuple[IdPair, ...] = ((a, k), (k, b))
        elif rule == GLB:
            prems = tuple((a, p) for p in self.parts[b])
        elif rule == ARROW_RULE:
            prems = ((dom[b], dom[a]), (cod[a], cod[b]))
        elif rule == ARR_CONG or rule == ARR_CONG_REV:
            doms = ((dom[b], dom[a]), (dom[a], dom[b]))
            cods = ((cod[a], cod[b]), (cod[b], cod[a]))
            prems = doms + cods if rule == ARR_CONG else cods + doms
        elif rule == TOP_LE:
            prems = ((a, k),)
        else:
            prems = ()
        return RULE_NAMES[rule], prems

    def proof(self, a: Ty, b: Ty) -> SubProof:
        """The certificate of a <= b, rebuilt from the justifications.

        Every fact's SubProof is built once per context and kept, so a
        repeated pair, or a premise two proofs share, is the same object:
        the proofs of one context form one shared DAG.  A base fact's proof
        is the base context's own, shared by all its extensions; both
        contexts hold the same member objects, so its text is the same."""
        i, j = self.idx.get(canonicalize(a)), self.idx.get(canonicalize(b))
        if i is None or j is None or not self.succ[i] >> j & 1:
            raise InvalidInput("no saturated fact for the requested pair")
        return self._proof((i, j))

    def _proof(self, root: IdPair) -> SubProof:
        memo = self.proofs
        done = memo.get(root)
        if done is not None:
            return done
        ms, n, just, base = self.members, len(self.members), self.just, self.base_ctx
        stack = [root]
        while stack:
            fact = stack[-1]
            if fact in memo:
                stack.pop()
                continue
            a, b = fact
            if base is not None and a * n + b not in just:
                back = self._to_base
                memo[fact] = base._proof((back[a], back[b]))
                stack.pop()
                continue
            rule, prems = self.justification(fact)
            missing = [p for p in prems if p not in memo]
            if missing:
                stack.extend(missing)
            else:
                memo[fact] = SubProof(rule, (ms[a], ms[b]), tuple(memo[p] for p in prems))
                stack.pop()
        return memo[root]


@lru_cache(maxsize=256)
def saturated_ctx(theory: TheorySpec, universe: Universe) -> SubtypeCtx:
    """The saturated context of universe; a universe equal to its theory's
    base gets the base's own context."""
    base = universe.base
    if base is not None and base.theory == theory and base.members == universe.members:
        return base.ctx
    return SubtypeCtx(theory, universe)


# (theory, canonical seeds, width) -> the context saturated_ctx holds for the
# universe those seeds build.  The values are weak: an entry dies with its
# context, once the LRU has evicted or cleared it and no caller holds it.
_BY_SEEDS: WeakValueDictionary[tuple, SubtypeCtx] = WeakValueDictionary()


def _indexed(key: tuple, known: SubtypeCtx | None, universe: Universe) -> SubtypeCtx:
    """saturated_ctx of universe, indexed under key, the seed key that built
    it; known is the context the index held for key, or None."""
    ctx = saturated_ctx(key[0], universe)
    if ctx is not known:
        _BY_SEEDS[key] = ctx
    return ctx


def context_for(
    t: TheorySpec, seeds: Iterable[Ty], inter_width: int = DEFAULT_WIDTH
) -> SubtypeCtx:
    """The saturated context of build_universe(t, seeds, inter_width).

    The universe is a function of the theory, the set of canonical seeds and
    the width, so a seed set seen before finds its context without building
    the universe again.  A hit still passes the context's universe through
    saturated_ctx, so the LRU sees the same sequence of keys, and evicts and
    saturates exactly as it would if every query built its universe."""
    canon = frozenset(canonicalize(s) for s in seeds)
    key = (t, canon, inter_width)
    known = _BY_SEEDS.get(key)
    if known is None:
        return _indexed(key, None, build_universe(t, canon, inter_width))
    return _indexed(key, known, known.universe)


# -- chain models ---------------------------------------------------------------

# The heights of the chains each theory is mapped into, asked in this order.
HEIGHTS = (2, 3)


def _cell_values(flags: frozenset[RuleFlag], h: int) -> list[range]:
    """Per cell h * x + y of an arrow table on the chain 0 < .. < h - 1, the
    values of x -> y that the flags which constrain one cell at a time
    leave: arrow-U fixes x -> top to top (U ~ A -> U), and U-leq keeps
    x -> y below top when y is (U <= B -> A gives U <= A)."""
    top = h - 1
    out = []
    for _ in range(h):
        for y in range(h):
            if y == top and RuleFlag.ARROW_TOP in flags:
                out.append(range(top, h))
            elif y < top and RuleFlag.TOP_LE in flags:
                out.append(range(top))
            else:
                out.append(range(h))
    return out


def _admits(flags: frozenset[RuleFlag], f: tuple[int, ...], h: int) -> bool:
    """Whether the table f, where f[h * x + y] is x -> y on the chain
    0 < .. < h - 1, meets the conditions of the flags that span cells:
    arrow, f falls as the domain rises and rises with the codomain, and
    arrow-cap, f(x, y) & f(x, y') = f(x, y & y')."""
    top, r = h - 1, range(h)
    if RuleFlag.ARROW in flags and not all(
        f[h * (x + 1) + y] <= f[h * x + y] and f[h * y + x] <= f[h * y + x + 1]
        for x in range(top)
        for y in r
    ):
        return False
    return RuleFlag.ARROW_CAP not in flags or all(
        min(f[h * x + y], f[h * x + z]) == f[h * x + min(y, z)]
        for x in r
        for y in r
        for z in r
    )


def _tables(flags: frozenset[RuleFlag], h: int) -> list[tuple[int, ...]]:
    """The arrow tables of height h that every flag admits: those among the
    values _cell_values leaves that _admits keeps, in lexicographic order."""
    return [f for f in product(*_cell_values(flags, h)) if _admits(flags, f, h)]


class ChainModels:
    """Every model of a theory into the chain 0 < 1 < .. < h - 1, all
    evaluated at once.

    A model sends each declared constant to a value of the chain and U to
    its top h - 1, reads & as min, and reads -> as one of the tables f that
    every enabled flag admits (_tables).  Bit m = table * h^k + assignment
    of a mask stands for one model, where digit i, base h, of the
    assignment is the value of the i-th constant in sorted order.  A type
    evaluates to h - 1 threshold masks: the j-th, j = 1 .. h - 1, holds the
    models in which the type's value is at least j.  sound masks the models
    in which every canonical_pairs entry, order pairs included, holds.

    Soundness: every saturation rule holds in every model of sound.  Refl,
    Trans, IncL/IncR, Glb and Utop hold in any meet-semilattice with a top,
    and a chain under min is one; Axiom holds because sound keeps only
    models that satisfy the axioms; ArrCong holds because f is a function;
    ArrowRule, ArrowTop, ArrowCap (both directions) and TopLe hold by the
    conditions _cell_values and _admits put on f for the flags that enable
    them.  So whatever a saturation derives, in any universe, is x <= y of
    values in every sound model, and a pair that some sound model sends to
    x > y is never derived.  A fault here could turn a Proven into
    UnknownWithin, never an unknown into a Proven: the bank only ever stops
    a saturation."""

    def __init__(self, t: TheorySpec, h: int):
        tables = _tables(t.flags, h)
        block = h ** len(t.constants)  # assignments per table
        ones = (1 << block) - 1
        self.height = h
        self.full = (1 << len(tables) * block) - 1
        every_table = self.full // ones  # bit 0 of every table's block
        self.consts: dict[str, tuple[int, ...]] = {}
        for i, c in enumerate(sorted(t.constants)):
            # digit i of the assignment is v on the v-th run of h^i bits in
            # each period of h^(i+1)
            run = h**i
            every_period = ones // ((1 << run * h) - 1) * every_table
            self.consts[c] = tuple(
                (((1 << (h - j) * run) - 1) << j * run) * every_period for j in range(1, h)
            )
        # per threshold j and cell, the models whose table is at least j there
        self.cells = [
            [
                sum(ones << pos * block for pos, f in enumerate(tables) if f[cell] >= j)
                for cell in range(h * h)
            ]
            for j in range(1, h)
        ]
        self.top = (self.full,) * (h - 1)
        sound = self.full
        for lhs, rhs in t.canonical_pairs:
            for a, b in zip(self.value(lhs), self.value(rhs)):
                sound &= ~(a & ~b)
        self.sound = sound

    def _arrow(self, d: tuple[int, ...], c: tuple[int, ...]) -> tuple[int, ...]:
        """The threshold masks of x -> y, x with masks d and y with masks c:
        each model reads its table at the cell of its values of x and y."""
        full = self.full
        # per value v, the models in which x, and y, is exactly v
        dv = (full ^ d[0], *map(xor, d, d[1:]), d[-1])
        cv = (full ^ c[0], *map(xor, c, c[1:]), c[-1])
        at = [x & y for x in dv for y in cv]  # per cell, the models that read it
        return tuple([reduce(or_, map(and_, at, cells)) for cells in self.cells])

    def value(self, a: Ty) -> tuple[int, ...] | None:
        """The threshold masks of a, or None when a names a constant the
        theory does not declare.  Walks an explicit stack."""
        consts = self.consts
        memo: dict[Ty, tuple[int, ...]] = {}
        stack = [a]
        while stack:
            x = stack[-1]
            if x in memo:
                stack.pop()
            elif isinstance(x, Const):
                v = consts.get(x.name)
                if v is None:
                    return None
                memo[stack.pop()] = v
            elif isinstance(x, Arrow):
                d, c = memo.get(x.dom), memo.get(x.cod)
                if d is None or c is None:
                    stack += [x.cod, x.dom]
                    continue
                memo[stack.pop()] = self._arrow(d, c)
            elif isinstance(x, Inter):
                l, r = memo.get(x.left), memo.get(x.right)
                if l is None or r is None:
                    stack += [x.right, x.left]
                    continue
                memo[stack.pop()] = tuple(p & q for p, q in zip(l, r))
            else:  # U
                memo[stack.pop()] = self.top
        return memo[a]

    def refutes(self, a: Ty, b: Ty) -> bool:
        """Whether some model of the theory sends a above b, so that no
        universe derives a <= b."""
        va, vb = self.value(a), self.value(b)
        if va is None or vb is None:
            return False
        sound = self.sound
        return any(x & ~y & sound for x, y in zip(va, vb))


def _fits(t: TheorySpec, h: int) -> bool:
    """Whether the bank of height h stays within DEFAULT_CAP models, read at
    call time, decided before any table is enumerated: its tables times
    h^k, k the number of constants.  Height 2 counts all its 16 tables, so
    it stops past 10 constants whatever the flags; height 3 counts only the
    tables the flags' per-cell constraints leave, as all 3^9 of them pass
    the bound with one constant."""
    if h == 2:
        tables = h ** (h * h)
    else:
        tables = prod(len(v) for v in _cell_values(t.flags, h))
    return tables * h ** len(t.constants) <= DEFAULT_CAP


# theory -> height -> its bank, or None past the bound; kept as long as the
# theory lives
_MODELS: WeakKeyDictionary[TheorySpec, dict[int, ChainModels | None]] = WeakKeyDictionary()


def chain_models(t: TheorySpec, h: int) -> ChainModels | None:
    """The theory's bank of height h, built on first need; None when _fits
    says it would pass DEFAULT_CAP models."""
    banks = _MODELS.setdefault(t, {})
    if h not in banks:
        banks[h] = ChainModels(t, h) if _fits(t, h) else None
    return banks[h]


def refuted(t: TheorySpec, a: Ty, b: Ty) -> bool:
    """Whether a chain model of t separates a from b, asked at height 2
    first, then at height 3: then a <= b is not derivable in any universe.
    False where neither height has a bank, and for a type that names an
    undeclared constant."""
    for h in HEIGHTS:
        bank = chain_models(t, h)
        if bank is not None and bank.refutes(a, b):
            return True
    return False


def derive_le(
    t: TheorySpec, a: Ty, b: Ty, inter_width: int = DEFAULT_WIDTH
) -> SubtypeVerdict:
    """Proven with a certificate when the saturated universe of {a, b}
    derives a <= b, else UnknownWithin with its size.

    A seed set with no indexed context whose universe strictly extends the
    theory's base would be saturated anew; when a chain model of height 2 or
    3 refutes the pair first (refuted), the answer is UnknownWithin of that
    universe's size, as the saturation would give, and no context is
    built."""
    a, b = canonicalize(a), canonicalize(b)
    key = (t, frozenset((a, b)), inter_width)
    known = _BY_SEEDS.get(key)
    if known is None:
        universe = build_universe(t, key[1], inter_width)
        if universe.base.members < universe.members and refuted(t, a, b):
            return UnknownWithin(len(universe.members), inter_width)
        ctx = _indexed(key, None, universe)
    else:
        ctx = _indexed(key, known, known.universe)
    if ctx.holds(a, b):
        return Proven(ctx.proof(a, b))
    return UnknownWithin(len(ctx.members), inter_width)


def derive_equiv(
    t: TheorySpec, a: Ty, b: Ty, inter_width: int = DEFAULT_WIDTH
) -> tuple[SubtypeVerdict, SubtypeVerdict]:
    """Both directions over one shared universe: both seed the same canonical
    set, so context_for gives the second query the first one's context."""
    return derive_le(t, a, b, inter_width), derive_le(t, b, a, inter_width)


def is_top_equiv(
    t: TheorySpec, a: Ty, inter_width: int = DEFAULT_WIDTH
) -> SubtypeVerdict:
    """A <= U always holds, so A ~ U reduces to U <= A."""
    return derive_le(t, TOP, a, inter_width)
