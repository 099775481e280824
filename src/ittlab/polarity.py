"""Polarity analysis of characteristic axiom sets.

Works over the restricted-form axiom maps produced by validate_natural:
completion, closures, equivalence classes with their partial order, the
signed dependency graph, the positive polarity check (negative-cycle
search), per-class sign decorations, and the staged solving plan.
"""

from __future__ import annotations

from collections import deque
from graphlib import TopologicalSorter
from typing import Mapping, Union

from .errors import UndefinedConstant
from .records import Record
from .theory import ArrowC, InterC, Rhs, SelfC, mentioned

Axioms = Mapping[str, Rhs]

PLUS = "+"
MINUS = "-"
BOTH = "±"


def completion(axioms: Axioms) -> dict[str, Rhs]:
    """Add c ~ c for every constant mentioned on a rhs but not defined."""
    out = dict(axioms)
    for rhs in axioms.values():
        for c in mentioned(rhs):
            out.setdefault(c, SelfC())
    return out


def _check_complete(axioms: Axioms) -> None:
    for c, rhs in axioms.items():
        for d in mentioned(rhs):
            if d not in axioms:
                raise UndefinedConstant(f"{d!r} (in axiom of {c!r}) has no axiom")


def closure_of(c: str, axioms: Axioms) -> frozenset[str]:
    """Constants of the least complete subset defining c: graph reachability."""
    if c not in axioms:
        raise UndefinedConstant(f"{c!r} has no axiom")
    _check_complete(axioms)
    seen = {c}
    todo = [c]
    while todo:
        for d in mentioned(axioms[todo.pop()]):
            if d not in seen:
                seen.add(d)
                todo.append(d)
    return frozenset(seen)


class ClassPoset(Record):
    """Equivalence classes of constants with their partial order on indices."""

    classes: tuple[frozenset[str], ...]
    order: frozenset[tuple[int, int]]

    def class_of(self, c: str) -> int:
        for i, cls in enumerate(self.classes):
            if c in cls:
                return i
        raise UndefinedConstant(f"{c!r} not in any class")

    def leq(self, c: str, d: str) -> bool:
        return (self.class_of(c), self.class_of(d)) in self.order


def equivalence_classes(axioms: Axioms) -> ClassPoset:
    """Group constants by equal closure; order classes by closure membership."""
    _check_complete(axioms)
    closures = {c: closure_of(c, axioms) for c in axioms}
    by_closure: dict[frozenset[str], set[str]] = {}
    for c, cl in closures.items():
        by_closure.setdefault(cl, set()).add(c)
    classes = tuple(
        sorted((frozenset(v) for v in by_closure.values()), key=lambda s: min(s))
    )
    order = set()
    for i, cls_i in enumerate(classes):
        for j, cls_j in enumerate(classes):
            rep_j = min(cls_j)
            if closures[rep_j] & cls_i:
                order.add((i, j))
    return ClassPoset(classes, frozenset(order))


SignedEdge = tuple[str, str, str]  # (from, to, sign)


class SignedGraph(Record):
    nodes: frozenset[str]
    edges: frozenset[SignedEdge]


def signed_graph(axioms: Axioms) -> SignedGraph:
    """Arrow domains contribute -, codomains, & components and self-loops +."""
    _check_complete(axioms)
    edges: set[SignedEdge] = set()
    for c, rhs in axioms.items():
        match rhs:
            case SelfC():
                edges.add((c, c, PLUS))
            case ArrowC(dom, cod):
                edges.add((c, dom, MINUS))
                edges.add((c, cod, PLUS))
            case InterC(left, right):
                edges.add((c, left, PLUS))
                edges.add((c, right, PLUS))
    return SignedGraph(frozenset(axioms), frozenset(edges))


class PolarityPass(Record):
    caveats: tuple[str, ...] = ()


class PolarityFail(Record):
    witness: tuple[SignedEdge, ...]


PolarityVerdict = Union[PolarityPass, PolarityFail]


def check_positive_polarity(axioms: Axioms) -> PolarityVerdict:
    """Fail iff some constant lies on a cycle with negative sign product.

    Searches the sign-doubled graph breadth-first, so a Fail witness is a
    shortest negative cycle through its start; starts are tried original
    constants first, then minted auxiliaries, each in name order.
    """
    graph = signed_graph(axioms)
    adj: dict[str, list[tuple[str, str]]] = {n: [] for n in graph.nodes}
    for frm, to, sign in sorted(graph.edges):
        adj[frm].append((to, sign))
    starts = sorted(graph.nodes, key=lambda n: (n.startswith("$"), n))
    for s in starts:
        parent: dict[tuple[str, str], tuple[str, str, SignedEdge]] = {}
        seen = {(s, PLUS)}
        queue = deque([(s, PLUS)])
        goal = (s, MINUS)
        while queue:
            node, sign = queue.popleft()
            for to, esign in adj[node]:
                nxt = (to, PLUS if sign == esign else MINUS)
                if nxt in seen:
                    continue
                seen.add(nxt)
                parent[nxt] = (node, sign, (node, to, esign))
                if nxt == goal:
                    path: list[SignedEdge] = []
                    cur = nxt
                    while cur != (s, PLUS):
                        pnode, psign, edge = parent[cur]
                        path.append(edge)
                        cur = (pnode, psign)
                    return PolarityFail(tuple(reversed(path)))
                queue.append(nxt)
    return PolarityPass()


class Decoration(Record):
    """Sign per constant; ± marks already-solved and self-defined constants."""

    assignment: tuple[tuple[str, str], ...]

    @staticmethod
    def of(mapping: dict[str, str]) -> "Decoration":
        return Decoration(tuple(sorted(mapping.items())))

    def as_dict(self) -> dict[str, str]:
        return dict(self.assignment)


class NoDecoration(Record):
    conflict: tuple[str, ...]


def decorate_class(
    axioms: Axioms, cls: frozenset[str], solved: frozenset[str] = frozenset()
) -> Decoration | NoDecoration:
    """Two-colour the class so signs agree with its axioms.

    Each signed_graph edge between two constants of the class that are
    neither solved nor self-defined forces their signs apart (-) or together
    (+); solved and self-defined constants take ± and constrain nothing.
    Components are seeded + at their least constant.
    """
    _check_complete(axioms)
    for c in cls:
        if c not in axioms:
            raise UndefinedConstant(f"{c!r} has no axiom")
        for d in mentioned(axioms[c]):
            if d not in cls and d not in solved:
                raise UndefinedConstant(
                    f"{d!r} (in axiom of {c!r}) neither in the class nor solved"
                )
    out: dict[str, str] = {s: BOTH for s in solved}
    flexible = {c for c in cls if isinstance(axioms[c], SelfC)} | set(solved)
    for c in cls:
        if c in flexible:
            out[c] = BOTH

    active = sorted(c for c in cls if c not in flexible)
    same: dict[str, set[tuple[str, str]]] = {c: set() for c in active}
    for c, d, rel in signed_graph(axioms).edges:
        if c in same and d in same:
            same[c].add((d, rel))
            same[d].add((c, rel))

    color: dict[str, str] = {}
    parent: dict[str, str | None] = {}
    for root in active:
        if root in color:
            continue
        color[root] = PLUS
        parent[root] = None
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v, rel in sorted(same[u]):
                want = color[u] if rel == PLUS else (MINUS if color[u] == PLUS else PLUS)
                if v not in color:
                    color[v] = want
                    parent[v] = u
                    queue.append(v)
                elif color[v] != want:
                    def chain(x: str) -> list[str]:
                        path = [x]
                        while parent[path[-1]] is not None:
                            path.append(parent[path[-1]])
                        return path
                    up, vp = chain(u), chain(v)
                    common = next(x for x in up if x in set(vp))
                    cycle = up[: up.index(common) + 1] + vp[: vp.index(common)][::-1]
                    return NoDecoration(tuple(cycle))
    out.update(color)
    return Decoration.of(out)


class StagingFailure(Record):
    reason: str


Stage = tuple[frozenset[str], Decoration]


def stage_plan(axioms: Axioms) -> list[Stage] | StagingFailure:
    """Decorate classes bottom-up along the partial order.

    Minimal classes go first (ties by least constant name); each later class
    treats all previously staged constants as solved.  Total whenever the
    positive polarity check passes.
    """
    poset = equivalence_classes(axioms)
    deps: dict[int, set[int]] = {
        j: {i for (i, jj) in poset.order if jj == j and i != j}
        for j in range(len(poset.classes))
    }
    sorter = TopologicalSorter(deps)
    sorter.prepare()
    plan: list[Stage] = []
    solved: set[str] = set()
    while sorter.is_active():
        batch = sorted(sorter.get_ready(), key=lambda i: min(poset.classes[i]))
        for i in batch:
            cls = poset.classes[i]
            dec = decorate_class(axioms, cls, frozenset(solved))
            if isinstance(dec, NoDecoration):
                return StagingFailure(
                    f"class {sorted(cls)} has conflicting signs via {list(dec.conflict)}"
                )
            plan.append((cls, dec))
            solved |= cls
            sorter.done(i)
    return plan
