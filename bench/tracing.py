"""Spans and work counters around the library's public boundary functions.

The library is not modified.  ``Tracer.install`` replaces every module-level
binding of a traced function (``from .subtyping import saturated_ctx`` makes
one binding per importing module) with a wrapper that calls the original
object, so ``lru_cache`` behaves exactly as before.  Leaves called more than
about 10^4 times per run (``canonicalize``, ``holds``, ``head_step``) get no
span; their cost stays in the caller's self time.

A span is ``(name, start, end, parent)``.  Spans are kept in memory, written
out when the run ends, and self time is computed from them.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

# (module, function); the module that defines a function is its layer.
TRACED = (
    ("sensibility", "verdict"),
    ("sensibility", "probe_unsolvable_typing"),
    ("polarity", "completion"),
    ("polarity", "check_positive_polarity"),
    ("embedding", "verify_embedding"),
    ("embedding", "transfer_sensible"),
    ("embedding", "transfer_nonsensible"),
    ("assignment", "infer_bounded"),
    ("assignment", "check_derivation"),
    ("subtyping", "derive_le"),
    ("subtyping", "is_top_equiv"),
    ("subtyping", "build_universe"),
    ("subtyping", "saturated_ctx"),
    ("subtyping", "check_subproof"),
    ("terms", "head_reduce"),
    ("terms", "parse_term"),
    ("types", "parse_ty"),
    ("theory", "parse_theory"),
    ("theory", "validate_natural"),
    ("sexpr", "parse_constant_map"),
    ("probes", "beta_soundness_probe"),
)
PROOF = "subtyping.SubtypeCtx.proof"

LAYERS = (
    "terms", "types", "theory", "subtyping", "assignment",
    "polarity", "embedding", "sensibility", "probes", "sexpr",
)


def _dag_size(root, children) -> int:
    seen = {id(root)}
    stack = [root]
    while stack:
        for ch in children(stack.pop()):
            if id(ch) not in seen:
                seen.add(id(ch))
                stack.append(ch)
    return len(seen)


@dataclass
class TracedPass:
    lo: int  # spans[lo:hi] belong to the pass
    hi: int
    wall: float
    saturate_s: float
    counts: Counter


class Tracer:
    """Records spans and counters while installed; may be installed again."""

    def __init__(self) -> None:
        self.spans: list = []
        self.passes: list[TracedPass] = []
        self.counts: Counter = Counter()
        self.saturate_s = 0.0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._proofs: list = []
        self._derivations: list = []
        self._misses = 0
        self._lo = 0
        self._wrappers: dict[str, object] = {}
        self._originals: dict[str, object] = {}

    # -- counters at the boundaries --------------------------------------------

    def _observe(self, name: str, out, seconds: float) -> None:
        c = self.counts
        if name == "subtyping.saturated_ctx":
            misses = self._originals[name].cache_info().misses
            if misses > self._misses:
                c["saturations"] += 1
                c["facts"] += len(out.facts)
                self.saturate_s += seconds
            else:
                c["ctx_hits"] += 1
            self._misses = misses
        elif name == "subtyping.build_universe":
            c["universe_members"] += len(out.members)
        elif name == "terms.head_reduce":
            c["head_steps"] += out.steps
        elif name == PROOF:
            self._proofs.append(out)
        elif name == "assignment.infer_bounded":
            c["infer_calls"] += 1
            if hasattr(out, "derivation"):
                c["infer_found"] += 1
                self._derivations.append(out.derivation)
        elif name == "embedding.verify_embedding":
            c["verify_calls"] += 1
            c["verified"] += type(out).__name__ == "Verified"
        elif name == "sensibility.probe_unsolvable_typing":
            c["probe_calls"] += 1
            c["witnesses"] += type(out).__name__ == "Witness"

    def start_pass(self) -> None:
        """Call after ``saturated_ctx.cache_clear()``, which zeroes its stats."""
        self.counts = Counter()
        self.saturate_s = 0.0
        self._misses = 0
        self._lo = len(self.spans)

    def end_pass(self, wall: float) -> None:
        """Record the pass; the node counts are taken here, outside any span,
        so that counting does not inflate the traced times."""
        c = self.counts
        c["proof_nodes"] = sum(_dag_size(p, lambda n: n.premises) for p in self._proofs)
        c["derivation_nodes"] = sum(
            _dag_size(d, lambda n: n.children) for d in self._derivations
        )
        self._proofs.clear()
        self._derivations.clear()
        self.passes.append(TracedPass(self._lo, len(self.spans), wall, self.saturate_s, c))

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack, observe = self.spans, self._stack, self._observe
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent)
            observe(name, out, end - start)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        from ittlab import subtyping

        if not self._wrappers:
            for mod_name, fn_name in TRACED:
                name = f"{mod_name}.{fn_name}"
                original = getattr(importlib.import_module(f"ittlab.{mod_name}"), fn_name)
                self._originals[name] = original
                self._wrappers[name] = self._wrap(name, original)
            self._originals[PROOF] = subtyping.SubtypeCtx.proof
            self._wrappers[PROOF] = self._wrap(PROOF, subtyping.SubtypeCtx.proof)
        by_id = {id(fn): name for name, fn in self._originals.items()}
        for key, mod in list(sys.modules.items()):
            if key != "ittlab" and not key.startswith("ittlab."):
                continue
            for attr, value in list(vars(mod).items()):
                name = by_id.get(id(value))
                if name is not None and name != PROOF:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, self._wrappers[name])
        self._patched.append((subtyping.SubtypeCtx, "proof", self._originals[PROOF]))
        subtyping.SubtypeCtx.proof = self._wrappers[PROOF]

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    def write(self, path, t0: float) -> None:
        """One JSON line per span: name, start and end in seconds from t0, parent."""
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent in self.spans:
                f.write(json.dumps([name, round(start - t0, 7), round(end - t0, 7), parent]))
                f.write("\n")


def span_times(spans, lo: int, hi: int):
    """Self and inclusive seconds per span name over spans[lo:hi], and the
    seconds covered by spans with no parent inside the window."""
    child: dict[int, float] = defaultdict(float)
    for i in range(lo, hi):
        _, start, end, parent = spans[i]
        if parent >= lo:
            child[parent] += end - start
    self_s: dict[str, float] = defaultdict(float)
    incl_s: dict[str, float] = defaultdict(float)
    covered = 0.0
    for i in range(lo, hi):
        name, start, end, parent = spans[i]
        self_s[name] += (end - start) - child[i]
        if parent < lo:
            covered += end - start
        # inclusive time counts only the outermost span of a recursive name
        p = parent
        while p >= lo and spans[p][0] != name:
            p = spans[p][3]
        if p < lo:
            incl_s[name] += end - start
    return self_s, incl_s, covered
