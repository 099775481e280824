#!/usr/bin/env python3
"""The ittlab benchmark: one seeded workload per run.

    python3 bench/run.py --workload {corpus,subtype,infer,probe} \
        --seed N --seconds S --trace {0,1}

Everything runs in this process on one thread, as a closed loop with one
client: the next query starts only after the previous one returns.  A run
repeats passes over the seed's fixed query list while the next pass is
expected to end within ``--seconds``.  Every pass starts with an empty
``saturated_ctx`` cache, because every command-line invocation pays
saturation cold.  Timings are given in units of ``reference()``, a fixed
piece of interpreter work timed next to every query, so that they hold still
while the speed of a shared machine drifts.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  Every answer is checked; a wrong or
unchecked answer makes the run exit with code 1.  The last line of standard
output is one JSON object with the keys correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 8
SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import ittlab
from ittlab.sensibility import builtin_theories, registered_maps
builtin_theories()
registered_maps()
print(time.perf_counter() - t0)
"""


REF_LOOPS = 400
# Query i is set against refs[i - 2:i + 4]: three reference times before it
# and three after it.
REF_WINDOW = (2, 4)


def reference() -> int:
    """A fixed piece of interpreter work, the unit the timings are given in.

    It hashes small tuples into a small dict, as the library does with its
    types and terms, and its working set stays in the first-level cache."""
    d: dict = {}
    for i in range(REF_LOOPS):
        k = (i & 15, i & 3)
        d[k] = d.get(k, 0) + i
    return len(d)


@dataclass
class Pass:
    wall: float
    latencies: list[float]
    decided: int
    errors: list[str] = field(default_factory=list)
    # reference times before each query and after the last one; empty when
    # the pass ran without them
    refs: list[float] = field(default_factory=list)

    def costs(self) -> list[float]:
        """Each query's time over the median reference time around it."""
        lo, hi = REF_WINDOW
        n = len(self.refs)
        return [
            t / statistics.median(self.refs[max(0, i - lo):min(n, i + hi)])
            for i, t in enumerate(self.latencies)
        ]


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks, as numpy's default."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def measure_setup() -> list[float]:
    """Import plus registry load, each time in a fresh interpreter."""
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def run_pass(queries, answer, clear_cache, with_refs=False) -> Pass:
    """One pass over the queries.  With ``with_refs`` the reference work is
    timed before each query and after the last, outside the query times."""
    clear_cache()
    gc.collect()
    latencies = []
    refs = []
    decided = 0
    errors = []
    clock = time.perf_counter
    t0 = clock()
    for q in queries:
        if with_refs:
            s = clock()
            reference()
            refs.append(clock() - s)
        s = clock()
        try:
            decided += answer(q)
        except Exception as e:  # a failing query is counted, the run goes on
            errors.append(f"{q.theory} {q.text!r}: {type(e).__name__}: {e}")
        latencies.append(clock() - s)
    if with_refs:
        s = clock()
        reference()
        refs.append(clock() - s)
    return Pass(clock() - t0, latencies, decided, errors, refs)


def run_passes(queries, answer, clear_cache, seconds: float, after=None,
               with_refs=False) -> list[Pass]:
    """At least one pass; another while it is expected to end within
    ``seconds``.  ``after`` sees each pass as it ends."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(queries, answer, clear_cache, with_refs))
        if after is not None:
            after(passes[-1])
        if time.perf_counter() - start + passes[-1].wall > seconds:
            return passes


def end_to_end(passes: list[Pass], setup: list[float], per_pass: int) -> dict:
    # Timings in reference units: on a shared 2-CPU virtual machine the speed
    # alternates between a fast and a slow state, in proportions that drift
    # over minutes, and the slow state costs CPU time too.  The reference
    # work timed around each query slows down with it, so a query's time over
    # the reference time around it changes far less than either.  Each
    # query's cost is its median over the passes; wall_ref sums them.
    cost = [statistics.median(cs) for cs in zip(*(p.costs() for p in passes))]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_ref": (sum(cost), "ref"),
        "latency_p50_ref": (percentile(cost, 0.5), "ref"),
        "latency_p90_ref": (percentile(cost, 0.9), "ref"),
        "decided_ratio": (passes[0].decided / per_pass, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def raw_times(passes: list[Pass], per_pass: int) -> dict:
    """The same figures in plain time, for reading only: each query's median
    time over the passes, and the median reference time."""
    t = [statistics.median(ts) for ts in zip(*(p.latencies for p in passes))]
    refs = [r for p in passes for r in p.refs]
    return {
        "wall_s": (sum(t), "s"),
        "throughput_qps": (per_pass / sum(t), "queries/s"),
        "latency_p50_ms": (percentile(t, 0.5) * 1e3, "ms"),
        "latency_p90_ms": (percentile(t, 0.9) * 1e3, "ms"),
        "ref_us": (statistics.median(refs) * 1e6, "us"),
    }


def per_layer(tracer, setup_window, untraced_wall) -> dict:
    """Per traced pass averages of span times, plus the first pass's counts."""
    from tracing import LAYERS, PROOF, span_times

    k = len(tracer.passes)
    self_s: dict[str, float] = {}
    incl_s: dict[str, float] = {}
    covered = wall = saturate = 0.0
    for tp in tracer.passes:
        s, i, cov = span_times(tracer.spans, tp.lo, tp.hi)
        for name, v in s.items():
            self_s[name] = self_s.get(name, 0.0) + v / k
        for name, v in i.items():
            incl_s[name] = incl_s.get(name, 0.0) + v / k
        covered += cov / k
        wall += tp.wall / k
        saturate += tp.saturate_s / k
    _, setup_incl, _ = span_times(tracer.spans, *setup_window)

    c = tracer.passes[0].counts
    sec = lambda name: incl_s.get(name, 0.0)  # noqa: E731
    ratio = lambda a, b: c[a] / c[b] if c[b] else 0.0  # noqa: E731
    m = {
        "terms.head_reduce_s": (sec("terms.head_reduce"), "s"),
        "terms.head_steps": (c["head_steps"], "count"),
        "terms.parse_term_s": (sec("terms.parse_term"), "s"),
        "types.parse_ty_s": (sec("types.parse_ty"), "s"),
        "theory.parse_theory_s": (setup_incl.get("theory.parse_theory", 0.0), "s"),
        "theory.validate_natural_s": (sec("theory.validate_natural"), "s"),
        "sexpr.parse_constant_map_s": (setup_incl.get("sexpr.parse_constant_map", 0.0), "s"),
        "subtyping.build_universe_s": (sec("subtyping.build_universe"), "s"),
        "subtyping.universe_members": (c["universe_members"], "count"),
        "subtyping.saturate_s": (saturate, "s"),
        "subtyping.saturations": (c["saturations"], "count"),
        "subtyping.facts": (c["facts"], "count"),
        "subtyping.facts_per_s": (c["facts"] / saturate if saturate else 0.0, "1/s"),
        "subtyping.ctx_cache_hit_ratio": (
            c["ctx_hits"] / (c["ctx_hits"] + c["saturations"])
            if c["ctx_hits"] + c["saturations"] else 0.0,
            "ratio",
        ),
        "subtyping.proof_s": (sec(PROOF), "s"),
        "subtyping.proof_nodes": (c["proof_nodes"], "count"),
        "subtyping.check_subproof_s": (sec("subtyping.check_subproof"), "s"),
        "assignment.infer_self_s": (self_s.get("assignment.infer_bounded", 0.0), "s"),
        "assignment.infer_calls": (c["infer_calls"], "count"),
        "assignment.found_ratio": (ratio("infer_found", "infer_calls"), "ratio"),
        "assignment.check_derivation_s": (sec("assignment.check_derivation"), "s"),
        "assignment.derivation_nodes": (c["derivation_nodes"], "count"),
        "polarity.check_s": (
            sec("polarity.completion") + sec("polarity.check_positive_polarity"), "s"
        ),
        "embedding.verify_s": (sec("embedding.verify_embedding"), "s"),
        "embedding.verify_calls": (c["verify_calls"], "count"),
        "embedding.verified_ratio": (ratio("verified", "verify_calls"), "ratio"),
        "embedding.transfer_s": (
            sec("embedding.transfer_sensible") + sec("embedding.transfer_nonsensible"), "s"
        ),
        "sensibility.verdict_self_s": (self_s.get("sensibility.verdict", 0.0), "s"),
        "sensibility.probe_self_s": (
            self_s.get("sensibility.probe_unsolvable_typing", 0.0), "s"
        ),
        "sensibility.probe_calls": (c["probe_calls"], "count"),
        "sensibility.witness_ratio": (ratio("witnesses", "probe_calls"), "ratio"),
        "probes.beta_self_s": (self_s.get("probes.beta_soundness_probe", 0.0), "s"),
    }
    for layer in LAYERS:
        layer_self = sum(v for n, v in self_s.items() if n.split(".", 1)[0] == layer)
        m[f"{layer}.self_s"] = (layer_self, "s")
    m["trace.unattributed_s"] = (wall - covered, "s")
    m["trace.wall_s"] = (wall, "s")
    m["trace.overhead_ratio"] = (wall / untraced_wall, "ratio")
    return m


def print_layer_table(m: dict) -> None:
    from tracing import LAYERS

    wall = m["trace.wall_s"][0]
    rows = [(layer, m[f"{layer}.self_s"][0]) for layer in LAYERS]
    rows.sort(key=lambda r: -r[1])
    print(f"{'layer':14s} {'self_s':>10s} {'share':>7s}")
    for layer, s in rows + [("(unattributed)", m["trace.unattributed_s"][0])]:
        print(f"{layer:14s} {s:10.4f} {s / wall:7.1%}")
    print(f"top layers by self time: {rows[0][0]}, {rows[1][0]}")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("corpus", "subtype", "infer", "probe"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "ittlab" / "__init__.py").is_file():
        print(f"error: no ittlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from tracing import Tracer
    from workloads import PASS_QUERIES, RUNNERS, make_queries

    # Half the set-up samples before the timed phase and half after, so that
    # they see more than one state of a shared machine.
    setup = [] if args.trace else measure_setup()

    t0 = time.perf_counter()
    tracer = Tracer()
    import ittlab
    from ittlab import subtyping
    from ittlab.sensibility import builtin_theories, registered_maps

    if args.trace:
        tracer.install()
    lo = len(tracer.spans)
    registry = builtin_theories()
    registered_maps()
    setup_window = (lo, len(tracer.spans))
    tracer.uninstall()

    clear_cache = subtyping.saturated_ctx.cache_clear
    queries = make_queries(args.workload, args.seed, registry)
    answer = RUNNERS[args.workload](ittlab, registry)
    per_pass = PASS_QUERIES[args.workload]

    if not args.trace:
        passes = run_passes(queries, answer, clear_cache, args.seconds, with_refs=True)
        setup += measure_setup()
        metrics = end_to_end(passes, setup, per_pass)
    else:
        # Half the time untraced, for the overhead ratio, then traced passes.
        passes = run_passes(queries, answer, clear_cache, args.seconds / 2)
        untraced_wall = statistics.fmean(p.wall for p in passes)
        tracer.install()

        def traced_clear():
            clear_cache()
            tracer.start_pass()

        passes += run_passes(queries, answer, traced_clear, args.seconds / 2,
                             after=lambda p_: tracer.end_pass(p_.wall))
        tracer.uninstall()
        counts = [tp.counts for tp in tracer.passes]
        unfit = sorted(k for k in counts[0] if any(c[k] != counts[0][k] for c in counts))
        if unfit:
            print(f"counters that differ between traced passes: {', '.join(unfit)}")
        metrics = per_layer(tracer, setup_window, untraced_wall)
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans_{args.workload}_{args.seed}.jsonl"
        tracer.write(spans_path, t0)
        print(f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
        print_layer_table(metrics)

    attempted = sum(len(p.latencies) for p in passes)
    errors = [e for p in passes for e in p.errors]
    if len({p.decided for p in passes}) > 1:
        errors.append(f"decided counts differ between passes: {[p.decided for p in passes]}")
    for e in errors[:10]:
        print(f"error: {e}", file=sys.stderr)

    print(
        f"workload {args.workload} seed {args.seed}: {len(passes)} passes of "
        f"{per_pass} queries, {attempted} attempted, {len(errors)} failed"
    )
    print(f"{'error_ratio':30s} {len(errors) / attempted:.6g} ratio (n={attempted})")
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "wall_ref": f"sum of {per_pass} queries' medians over {len(passes)} passes",
        "latency_p50_ref": f"n={per_pass}, each query's median over {len(passes)} passes",
        "latency_p90_ref": f"n={per_pass}, each query's median over {len(passes)} passes",
        "decided_ratio": f"n={per_pass} per pass",
    }
    for name, (value, unit) in metrics.items():
        note = f" ({notes[name]})" if name in notes and not args.trace else ""
        print(f"{name:30s} {value:.6g} {unit}{note}")
    if not args.trace:
        print("the same in plain time (not metrics; they move with the machine):")
        for name, (value, unit) in raw_times(passes, per_pass).items():
            print(f"  {name:28s} {value:.6g} {unit}")

    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
