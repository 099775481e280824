"""The library names the benchmark harness under bench/ looks up at run time.

The tracer patches every (module, function) in bench/tracing.py's TRACED, so
removing or renaming one breaks `bench/run.py --trace` with an AttributeError.
TRACED is read from the source, so the harness is neither imported nor run.
"""

import ast
import importlib
from pathlib import Path

import pytest

import ittlab
from ittlab import subtyping
from ittlab.theory import parse_theory

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _traced() -> tuple[tuple[str, str], ...]:
    tree = ast.parse((BENCH / "tracing.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py defines no TRACED")


def _resolve(dotted: str) -> object:
    module, *attrs = dotted.split(".")
    obj = importlib.import_module(f"ittlab.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


@pytest.mark.parametrize(
    "dotted",
    [f"{m}.{f}" for m, f in _traced()]
    + [
        "subtyping.SubtypeCtx.proof",
        "subtyping.saturated_ctx.cache_clear",
        "subtyping.saturated_ctx.cache_info",
        "sensibility.evidence_summary",
        "sensibility.builtin_theories",
        "sensibility.registered_maps",
    ],
)
def test_benchmark_name_resolves(dotted):
    assert callable(_resolve(dotted))


def test_tracer_reads_result_attributes():
    # the tracer counts len(out.members) off build_universe and len(out.facts)
    # off saturated_ctx; neither attribute is callable
    t = parse_theory("theory T; constants c; axiom c <= c -> c")
    universe = subtyping.build_universe(t, [])
    ctx = subtyping.saturated_ctx(t, universe)
    assert len(universe.members) == len(ctx.members)
    assert len(ctx.facts) >= len(universe.members)


def test_workloads_use_only_exported_names():
    # the runners reach the library as `lib.<name>` on the ittlab package
    tree = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
    used = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "lib"
    }
    assert used
    assert sorted(n for n in used if not hasattr(ittlab, n)) == []
