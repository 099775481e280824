"""Every definition in src/ittlab is reached from an entry point, or is deleted.

The entry points are each module's import-time code, `cli.main`, the
benchmark scripts under bench/ and the acceptance suite: tests/
test_acceptance.py and the property tests its criterion 7 names, with the
test-local helpers and strategies those tests name.

The walk reads the sources with ast and names only; it imports and runs
nothing.  A top-level function, class or method is reached when reached code
names it, as a bare name or as an attribute, in any module; its body is then
reached code too.  Imports and annotations name nothing: neither runs the
definition.  Dunder functions and methods are reached: Python calls them
without naming them.
"""

import ast
import pathlib

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "ittlab"
TESTS = REPO / "tests"

# the property tests that acceptance criterion 7 names, by test module
PROPERTY_TESTS = {
    "test_terms": ("test_shape_total_and_unique", "test_hnf_has_no_head_step"),
    "test_subtyping": (
        "test_aci_laws_proven_everywhere",
        "test_width_monotone",
        "test_engine_matches_naive_closure",
    ),
    "test_assignment": (
        "TestExpansion.test_round_trip_property",
        "TestAdmissible.test_weaken_then_le_left_on_random_derivations",
        "TestFilters.test_apply_monotone",
    ),
    "test_polarity": ("test_stage_plan_total_iff_polarity_passes",),
    "test_cli": ("test_polarity_reports_are_deterministic",),
}

# definitions kept without a caller, each with the reason it stays
ALLOWED = {
    "theory.back_substitute": "the tests' oracle for validate_natural; a "
    "checker of polarity stage plans is to call it",
    "sexpr.parse_subproof": "reads the subproof certificates the CLI emits; "
    "a re-checker of saved reports needs it",
    "cli._Parser.error": "argparse calls it on a usage error",
}

Def = ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef


def _names(nodes) -> set[str]:
    """The names that nodes use: bare names and attribute names, outside
    imports and annotations."""
    out: set[str] = set()
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        for field, value in ast.iter_fields(node):
            if field in ("annotation", "returns"):
                continue
            if isinstance(value, ast.AST):
                stack.append(value)
            elif isinstance(value, list):
                stack.extend(v for v in value if isinstance(v, ast.AST))
    return out


def _header(d: Def) -> list[ast.AST]:
    """What runs when d's def or class statement runs: its decorators and
    default values, or its decorators, bases and keywords."""
    if isinstance(d, ast.ClassDef):
        return [*d.decorator_list, *d.bases, *d.keywords]
    return [*d.decorator_list, *d.args.defaults, *(x for x in d.args.kw_defaults if x)]


def _import_time(body: list[ast.stmt]) -> list[ast.AST]:
    """The code that runs when a module or class body runs: every statement
    except the bodies of its functions, class bodies included."""
    out: list[ast.AST] = []
    for stmt in body:
        if isinstance(stmt, ast.ClassDef):
            out += _header(stmt) + _import_time(stmt.body)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out += _header(stmt)
        else:
            out.append(stmt)
    return out


def _parse(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _definitions(module: str, tree: ast.Module) -> dict[str, Def]:
    """module's top-level functions and classes and its classes' methods,
    by qualified name."""
    out: dict[str, Def] = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out[f"{module}.{stmt.name}"] = stmt
        if isinstance(stmt, ast.ClassDef):
            for inner in stmt.body:
                if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    out[f"{module}.{stmt.name}.{inner.name}"] = inner
    return out


def _body(d: Def) -> list[ast.AST]:
    """The code a reached definition adds: a function's body; a class's body
    already ran at import time."""
    return [] if isinstance(d, ast.ClassDef) else list(d.body)


def _test_locals(tree: ast.Module) -> dict[str, list[ast.AST]]:
    """A test module's helpers by name: its functions, its classes' methods
    and its top-level assignments, each with the code that naming it runs."""
    out: dict[str, list[ast.AST]] = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.setdefault(stmt.name, []).extend([*_header(stmt), *stmt.body])
        elif isinstance(stmt, ast.ClassDef):
            for inner in stmt.body:
                if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    out.setdefault(inner.name, []).extend([*_header(inner), *inner.body])
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for name in _names(targets):
                out.setdefault(name, []).append(stmt)
    return out


def _property_test_names() -> set[str]:
    """The names the property tests use, following the test-local helpers
    they name through their own modules."""
    names: set[str] = set()
    for module, tests in PROPERTY_TESTS.items():
        local = _test_locals(_parse(TESTS / f"{module}.py"))
        code = [n for q in tests for n in local[q.rsplit(".", 1)[-1]]]
        seen: set[str] = set()
        while code:
            new = _names(code) - seen
            seen |= new
            code = [n for name in new for n in local.get(name, ())]
        names |= seen
    return names


def unreached() -> list[str]:
    """The definitions in src/ittlab that no entry point reaches, by
    qualified name, ALLOWED included."""
    defs: dict[str, Def] = {}
    roots: list[ast.AST] = []
    for path in sorted(SRC.glob("*.py")):
        tree = _parse(path)
        defs.update(_definitions(path.stem, tree))
        roots += _import_time(tree.body)
    roots += defs["cli.main"].body
    for path in [*sorted((REPO / "bench").glob("*.py")), TESTS / "test_acceptance.py"]:
        roots += _parse(path).body
    by_name: dict[str, list[str]] = {}
    for qual in defs:
        by_name.setdefault(qual.rsplit(".", 1)[1], []).append(qual)

    # dunders are reached unnamed: Python calls them
    names = _names(roots) | _property_test_names() | {n for n in by_name if n[:2] == "__"}
    reached: set[str] = {"cli.main"}
    todo = sorted(names)
    while todo:
        for qual in by_name.get(todo.pop(), ()):
            if qual not in reached:
                reached.add(qual)
                new = _names(_body(defs[qual])) - names
                names |= new
                todo += sorted(new)
    return sorted(set(defs) - reached)


def test_every_definition_is_reached():
    missing = unreached()
    # an allowed definition that gains a caller, or is deleted, leaves ALLOWED
    assert sorted(ALLOWED.keys() - set(missing)) == []
    stray = [q for q in missing if q not in ALLOWED]
    assert not stray, "reached from no entry point: " + ", ".join(stray)
