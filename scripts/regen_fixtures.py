#!/usr/bin/env python3
"""Regenerate the pinned fixtures: seven under tests/data, two corpus goldens.

Computes, with the ittlab on sys.path:

- answer_fingerprints.json: the sha256 of the repr of each answer in the
  query sequence of tests/test_answers.py;
- parse_fingerprints.json: one sha256 and one input count per parser over
  the seeded corpus of tests/test_parsing.py;
- saturation_fingerprints.json, justification_fingerprints.json and
  probe_verdicts.json: the saturated fact set of every built-in theory's own
  universe at widths 1-3; the rule and premises recorded for each fact of
  those universes, of the universes of CERTIFIED_PAIRS and of a small TopLe
  theory; and the beta probe's verdicts over probe_cases, all from
  tests/test_subtyping.py;
- transformation_fingerprints.json: the sha256 of the printed output (or
  the refusal) of weaken, le_left and expand_derivation on seeded
  infer_bounded derivations, from tests/test_assignment.py;
- cli_fingerprints.json: the exit code and the sha256 of the standard output
  of each command of tests/test_cli.py's pinned list, as text and as --json;
- src/ittlab/corpus/verdicts.json: the expected verdict of every built-in
  theory, at verdict's default fuel, width and chain depth, the only budgets
  `ittlab corpus` runs at;
- src/ittlab/corpus/derivations/omega2omega2_c3.drv: the golden typing
  derivation of the unsolvable self-application in T4, one text entry.

The fixtures pin answers across engine and parser changes.  With --check
it writes nothing: it prints, per file, how many entries (leaves of the JSON
value) differ from the checked-in file and their keys, and exits 1 when any
does.

    PYTHONPATH=src python3 scripts/regen_fixtures.py --check
    PYTHONPATH=src python3 scripts/regen_fixtures.py

A change that must keep every answer regenerates nothing: --check must find
no difference.  A change that declares new answers or certificates runs
--check on the changed tree, quotes its counts where the change is
described, then regenerates the files on the changed tree.
"""

import argparse
import json
import pathlib
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
CORPUS = REPO / "src" / "ittlab" / "corpus"
sys.path.insert(0, str(REPO / "tests"))

import test_answers  # noqa: E402
import test_assignment  # noqa: E402
import test_cli  # noqa: E402
import test_parsing  # noqa: E402
import test_subtyping  # noqa: E402
from ittlab.assignment import Found, infer_bounded  # noqa: E402
from ittlab.kernel import Basis, Valid, check_derivation  # noqa: E402
from ittlab.sensibility import builtin_theories, evidence_summary, verdict  # noqa: E402
from ittlab.sexpr import unparse_derivation  # noqa: E402
from ittlab.terms import parse_term  # noqa: E402
from ittlab.types import parse_ty  # noqa: E402


def verdict_table() -> dict[str, dict]:
    """Each built-in theory's verdict class and evidence summary, at
    verdict's defaults."""
    table = {}
    for name, entry in builtin_theories().entries:
        v = verdict(entry.spec)
        table[name] = {"verdict": type(v).__name__, "evidence": evidence_summary(v)}
    return table


def golden_derivation() -> str:
    """The printed derivation the search finds for T4 |- omega2 omega2 : c3."""
    t4 = builtin_theories().lookup("T4").spec
    term = parse_term(r"(\x. x x) (\x. x x)")
    r = infer_bounded(t4, Basis.of(), term, parse_ty("c3"), fuel=500)
    assert isinstance(r, Found), r
    assert check_derivation(t4, r.derivation) == Valid(), r
    return unparse_derivation(r.derivation) + "\n"


# (file, compute, json.dumps keywords or None for a text file): each file
# keeps its own layout
FIXTURES = (
    (test_answers.FINGERPRINTS, test_answers.answer_fingerprints, {"indent": 1}),
    (test_parsing.PARSE_FINGERPRINTS, test_parsing.parse_fingerprints, {"indent": 1}),
    (
        test_subtyping.FINGERPRINTS,
        test_subtyping.saturation_fingerprints,
        {"indent": 2, "sort_keys": True},
    ),
    (
        test_subtyping.JUSTIFICATIONS,
        test_subtyping.justification_fingerprints,
        {"indent": 2, "sort_keys": True},
    ),
    (
        test_subtyping.PROBE_VERDICTS,
        test_subtyping.probe_verdicts,
        {"indent": 2, "sort_keys": True},
    ),
    (
        test_assignment.TRANSFORMATIONS,
        test_assignment.transformation_fingerprints,
        {"indent": 2, "sort_keys": True},
    ),
    (test_cli.CLI_FINGERPRINTS, test_cli.cli_fingerprints, {"indent": 2, "sort_keys": True}),
    (CORPUS / "verdicts.json", verdict_table, {"indent": 2, "sort_keys": True}),
    (CORPUS / "derivations" / "omega2omega2_c3.drv", golden_derivation, None),
)


def leaves(value, key: tuple = ()) -> dict[tuple, object]:
    """The leaves of a JSON value, by their path of keys and list indices."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return {key: value}
    out: dict[tuple, object] = {}
    for k, v in items:
        out.update(leaves(v, key + (k,)))
    return out


def differing(old, new) -> list[str]:
    """The keys of the leaves that differ between old and new, or that only
    one of them has, each printed as its path joined by ' / '."""
    a, b = leaves(old), leaves(new)
    keys = sorted((k for k in a.keys() | b.keys() if a.get(k, a) != b.get(k, b)), key=repr)
    return [" / ".join(map(str, k)) for k in keys]


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument(
        "--check", action="store_true",
        help="write nothing; report the entries that differ and exit 1 if any does",
    )
    args = p.parse_args(argv)
    changed = False
    for path, compute, layout in FIXTURES:
        data = compute()
        if args.check:
            text = path.read_text(encoding="utf-8")
            keys = differing(text if layout is None else json.loads(text), data)
            changed = changed or bool(keys)
            print(f"{path.name}: {len(keys)} of {len(leaves(data))} entries differ")
            for k in keys:
                print(f"  {k}")
        else:
            text = data if layout is None else json.dumps(data, **layout) + "\n"
            path.write_text(text, encoding="utf-8")
            print(f"wrote {len(leaves(data))} entries to {path}")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
