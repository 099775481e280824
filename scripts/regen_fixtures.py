#!/usr/bin/env python3
"""Regenerate the seven pinned fixtures under tests/data.

Computes, with the ittlab on sys.path:

- answer_fingerprints.json: the sha256 of the repr of each answer in the
  query sequence of tests/test_answers.py;
- parse_fingerprints.json: one sha256 and one input count per parser over
  the seeded corpus of tests/test_parsing.py;
- saturation_fingerprints.json, justification_fingerprints.json and
  probe_verdicts.json: the saturated fact set of every built-in theory's own
  universe at widths 1-3; the rule and premises recorded for each fact of
  those universes, of the universes of CERTIFIED_PAIRS and of a small TopLe
  theory; and both probes' verdicts over probe_cases, all from
  tests/test_subtyping.py;
- transformation_fingerprints.json: the sha256 of the printed output (or
  the refusal) of weaken, strengthen, le_left and expand_derivation on seeded
  infer_bounded derivations, from tests/test_assignment.py;
- cli_fingerprints.json: the exit code and the sha256 of the standard output
  of each command of tests/test_cli.py's pinned list, as text and as --json.

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

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tests"))

import test_answers  # noqa: E402
import test_assignment  # noqa: E402
import test_cli  # noqa: E402
import test_parsing  # noqa: E402
import test_subtyping  # noqa: E402

# (file, compute, json.dumps keywords): each file keeps its own layout
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
            keys = differing(json.loads(path.read_text(encoding="utf-8")), data)
            changed = changed or bool(keys)
            print(f"{path.name}: {len(keys)} of {len(leaves(data))} entries differ")
            for k in keys:
                print(f"  {k}")
        else:
            path.write_text(json.dumps(data, **layout) + "\n", encoding="utf-8")
            print(f"wrote {len(data)} entries to {path}")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
