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

The fixtures pin answers across engine and parser changes, so run this on a
checkout whose answers are trusted, for example a clean clone of the commit
before the change, then copy the files into the changed tree:

    PYTHONPATH=src python3 scripts/regen_fixtures.py
"""

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


def main() -> None:
    for path, compute, layout in FIXTURES:
        data = compute()
        path.write_text(json.dumps(data, **layout) + "\n", encoding="utf-8")
        print(f"wrote {len(data)} entries to {path}")


if __name__ == "__main__":
    main()
