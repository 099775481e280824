#!/usr/bin/env python3
"""Regenerate tests/data/answer_fingerprints.json and
tests/data/parse_fingerprints.json.

Runs the query sequence of tests/test_answers.py against the ittlab on
sys.path and writes the sha256 of the repr of each answer; then runs every
parser over the seeded corpus of tests/test_parsing.py and writes one sha256
and one input count per parser.  Run it on a checkout whose answers are
trusted, for example a clean clone of the commit before an engine or parser
change, then copy the files into the changed tree:

    PYTHONPATH=src python3 scripts/regen_answer_fingerprints.py
"""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tests"))

from test_answers import FINGERPRINTS, answer_fingerprints  # noqa: E402
from test_parsing import PARSE_FINGERPRINTS, parse_fingerprints  # noqa: E402


def main() -> None:
    digests = answer_fingerprints()
    FINGERPRINTS.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} fingerprints to {FINGERPRINTS}")
    parsers = parse_fingerprints()
    PARSE_FINGERPRINTS.write_text(json.dumps(parsers, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(parsers)} parser fingerprints to {PARSE_FINGERPRINTS}")


if __name__ == "__main__":
    main()
