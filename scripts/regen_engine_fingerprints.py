#!/usr/bin/env python3
"""Regenerate the engine fixtures that tests/test_subtyping.py checks.

Writes tests/data/saturation_fingerprints.json (the saturated fact set of
every built-in theory's own universe at widths 1-3),
tests/data/justification_fingerprints.json (the rule and premises recorded
for each of those facts) and tests/data/probe_verdicts.json (both probes'
verdicts over the cases of probe_cases), all computed by the ittlab on
sys.path.  The fixtures pin answers across engine changes, so run this on a
clean clone of the commit before the change, then copy the files into the
changed tree:

    PYTHONPATH=src python3 scripts/regen_engine_fingerprints.py
"""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tests"))

from test_subtyping import (  # noqa: E402
    FINGERPRINTS,
    JUSTIFICATIONS,
    PROBE_VERDICTS,
    justification_fingerprints,
    probe_verdicts,
    saturation_fingerprints,
)


def main() -> None:
    for path, data in (
        (FINGERPRINTS, saturation_fingerprints()),
        (JUSTIFICATIONS, justification_fingerprints()),
        (PROBE_VERDICTS, probe_verdicts()),
    ):
        path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {len(data)} entries to {path}")


if __name__ == "__main__":
    main()
