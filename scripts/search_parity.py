#!/usr/bin/env python3
"""Compare infer_bounded's search with the search that re-expands.

The search stores a None that leaned on a cut-off cycle once the goals it
leaned on have failed; tests/test_assignment.py keeps the rule it replaced,
RefSearch, which expands such a goal again each time it is asked.  This runs
the comparison of TestSettledSearch as a long seeded sweep: built-in
theories, random ones, and random ones of the shape where a None waits on a
goal that is later Found; closed and open terms, fuel 0-5000, widths 1-2.
Wherever the reference finishes within its fuel, the two must give the
same answer and print the same derivation, and the search may expand no
more goals; where the reference runs out, a Found must still check.

    PYTHONPATH=src python3 scripts/search_parity.py --seed 1 --count 2000

Each differing query is printed as its theory's .itt text, the basis, the
term and the type; the exit code is 1 when any differs, else 0.
"""

import argparse
import pathlib
import random
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tests"))

import test_assignment  # noqa: E402

MAX_FUEL = 5_000


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--count", type=int, default=1000)
    args = p.parse_args(argv)
    rng = random.Random(f"search-parity:{args.seed}")
    rows = test_assignment.parity_queries(rng, args.count, MAX_FUEL)
    differing = 0
    for row in rows:
        why = test_assignment.search_parity(row)
        if why is None:
            continue
        differing += 1
        text, basis, term, target, fuel, width = row
        print(f"# {why} (fuel {fuel}, width {width})")
        print(text, end="")
        print(f"# {basis or '(empty basis)'} |- {term} : {target}\n")
    print(f"{differing} of {len(rows)} queries differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
