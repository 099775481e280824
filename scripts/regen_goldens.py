#!/usr/bin/env python3
"""Regenerate frozen corpus artifacts from the current implementation.

Writes the golden typing derivation for the unsolvable self-application in
T4 and the expected-verdict table for every built-in theory, the latter at
verdict's default fuel, width and chain depth, the only budgets `ittlab
corpus` runs at.  Run after a deliberate behaviour change, then review the
diff before committing.
"""

import json
import pathlib

from ittlab.assignment import Basis, Found, check_derivation, infer_bounded
from ittlab.sensibility import builtin_theories, evidence_summary, verdict
from ittlab.sexpr import unparse_derivation
from ittlab.terms import parse_term
from ittlab.types import parse_ty

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "src" / "ittlab" / "corpus"


def golden_derivation() -> None:
    reg = builtin_theories()
    t4 = reg.lookup("T4").spec
    term = parse_term(r"(\x. x x) (\x. x x)")
    r = infer_bounded(t4, Basis.of(), term, parse_ty("c3"), fuel=500)
    assert isinstance(r, Found), r
    assert check_derivation(t4, r.derivation).__class__.__name__ == "Valid"
    out = CORPUS / "derivations" / "omega2omega2_c3.drv"
    out.write_text(unparse_derivation(r.derivation) + "\n", encoding="utf-8")
    print(f"wrote {out}")


def verdict_table() -> None:
    table = {}
    for name, entry in builtin_theories().entries:
        v = verdict(entry.spec)
        table[name] = {
            "verdict": type(v).__name__,
            "evidence": evidence_summary(v),
        }
    out = CORPUS / "verdicts.json"
    out.write_text(
        json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {out}")


if __name__ == "__main__":
    golden_derivation()
    verdict_table()
