#!/usr/bin/env python3
"""Check the chain model banks against saturation and the witness probe.

A seeded sweep over random theories of the four constants c0-c3.  Half are
natural: 1-4 definitions c ~ T with all four flags.  Half are general: each
flag with probability 0.6 and 1-3 axioms A <= B or A ~ B, among them, with
probability 0.3 each, an axiom U <= d -> d.  Either kind declares an order
pair with probability 0.3.  Each type has at most 4 leaves over the
constants and U.  For each theory the sweep checks that

- no chain model, of height 2 or 3, refutes a fact that saturation
  derives, in the theory's base universe and in the universes of three
  random pairs; and
- a NonSensible verdict with a witness does not type its witness at a type
  A that is ~ U through an intermediate: U <= X and X <= A both Proven, for
  X among D -> U and D1 -> D2 -> U with D, D1, D2 subterms of the theory's
  axioms, the constants or U.

    PYTHONPATH=src python3 scripts/model_parity.py --seed 1 --count 600

Each offending theory is printed as .itt text with what went wrong; the
exit code is 1 when any theory offends, else 0.
"""

from __future__ import annotations

import argparse
import random
import sys

from ittlab.sensibility import NonSensible, Witness, verdict
from ittlab.subtyping import HEIGHTS, Proven, bits, chain_models, context_for, derive_le
from ittlab.theory import RuleFlag, TheorySpec, parse_theory
from ittlab.types import TOP, Arrow, Const, Ty, parse_ty, print_ty, subterms, ty_key

CONSTS = ("c0", "c1", "c2", "c3")
FLAGS = tuple(f.value for f in RuleFlag)


def random_ty(rng: random.Random, leaves: int) -> str:
    if leaves == 1:
        return rng.choice(CONSTS + ("U",))
    k = rng.randint(1, leaves - 1)
    op = rng.choice(("->", "&"))
    return f"({random_ty(rng, k)} {op} {random_ty(rng, leaves - k)})"


def random_theory(rng: random.Random, natural: bool) -> str:
    lines = ["theory R", "constants " + " ".join(CONSTS)]
    if natural:
        lines += ["natural", "flags " + " ".join(FLAGS)]
        for c in rng.sample(CONSTS, rng.randint(1, 4)):
            lines.append(f"axiom {c} ~ {random_ty(rng, rng.randint(1, 4))}")
    else:
        lines.append("flags " + " ".join(f for f in FLAGS if rng.random() < 0.6))
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.3:
                d = random_ty(rng, rng.randint(1, 2))
                lines.append(f"axiom U <= {d} -> {d}")
            else:
                lhs, rhs = random_ty(rng, rng.randint(1, 4)), random_ty(rng, rng.randint(1, 4))
                lines.append(f"axiom {lhs} {rng.choice(('<=', '~'))} {rhs}")
    if rng.random() < 0.3:
        lo, hi = rng.sample(CONSTS, 2)
        lines.append(f"order {lo} <= {hi}")
    return "\n".join(lines) + "\n"


def refuted_facts(t: TheorySpec, rng: random.Random) -> list[str]:
    """The saturated facts some chain model of the theory refutes."""
    banks = [bank for h in HEIGHTS if (bank := chain_models(t, h)) is not None]
    out = []
    seeds = [()] + [
        tuple(parse_ty(random_ty(rng, rng.randint(1, 3))) for _ in range(2)) for _ in range(3)
    ]
    for pair in seeds:
        ctx = context_for(t, pair)
        ms = ctx.members
        for bank in banks:
            # a model refutes x <= y when it gives x a value of at least j
            # and y one below j, for some threshold j
            value = [bank.value(m) for m in ms]
            for x, row in enumerate(ctx.succ):
                for y in bits(row):
                    if any(a & ~b & bank.sound for a, b in zip(value[x], value[y])):
                        fact = f"{print_ty(ms[x])} <= {print_ty(ms[y])}"
                        out.append(f"height {bank.height} refutes the saturated {fact}")
    return out


def top_route(t: TheorySpec, a: Ty) -> Ty | None:
    """An X with U <= X and X <= a both Proven, among D -> U and
    D1 -> D2 -> U over the theory's subterms, or None."""
    subs = {TOP, *(Const(c) for c in t.constants)}
    for lhs, rhs in t.canonical_pairs:
        subs.update(subterms(lhs))
        subs.update(subterms(rhs))
    subs = sorted(subs, key=ty_key)
    middles = [Arrow(d, TOP) for d in subs]
    middles += [Arrow(d1, Arrow(d2, TOP)) for d1 in subs for d2 in subs]
    for x in middles:
        if isinstance(derive_le(t, TOP, x), Proven) and isinstance(derive_le(t, x, a), Proven):
            return x
    return None


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--count", type=int, default=600)
    p.add_argument("--fuel", type=int, default=2_000)
    args = p.parse_args(argv)
    rng = random.Random(f"model-parity:{args.seed}")
    offending = 0
    verdicts: dict[str, int] = {}
    for i in range(args.count):
        text = random_theory(rng, natural=i % 2 == 0)
        t = parse_theory(text)
        why = refuted_facts(t, rng)
        v = verdict(t, fuel=args.fuel)
        verdicts[type(v).__name__] = verdicts.get(type(v).__name__, 0) + 1
        if isinstance(v, NonSensible) and isinstance(v.evidence, Witness):
            x = top_route(t, v.evidence.ty)
            if x is not None:
                why.append(f"witness type {print_ty(v.evidence.ty)} is ~ U through {print_ty(x)}")
        if why:
            offending += 1
            print("\n".join(f"# {w}" for w in why))
            print(text)
    summary = ", ".join(f"{n} {k}" for k, n in sorted(verdicts.items()))
    print(f"{offending} of {args.count} theories offend ({summary})")
    return 1 if offending else 0


if __name__ == "__main__":
    sys.exit(main())
