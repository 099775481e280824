"""Command-line front end emitting versioned, deterministic JSON reports.

Exit codes: 0 affirmative (Proven, Valid, Found, Pass, Sensible, all goldens
match), 1 definitive negative, 2 inconclusive within budget (a type universe
past its member bound included, whose --json report reads UniverseTooLarge
with the bound), 3 usage or input errors, 4 internal error: a certificate
about to be emitted failed to re-check, or an unexpected exception escaped (a
bug, reported with its traceback).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from pathlib import Path

from .assignment import DEFAULT_FUEL, Found, infer_bounded
from .embedding import (
    ConstantMap,
    Failed,
    TransferCertificate,
    Verified,
    verify_embedding,
)
from .errors import IttError, ParseError, UndeclaredConstant, UniverseTooLarge
from .kernel import Derivation, SubProof, Valid, check_derivation, check_subproof
from .lexer import Tokens, parse, statements
from .polarity import (
    PolarityPass,
    StagingFailure,
    completion,
    equivalence_classes,
    stage_plan,
)
from .sensibility import (
    DEFAULT_CHAIN_DEPTH,
    NonSensible,
    Sensible,
    Witness,
    builtin_theories,
    evidence_summary,
    polarity_stage,
    verdict,
)
from .sexpr import (
    parse_basis,
    parse_constant_map,
    parse_derivation,
    unparse_derivation,
    unparse_subproof,
)
from .subtyping import DEFAULT_WIDTH, Proven, derive_le
from .terms import (
    Reached,
    head_reduce,
    head_step,
    parse_term,
    print_term,
    read_fresh_term,
)
from .theory import TheorySpec, parse_theory, validate_natural
from .types import Ty, constants_of, parse_ty, print_ty, read_le

TRACE_CAP = 50


# -- inputs and reports --------------------------------------------------------


class _Inputs:
    """Reads a command's inputs and records each one for its report."""

    def __init__(self) -> None:
        self.read: list[dict] = []

    def file(self, path: str) -> str:
        """The UTF-8 text of a file, recorded with its bytes."""
        data = Path(path).read_bytes()
        self.read.append({"kind": "file", "path": path, "data": data})
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as e:
            raise ParseError(f"{path}: not UTF-8 text ({e.reason})", e.start) from None

    def inline(self, label: str, text: str) -> str:
        self.read.append({"kind": "inline", "label": label, "text": text})
        return text

    def theory(self, arg: str) -> TheorySpec:
        """A path to an .itt file, or the name of a built-in theory.  Only a
        regular file counts as a path, so a directory never shadows a name."""
        if os.path.isfile(arg):
            return parse_theory(self.file(arg))
        spec = builtin_theories().lookup(arg).spec
        self.read.append({"kind": "builtin", "name": spec.name})
        return spec

    def report(self) -> list[dict]:
        """The inputs as a report lists them: a file by the sha256 of its bytes."""
        import hashlib  # loads OpenSSL, so only a JSON report pays for it

        return [
            {"kind": "file", "path": e["path"], "sha256": hashlib.sha256(e["data"]).hexdigest()}
            if e["kind"] == "file" else e
            for e in self.read
        ]


def _report(command: str, inputs: list[dict], verdict_payload: dict,
            certificates: list[dict]) -> dict:
    return {
        "schema": 1,
        "command": command,
        "inputs": inputs,
        "verdict": verdict_payload,
        "certificates": certificates,
    }


class _CertificateFailed(Exception):
    """A certificate the engine produced does not re-check: an internal error."""


def _certificate(t: TheorySpec, node: SubProof | Derivation) -> dict:
    """The report entry of a subproof or derivation about t, once it re-checks."""
    if isinstance(node, SubProof):
        kind, check, unparse = "subproof", check_subproof, unparse_subproof
    else:
        kind, check, unparse = "derivation", check_derivation, unparse_derivation
    if not isinstance(check(t, node), Valid):
        raise _CertificateFailed
    return {"kind": kind, "text": unparse(node)}


# -- command handlers ------------------------------------------------------------
# Each handler reads its inputs through the recorder and returns its verdict
# payload, re-checked certificates, exit code and text lines.

_Result = tuple[dict, list[dict], int, list[str]]


def _cmd_reduce(args, inputs: _Inputs) -> _Result:
    if os.path.isfile(args.term):
        m = parse_term(inputs.file(args.term))
    else:
        m = parse_term(inputs.inline("term", args.term))
    r = head_reduce(m, args.fuel)
    trace = [print_term(m)]
    cur = m
    while len(trace) <= min(args.fuel, TRACE_CAP):
        cur = head_step(cur)
        if cur is None:
            break
        trace.append(print_term(cur))
    if isinstance(r, Reached):
        key, end, code = "final", print_term(r.hnf), 0
        lines = [f"Reached head normal form in {r.steps} step(s): {end}"]
    else:
        key, end, code = "last", print_term(r.last), 2
        lines = [f"FuelExhausted after {r.steps} step(s); last: {end}"]
    payload = {
        "result": type(r).__name__,
        "steps": r.steps,
        key: end,
        "trace": trace,
        "trace_truncated": r.steps > len(trace) - 1,
    }
    lines += [f"  -> {step}" for step in trace[1:]]
    return payload, [], code, lines


def _check_declared(t: TheorySpec, tys: list[Ty]) -> None:
    """Raise UndeclaredConstant for the first constant, by name, of tys that
    t does not declare."""
    undeclared = sorted(frozenset().union(*map(constants_of, tys)) - t.constants)
    if undeclared:
        c = undeclared[0]
        raise UndeclaredConstant(f"{c!r} is not a constant of theory {t.name!r}")


def _cmd_subtype(args, inputs: _Inputs) -> _Result:
    t = inputs.theory(args.theory)
    a, b = parse(Tokens(inputs.inline("query", args.query)), read_le, "query")
    _check_declared(t, [a, b])
    v = derive_le(t, a, b, args.width)
    if isinstance(v, Proven):
        payload = {"result": "Proven", "lhs": print_ty(a), "rhs": print_ty(b)}
        certs = [_certificate(t, v.proof)]
        lines = [f"Proven: {print_ty(a)} <= {print_ty(b)}", certs[0]["text"]]
        return payload, certs, 0, lines
    payload = {
        "result": "UnknownWithin",
        "lhs": print_ty(a),
        "rhs": print_ty(b),
        "universe_size": v.universe_size,
        "inter_width": v.inter_width,
    }
    lines = [
        f"UnknownWithin: not derivable inside a universe of "
        f"{v.universe_size} types at width {v.inter_width}"
    ]
    return payload, [], 2, lines


def _cmd_check(args, inputs: _Inputs) -> _Result:
    t = inputs.theory(args.theory)
    d = parse_derivation(inputs.file(args.derivation))
    r = check_derivation(t, d)
    if isinstance(r, Valid):
        c = d.conclusion
        payload = {
            "result": "Valid",
            "term": print_term(c.term),
            "ty": print_ty(c.ty),
        }
        return payload, [], 0, [f"Valid: |- {print_term(c.term)} : {print_ty(c.ty)}"]
    payload = {"result": "Invalid", "path": list(r.path), "reason": r.reason}
    return payload, [], 1, [f"Invalid at node {list(r.path)}: {r.reason}"]


def _cmd_infer(args, inputs: _Inputs) -> _Result:
    t = inputs.theory(args.theory)
    g = parse_basis(inputs.inline("basis", args.basis))
    m = parse_term(inputs.inline("term", args.term))
    a = parse_ty(inputs.inline("type", args.type))
    _check_declared(t, [a] + [ty for _, ty in g.bindings])
    r = infer_bounded(t, g, m, a, args.fuel, args.width)
    if isinstance(r, Found):
        certs = [_certificate(t, r.derivation)]
        lines = [f"Found: {print_term(m)} : {print_ty(a)}", certs[0]["text"]]
        return {"result": "Found"}, certs, 0, lines
    payload = {"result": "NotFoundWithinFuel", "fuel": r.fuel}
    return payload, [], 2, [f"NotFoundWithinFuel: no derivation within fuel {r.fuel}"]


def _cmd_polarity(args, inputs: _Inputs) -> _Result:
    t = inputs.theory(args.theory)
    pol = polarity_stage(t)
    if pol is None:
        payload = {"applicable": False, "reason": "theory not marked natural"}
        lines = ["Not applicable: the polarity criterion needs a natural theory"]
        return payload, [], 2, lines
    axs = completion(validate_natural(t).axioms)
    poset = equivalence_classes(axs)
    classes = [sorted(cls) for cls in poset.classes]
    order = sorted([i, j] for i, j in poset.order)
    plan = stage_plan(axs)
    if isinstance(plan, StagingFailure):
        stages: object = {"result": "failure", "reason": plan.reason}
    else:
        stages = [
            {"solves": sorted(cls), "decorations": dict(sorted(dec.as_dict().items()))}
            for cls, dec in plan
        ]
    if isinstance(pol, PolarityPass):
        pol_payload = {"result": "Pass", "caveats": list(pol.caveats)}
        code = 0
        lines = ["Polarity: Pass"] + [f"  caveat: {c}" for c in pol.caveats]
    else:
        pol_payload = {
            "result": "Fail",
            "witness": [[a, b, sign] for a, b, sign in pol.witness],
        }
        code = 1
        cycle = " ".join(f"{a}-[{s}]->{b}" for a, b, s in pol.witness)
        lines = [f"Polarity: Fail ({cycle})"]
    payload = {
        "applicable": True,
        "polarity": pol_payload,
        "classes": classes,
        "class_order": order,
        "stages": stages,
    }
    lines.append(f"Classes: {classes}")
    lines.append(f"Class order (by index): {order}")
    if isinstance(plan, StagingFailure):
        lines.append(f"Staging: failure ({plan.reason})")
    else:
        for n, stage in enumerate(stages, 1):
            lines.append(
                f"Stage {n}: solves {stage['solves']} with {stage['decorations']}"
            )
    return payload, [], code, lines


def _cmd_embed(args, inputs: _Inputs) -> _Result:
    src = inputs.theory(args.source)
    tgt = inputs.theory(args.target)
    k = ConstantMap.of(src, tgt, parse_constant_map(inputs.file(args.map)))
    v = verify_embedding(k, args.width)
    if isinstance(v, Verified):
        payload = {
            "result": "Verified",
            "checks": [
                {"obligation": desc, "has_proof": proof is not None}
                for desc, proof in v.checks
            ],
        }
        certs = [_certificate(tgt, p) for _, p in v.checks if p is not None]
        lines = [f"Verified: {src.name} embeds into {tgt.name}"]
        lines += [f"  {c['obligation']}" for c in payload["checks"]]
        return payload, certs, 0, lines
    if isinstance(v, Failed):
        payload = {"result": "Failed", "obligation": v.obligation, "detail": v.detail}
        return payload, [], 1, [f"Failed on {v.obligation}: {v.detail}"]
    payload = {"result": "UnknownWithin", "obligation": v.obligation}
    return payload, [], 2, [f"UnknownWithin: could not discharge {v.obligation}"]


def _evidence_json(
    e: PolarityPass | TransferCertificate | Witness, about: TheorySpec
) -> tuple[dict, list[dict]]:
    """The JSON of evidence about a theory, and its re-checked certificates,
    outermost first.

    An embedding's checks are proofs in its target; the evidence that crossed
    it is about the target of a sensible transfer and the source of a
    nonsensible one.
    """
    if isinstance(e, PolarityPass):
        return {"kind": "PolarityPass", "caveats": list(e.caveats)}, []
    if isinstance(e, TransferCertificate):
        k = e.map
        certs = [_certificate(k.target, p) for _, p in e.embedding.checks if p is not None]
        if e.kind == "sensible":
            kind, side, other = "EmbeddingInto", "target", k.target
        else:
            kind, side, other = "EmbeddingFrom", "source", k.source
        inner, inner_certs = _evidence_json(e.evidence, other)
        payload = {"kind": kind, side: other.name, f"{side}_evidence": inner}
        return payload, certs + inner_certs
    payload = {
        "kind": "UnsolvableTyped",
        "term": print_term(e.term),
        "ty": print_ty(e.ty),
        "head_trace": {
            "result": "FuelExhausted",
            "steps": e.head_trace.steps,
            "last": print_term(e.head_trace.last),
        },
    }
    return payload, [_certificate(about, e.derivation)]


def _cmd_sensibility(args, inputs: _Inputs) -> _Result:
    t = inputs.theory(args.theory)
    pool = inputs.file(args.pool) if args.pool else ""
    extra_pool = [
        parse(tk, read_fresh_term, f"pool line {lineno}")
        for lineno, tk in statements(pool)
    ]
    maps = []
    for into, pairs in ((True, args.map_into), (False, args.map_from)):
        for theory_arg, map_arg in pairs or []:
            other = inputs.theory(theory_arg)
            mapping = parse_constant_map(inputs.file(map_arg))
            source, target = (t, other) if into else (other, t)
            maps.append(ConstantMap.of(source, target, mapping))
    v = verdict(
        t,
        fuel=args.fuel,
        inter_width=args.width,
        depth=args.depth,
        extra_maps=tuple(maps),
        extra_pool=tuple(extra_pool),
    )
    if isinstance(v, (Sensible, NonSensible)):
        evidence, certs = _evidence_json(v.evidence, t)
        result = type(v).__name__
        lines = [f"{result} ({evidence['kind']})"]
        if isinstance(v.evidence, Witness):
            lines.append(
                f"  witness: {print_term(v.evidence.term)} : {print_ty(v.evidence.ty)}"
            )
        code = 0 if isinstance(v, Sensible) else 1
        return {"result": result, "evidence": evidence}, certs, code, lines
    lines = ["Unknown; attempts:"] + [f"  {x}" for x in v.tried]
    return {"result": "Unknown", "tried": list(v.tried)}, [], 2, lines


def _cmd_corpus(args, inputs: _Inputs) -> _Result:
    reg = builtin_theories()
    if args.all or not args.names:
        names = list(reg.names())
    else:
        names = [reg.lookup(n).spec.name for n in args.names]
    inputs.read.append({"kind": "builtin-corpus", "theories": names})
    golden = json.loads(
        (Path(__file__).parent / "corpus" / "verdicts.json").read_text(
            encoding="utf-8"
        )
    )

    results: dict[str, dict] = {}
    all_match = True
    for name in names:
        v = verdict(reg.lookup(name).spec)
        got = {"verdict": type(v).__name__, "evidence": evidence_summary(v)}
        match = got == golden.get(name)
        results[name] = {**got, "golden": golden.get(name), "match": match}
        all_match = all_match and match
    payload = {"results": results, "all_match": all_match}
    lines = []
    for name in names:
        r = results[name]
        mark = "ok" if r["match"] else "MISMATCH"
        lines.append(f"{name:10s} {r['verdict']:12s} [{mark}]")
    lines.append("all golden verdicts match" if all_match else "golden mismatch")
    return payload, [], (0 if all_match else 1), lines


# -- parser ----------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors must not collide with Unknown=2
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="ittlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="emit the JSON report")
        return p

    p = add("reduce", "head-reduce a term")
    p.add_argument("term", help="term text or path to a term file")
    p.add_argument("--fuel", type=int, default=DEFAULT_FUEL)

    p = add("subtype", "decide A <= B inside a bounded universe")
    p.add_argument("theory", help=".itt file or builtin name")
    p.add_argument("query", help="inequality such as 'c0 -> c0 <= c1 -> c0'")
    p.add_argument("--width", type=int, default=DEFAULT_WIDTH)

    p = add("check", "validate a typing derivation file")
    p.add_argument("theory")
    p.add_argument("derivation", help="path to a .drv file")

    p = add("infer", "search for a typing derivation")
    p.add_argument("theory")
    p.add_argument("term")
    p.add_argument("type")
    p.add_argument("--basis", default="", help="bindings such as 'x:c0, y:c1'")
    p.add_argument("--fuel", type=int, default=DEFAULT_FUEL)
    p.add_argument("--width", type=int, default=DEFAULT_WIDTH)

    p = add("polarity", "polarity check, classes and staging for a natural theory")
    p.add_argument("theory")

    p = add("embed", "verify a constant map as an embedding")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("map", help="path to a 'c -> TY' map file")
    p.add_argument("--width", type=int, default=DEFAULT_WIDTH)

    p = add("sensibility", "run the sensibility pipeline on a theory")
    p.add_argument("theory")
    p.add_argument("--fuel", type=int, default=DEFAULT_FUEL)
    p.add_argument("--width", type=int, default=DEFAULT_WIDTH)
    p.add_argument("--depth", type=int, default=DEFAULT_CHAIN_DEPTH)
    p.add_argument("--pool", help="file of extra candidate unsolvable terms")
    p.add_argument(
        "--map-into",
        nargs=2,
        metavar=("TARGET", "MAP"),
        action="append",
        help="extra embedding of this theory into TARGET",
    )
    p.add_argument(
        "--map-from",
        nargs=2,
        metavar=("SOURCE", "MAP"),
        action="append",
        help="extra embedding of SOURCE into this theory",
    )

    p = add("corpus", "run the pipeline over built-in theories and diff goldens")
    p.add_argument("names", nargs="*", help="theory names (default: all)")
    p.add_argument("--all", action="store_true")

    return parser


_HANDLERS = {
    "reduce": _cmd_reduce,
    "subtype": _cmd_subtype,
    "check": _cmd_check,
    "infer": _cmd_infer,
    "polarity": _cmd_polarity,
    "embed": _cmd_embed,
    "sensibility": _cmd_sensibility,
    "corpus": _cmd_corpus,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    inputs = _Inputs()
    try:
        payload, certs, code, lines = _HANDLERS[args.command](args, inputs)
    except UniverseTooLarge as e:  # a blown budget is an honest "unknown"
        print(f"inconclusive: {e}", file=sys.stderr)
        payload = {"result": "UniverseTooLarge", "member_bound": e.bound}
        certs, code, lines = [], 2, []
    except (IttError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return 3
    except _CertificateFailed:
        print("error: internal: certificate failed to re-check", file=sys.stderr)
        return 4
    except Exception as e:  # exit 1 would read as a definitive negative
        traceback.print_exc()
        print(f"error: internal: {type(e).__name__}: {e}", file=sys.stderr)
        return 4
    if args.json:
        report = _report(args.command, inputs.report(), payload, certs)
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
