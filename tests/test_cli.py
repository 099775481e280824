"""Exit codes, report shape, and certificate round-trips for the CLI."""

import contextlib
import hashlib
import io
import json
import os
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ittlab import cli
from ittlab.assignment import check_derivation
from ittlab.cli import main
from ittlab.sensibility import builtin_theories, verdict
from ittlab.sexpr import parse_derivation, parse_subproof
from ittlab.subtyping import Invalid, Valid, check_subproof
from ittlab.terms import head_reduce, parse_term
from ittlab.theory import parse_theory


def spec(name):
    return builtin_theories().lookup(name).spec


def corpus_path(*relpath):
    return str(resources.files("ittlab").joinpath("corpus", *relpath))


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def run_json(capsys, *argv):
    code = main([*argv, "--json"])
    return code, json.loads(capsys.readouterr().out)


class TestReduce:
    def test_reaches_hnf(self, capsys):
        code, out = run(capsys, "reduce", r"(\x.x) y")
        assert code == 0 and "y" in out

    def test_fuel_exhausted(self, capsys):
        code, report = run_json(capsys, "reduce", r"(\x.x x) (\x.x x)", "--fuel", "7")
        assert code == 2
        assert report["verdict"]["result"] == "FuelExhausted"
        assert report["verdict"]["steps"] == 7
        assert len(report["verdict"]["trace"]) <= 8

    def test_term_file_input_is_hashed(self, capsys, tmp_path):
        f = tmp_path / "t.lam"
        f.write_text(r"(\x.x) (\y.y)")
        code, report = run_json(capsys, "reduce", str(f))
        assert code == 0
        assert report["inputs"][0]["kind"] == "file"
        assert report["inputs"][0]["sha256"] == hashlib.sha256(f.read_bytes()).hexdigest()

    def test_long_inline_term_is_not_taken_for_a_path(self, capsys):
        # a 400-byte argument is too long for a file name; it is still a term
        term = "x " * 200
        code, report = run_json(capsys, "reduce", term)
        assert code == 0
        assert report["inputs"] == [{"kind": "inline", "label": "term", "text": term}]

    def test_negative_fuel_is_a_usage_error(self, capsys):
        # exit 1 would claim a definitive negative
        assert main(["reduce", "x", "--fuel", "-1"]) == 3
        assert "fuel must be nonnegative" in capsys.readouterr().err

    def test_empty_term_is_a_parse_error_not_a_directory(self, capsys):
        # Path("") is the current directory; it must not be read as a file
        assert main(["reduce", ""]) == 3
        err = capsys.readouterr().err
        assert "empty term" in err and "directory" not in err

    def test_long_spine_prints_without_recursion(self, capsys):
        # each step of this term grows the application spine by one
        code, report = run_json(
            capsys, "reduce", r"(\x. x x x) (\x. x x x)", "--fuel", "1500"
        )
        assert code == 2
        assert report["verdict"]["result"] == "FuelExhausted"
        assert report["verdict"]["steps"] == 1500

    def test_printed_reduct_reads_back(self, capsys):
        # the reduct is one flat spine of 1,500 arguments, not a nested term
        term = r"(\x. x x x) (\x. x x x)"
        code, report = run_json(capsys, "reduce", term, "--fuel", "1500")
        assert code == 2
        last = report["verdict"]["last"]
        assert parse_term(last) == head_reduce(parse_term(term), 1500).last
        assert main(["reduce", last, "--fuel", "1"]) == 2

    def test_deep_reduct_is_inconclusive_not_a_usage_error(self, capsys):
        # every two steps nest the argument one f deeper: substituting and
        # printing it must not exhaust the interpreter's stack
        term = r"(\x. \y. x x (f y)) (\x. \y. x x (f y)) q"
        code, report = run_json(capsys, "reduce", term, "--fuel", "3000")
        assert code == 2
        assert report["verdict"]["result"] == "FuelExhausted"
        assert report["verdict"]["steps"] == 3000
        # 1,500 around q, and one in each copy of the function
        assert report["verdict"]["last"].count("(f ") == 1502


class TestSubtype:
    def test_proven_with_revalidating_certificate(self, capsys):
        code, report = run_json(capsys, "subtype", "T0", "c0 -> c0 <= c1 -> c0")
        assert code == 0
        assert report["verdict"]["result"] == "Proven"
        cert = report["certificates"][0]
        assert cert["kind"] == "subproof"
        assert check_subproof(spec("T0"), parse_subproof(cert["text"])) == Valid()

    def test_unknown_within(self, capsys):
        code, report = run_json(capsys, "subtype", "T0", "c1 <= c0")
        assert code == 2
        assert report["verdict"]["result"] == "UnknownWithin"
        assert report["verdict"]["universe_size"] > 0

    def test_width_past_the_pool_answers_at_once(self, capsys):
        # T0's universe for this query has 16 members at any width >= 5
        sizes = []
        for width in ("16", "10000000"):
            code, report = run_json(capsys, "subtype", "T0", "c0 <= c0 -> c0", "--width", width)
            assert code == 2
            sizes.append(report["verdict"]["universe_size"])
        assert sizes == [16, 16]

    def test_malformed_query(self, capsys):
        assert main(["subtype", "T0", "c0 < c1"]) == 3

    @pytest.mark.parametrize("query", ["c0 <= (c1", "c0 <= c1 <= c0"])
    def test_query_errors_give_offsets_into_the_whole_query(self, capsys, query):
        assert main(["subtype", "T0", query]) == 3
        assert "(at offset 9)" in capsys.readouterr().err

    def test_wide_flat_intersection_is_not_nested(self, capsys):
        query = " & ".join(["c0"] * 5000) + " <= c0"
        code, report = run_json(capsys, "subtype", "T0", query)
        assert code == 0
        cert = report["certificates"][0]
        assert check_subproof(spec("T0"), parse_subproof(cert["text"])) == Valid()

    def test_1000_step_chain_certificate_prints_and_reads_back(self, capsys, tmp_path):
        # the proof nests about a thousand levels; it prints and reads back
        n = 1000
        lines = ["theory chain", "constants " + " ".join(f"c{i}" for i in range(n + 1))]
        lines += [f"axiom c{i} <= c{i + 1}" for i in range(n)]
        path = tmp_path / "chain.itt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, report = run_json(capsys, "subtype", str(path), f"c0 <= c{n}", "--width", "1")
        assert code == 0
        proof = parse_subproof(report["certificates"][0]["text"])
        assert check_subproof(parse_theory(path.read_text()), proof) == Valid()

    def test_deeply_nested_query_is_a_usage_error(self, capsys):
        query = "c0 -> " * 3000 + "c0 <= U"
        assert main(["subtype", "T0", query]) == 3
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("query", ["x <= x", "x <= c0", "c0 <= c1 -> zz"])
    def test_undeclared_constant_is_a_usage_error(self, capsys, query):
        # T0 declares c0 and c1 only
        assert main(["subtype", "T0", query]) == 3
        assert "is not a constant of theory 'T0'" in capsys.readouterr().err


class TestCheck:
    def test_golden_derivation_validates(self, capsys):
        code, out = run(capsys, "check", "T4", corpus_path("derivations", "omega2omega2_c3.drv"))
        assert code == 0 and "Valid" in out

    def test_corrupted_derivation_rejected(self, capsys, tmp_path):
        text = resources.files("ittlab").joinpath(
            "corpus", "derivations", "omega2omega2_c3.drv"
        ).read_text()
        bad = tmp_path / "bad.drv"
        bad.write_text(text.replace(": c3", ": c2", 1))
        code, report = run_json(capsys, "check", "T4", str(bad))
        assert code == 1
        assert report["verdict"]["result"] == "Invalid"
        assert report["verdict"]["path"] is not None
        assert report["verdict"]["reason"]


class TestInfer:
    def test_found_with_revalidating_derivation(self, capsys):
        code, report = run_json(capsys, "infer", "T0", r"\x.x", "c1 -> c0")
        assert code == 0
        d = parse_derivation(report["certificates"][0]["text"])
        assert check_derivation(spec("T0"), d) == Valid()

    def test_basis_flag(self, capsys):
        code, report = run_json(
            capsys, "infer", "T0", "y", "c0", "--basis", "y:c1 & c0"
        )
        assert code == 0

    @pytest.mark.parametrize(
        "argv",
        [["x", "zz", "--basis", "x:zz"], ["x", "c0", "--basis", "x:c0 & zz"], [r"\x.x", "c0 -> zz"]],
        ids=["type-and-basis", "basis", "type"],
    )
    def test_undeclared_constant_is_a_usage_error(self, capsys, argv):
        assert main(["infer", "T0", *argv]) == 3
        assert "'zz' is not a constant of theory 'T0'" in capsys.readouterr().err

    def test_not_found_within_fuel(self, capsys):
        code, report = run_json(capsys, "infer", "T1", r"\x.x", "c0", "--fuel", "50")
        assert code == 2
        assert report["verdict"]["result"] == "NotFoundWithinFuel"


class TestPolarity:
    def test_pass_with_stages(self, capsys):
        code, report = run_json(capsys, "polarity", "EP")
        assert code == 0
        v = report["verdict"]
        assert v["polarity"]["result"] == "Pass"
        assert v["classes"] == [["c1", "c2"], ["c3", "c4", "c5"]]
        assert [s["solves"] for s in v["stages"]] == [["c1", "c2"], ["c3", "c4", "c5"]]
        assert v["stages"][0]["decorations"] == {"c1": "+", "c2": "-"}

    def test_fail_with_witness(self, capsys):
        code, report = run_json(capsys, "polarity", "Tsharp")
        assert code == 1
        assert report["verdict"]["polarity"]["result"] == "Fail"
        assert report["verdict"]["polarity"]["witness"] == [["c0", "c0", "-"]]

    @pytest.mark.parametrize("name", ["TCDZ", "EP"])
    def test_caveats_are_the_verdicts(self, capsys, name):
        # TCDZ declares a constant order, EP does not
        code, report = run_json(capsys, "polarity", name)
        caveats = report["verdict"]["polarity"]["caveats"]
        assert code == 0 and bool(caveats) == (name == "TCDZ")
        assert tuple(caveats) == verdict(spec(name)).evidence.caveats
        code, out = run(capsys, "polarity", name)
        assert [line for line in out.splitlines() if "caveat" in line] == [
            f"  caveat: {c}" for c in caveats
        ]

    def test_not_applicable(self, capsys):
        code, report = run_json(capsys, "polarity", "T0")
        assert code == 2
        assert report["verdict"]["applicable"] is False


class TestEmbed:
    def test_verified(self, capsys):
        code, report = run_json(
            capsys, "embed", "T3", "TCDZ", corpus_path("maps", "t3_to_tcdz.map")
        )
        assert code == 0
        assert report["verdict"]["result"] == "Verified"
        for cert in report["certificates"]:
            assert check_subproof(spec("TCDZ"), parse_subproof(cert["text"])) == Valid()

    def test_flag_gap(self, capsys, tmp_path):
        f = tmp_path / "m.map"
        f.write_text("c -> c\n")
        code, report = run_json(capsys, "embed", "Tstar", "Park", str(f))
        assert code == 1
        assert report["verdict"]["obligation"] == "rule-flags"

    def test_inconclusive_image(self, capsys, tmp_path):
        f = tmp_path / "m.map"
        f.write_text("c3 -> c4\nc4 -> c3\n")
        code, report = run_json(capsys, "embed", "TCDZ", "TCDZ", str(f))
        assert code == 2


class TestSensibility:
    def test_sensible(self, capsys):
        code, out = run(capsys, "sensibility", "T3")
        assert code == 0 and "Sensible" in out

    def test_nonsensible_with_witness_line(self, capsys):
        code, out = run(capsys, "sensibility", "T4")
        assert code == 1 and "witness" in out and ": c3" in out

    def test_unknown_lists_attempts(self, capsys):
        code, out = run(capsys, "sensibility", "T0")
        assert code == 2 and "attempts" in out

    def test_pool_flag(self, capsys, tmp_path):
        f = tmp_path / "pool.lam"
        f.write_text("# a solvable decoy\n\\x.x\n")
        code, _ = run(capsys, "sensibility", "T0", "--pool", str(f))
        assert code == 2

    def test_pool_errors_give_offsets_into_the_whole_file(self, capsys, tmp_path):
        f = tmp_path / "pool.lam"
        f.write_text("\\x.x\n\\x.x )\n")
        assert main(["sensibility", "T0", "--pool", str(f)]) == 3
        assert "(at offset 10)" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, offset",
        [("\\x.x\n(\\x.x x\n", 12), ("\\x.x\r\n(\\x.x x\r\n", 13)],
        ids=["lf", "crlf"],
    )
    def test_pool_end_of_input_is_where_the_line_ends(self, capsys, tmp_path, text, offset):
        # not past the line break
        f = tmp_path / "pool.lam"
        f.write_bytes(text.encode())
        assert main(["sensibility", "T0", "--pool", str(f)]) == 3
        assert f"(at offset {offset})" in capsys.readouterr().err

    def test_map_into_flag_rescues_a_clone(self, capsys, tmp_path):
        clone = tmp_path / "clone.itt"
        src = resources.files("ittlab").joinpath("corpus", "T3.itt").read_text()
        clone.write_text(src.replace("theory T3", "theory Clone"))
        code, report = run_json(
            capsys, "sensibility", str(clone),
            "--map-into", "TCDZ", corpus_path("maps", "t3_to_tcdz.map"),
        )
        assert code == 0
        assert report["verdict"]["evidence"]["kind"] == "EmbeddingInto"

    def test_embedding_from_a_computed_witness(self, capsys):
        # at fuel 1 no probe finds a witness, and nothing else crosses
        assert run(capsys, "sensibility", "T2inv", "--fuel", "1")[0] == 2
        # at fuel 10 T2inv's own probe finds nothing; Park's witness crosses
        code, report = run_json(capsys, "sensibility", "T2inv", "--fuel", "10")
        assert code == 1
        evidence = report["verdict"]["evidence"]
        assert evidence["kind"] == "EmbeddingFrom"
        assert evidence["source"] == "Park"
        assert evidence["source_evidence"]["kind"] == "UnsolvableTyped"
        *subproofs, derivation = report["certificates"]
        assert subproofs and all(c["kind"] == "subproof" for c in subproofs)
        for cert in subproofs:
            proof = parse_subproof(cert["text"])
            assert check_subproof(spec("T2inv"), proof) == Valid()
        assert derivation["kind"] == "derivation"
        d = parse_derivation(derivation["text"])
        assert check_derivation(spec("Park"), d) == Valid()

    def test_map_into_a_user_theory_named_like_a_builtin(self, capsys, tmp_path):
        # the verdict rests on the registered T3 -> TCDZ map, so its proofs
        # re-check in the built-in TCDZ, not in the axiom-free user TCDZ
        fake = tmp_path / "fake.itt"
        fake.write_text(
            "theory TCDZ\nconstants c3 c4\nflags arrow arrow-U arrow-cap U-leq\n"
        )
        code, report = run_json(
            capsys, "sensibility", "T3",
            "--map-into", str(fake), corpus_path("maps", "t3_to_tcdz.map"),
        )
        assert code == 0
        assert report["verdict"]["evidence"]["kind"] == "EmbeddingInto"
        for cert in report["certificates"]:
            assert check_subproof(spec("TCDZ"), parse_subproof(cert["text"])) == Valid()

    @pytest.mark.parametrize("name", ["T0", "T0le", "T1"])
    def test_map_into_a_target_with_more_rule_flags_is_refused(self, capsys, tmp_path, name):
        # TCDZ has arrow-U and these theories do not, so c0 -> U is top in
        # TCDZ yet not in the source: per-constant checks cannot carry the
        # target's sensibility back
        f = tmp_path / "c3.map"
        f.write_text("c0 -> c3\nc1 -> c3\n")
        code, report = run_json(capsys, "sensibility", name, "--map-into", "TCDZ", str(f))
        assert code == 2
        assert "embedding into TCDZ: Failed" in report["verdict"]["tried"]
        digest = hashlib.sha256(f.read_bytes()).hexdigest()
        assert report["inputs"] == [
            {"kind": "builtin", "name": name},
            {"kind": "builtin", "name": "TCDZ"},
            {"kind": "file", "path": str(f), "sha256": digest},
        ]

    @pytest.mark.parametrize("depth", ["0", "-1"])
    def test_chain_depth_below_one_is_a_usage_error(self, capsys, depth):
        # depth 0 and -1 used to run silently at depth 1
        assert main(["sensibility", "T3", "--depth", depth]) == 3
        assert "chain depth must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["sensibility", "TCDZ", "--fuel", "-1"],
            ["sensibility", "TCDZ", "--width", "0"],
        ],
    )
    def test_invalid_budget_is_a_usage_error(self, capsys, argv):
        # TCDZ is decided by polarity, which used to run on any budget
        assert main(argv) == 3
        assert capsys.readouterr().err.startswith("error: ")

    def test_certificates_revalidate(self, capsys):
        code, report = run_json(capsys, "sensibility", "T4")
        assert code == 1
        kinds = [c["kind"] for c in report["certificates"]]
        assert "derivation" in kinds
        for cert in report["certificates"]:
            if cert["kind"] == "derivation":
                d = parse_derivation(cert["text"])
                assert check_derivation(spec("T4"), d) == Valid()


class TestCorpus:
    def test_subset(self, capsys):
        code, report = run_json(capsys, "corpus", "T3", "T4")
        assert code == 0
        assert set(report["verdict"]["results"]) == {"T3", "T4"}
        assert report["verdict"]["all_match"] is True

    def test_all(self, capsys):
        code, out = run(capsys, "corpus", "--all")
        assert code == 0
        assert "all golden verdicts match" in out
        assert len([l for l in out.splitlines() if "[ok]" in l]) == 21

    def test_budget_flags_are_usage_errors(self, capsys):
        # the goldens hold the verdicts at the default budgets, so at any
        # other budget a correct answer would read as a mismatch
        with pytest.raises(SystemExit) as exc:
            main(["corpus", "--fuel", "10"])
        assert exc.value.code == 3
        assert capsys.readouterr().err.startswith("usage:")


# 70 leaves: at width 3 its universe passes the member bound
_WIDE = " -> ".join(["c0", "c1"] * 35)
_BLOWN = [
    ["subtype", "T0", f"{_WIDE} <= U", "--width", "3"],
    ["infer", "T0", r"\x.x", _WIDE, "--width", "3"],
]


class TestDeterminismAndErrors:
    def test_json_reports_are_byte_identical(self, capsys):
        outs = []
        for _ in range(2):
            main(["sensibility", "T4", "--json"])
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        for _ in range(2):
            main(["polarity", "EP", "--json"])
            outs.append(capsys.readouterr().out)
        assert outs[2] == outs[3]

    def test_usage_error_exits_3(self):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 3

    def test_unknown_theory_exits_3(self, capsys):
        assert main(["polarity", "zzz"]) == 3
        assert "error" in capsys.readouterr().err

    def test_directory_named_like_a_builtin_does_not_shadow_it(
        self, capsys, tmp_path, monkeypatch
    ):
        (tmp_path / "T1").mkdir()
        monkeypatch.chdir(tmp_path)
        code, report = run_json(capsys, "polarity", "T1")
        assert code != 3
        assert report["inputs"] == [{"kind": "builtin", "name": "T1"}]

    def test_missing_file_exits_3(self, capsys):
        assert main(["check", "T4", "/no/such/file.drv"]) == 3

    @pytest.mark.parametrize(
        "argv",
        [["check", "T4", "bad.drv"], ["polarity", "bad.itt"], ["embed", "T3", "TCDZ", "bad.map"]],
        ids=["drv", "itt", "map"],
    )
    def test_undecodable_file_is_an_input_error(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / argv[-1]).write_bytes(b"\xff\xfe not UTF-8\n")
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "checker, argv",
        [
            ("check_subproof", ["subtype", "T0", "c0 -> c0 <= c1 -> c0"]),
            ("check_subproof", ["embed", "T3", "TCDZ", corpus_path("maps", "t3_to_tcdz.map")]),
            ("check_subproof", ["sensibility", "T3"]),
            ("check_subproof", ["sensibility", "T2inv", "--fuel", "10"]),
            ("check_derivation", ["infer", "T0", r"\x.x", "c1 -> c0"]),
            ("check_derivation", ["sensibility", "T4"]),
            # the witness nested inside an EmbeddingFrom
            ("check_derivation", ["sensibility", "T2inv", "--fuel", "10"]),
        ],
    )
    def test_certificate_failing_its_recheck_exits_4(self, capsys, monkeypatch, checker, argv):
        monkeypatch.setattr(cli, checker, lambda *args: Invalid((), "forced"))
        assert main(argv) == 4
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: internal: certificate failed to re-check\n"

    @pytest.mark.parametrize("argv", _BLOWN, ids=["subtype", "infer"])
    def test_blown_member_bound_exits_2(self, capsys, argv):
        # a spent budget is inconclusive, not a usage error
        assert main(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "inconclusive: universe exceeded 20000 members\n"

    @pytest.mark.parametrize("argv", _BLOWN, ids=["subtype", "infer"])
    def test_blown_member_bound_under_json_prints_a_report(self, capsys, argv):
        code, report = run_json(capsys, *argv)
        assert code == 2
        assert report["command"] == argv[0]
        assert report["verdict"] == {"result": "UniverseTooLarge", "member_bound": 20000}
        assert report["certificates"] == []
        # the inputs read before the bound blew
        inline = {
            "subtype": [("query", argv[2])],
            "infer": [("basis", ""), ("term", argv[2]), ("type", argv[3])],
        }
        assert report["inputs"][0] == {"kind": "builtin", "name": "T0"}
        assert [(i["label"], i["text"]) for i in report["inputs"][1:]] == inline[argv[0]]

    def test_unexpected_exception_exits_4(self, capsys, monkeypatch):
        # exit 1 would claim a definitive negative
        def broken(args, inputs):
            raise RuntimeError("boom")

        monkeypatch.setitem(cli._HANDLERS, "subtype", broken)
        assert main(["subtype", "T0", "c0 <= c0"]) == 4
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.endswith("error: internal: RuntimeError: boom\n")


def _json_run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        main(argv)
    return buf.getvalue()


@given(st.sampled_from(builtin_theories().names()))
def test_polarity_reports_are_deterministic(name):
    first = _json_run(["polarity", name, "--json"])
    second = _json_run(["polarity", name, "--json"])
    assert first == second
    json.loads(first)


@given(st.sampled_from(["T0", "T3", "T4", "Park", "EP", "Tstar"]))
def test_sensibility_reports_are_deterministic(name):
    first = _json_run(["sensibility", name, "--json"])
    assert first == _json_run(["sensibility", name, "--json"])


# -- whole-output pins -------------------------------------------------------------

CLI_FINGERPRINTS = Path(__file__).parent / "data" / "cli_fingerprints.json"
_MAPS = (
    ("Park", "T2inv", "park_to_t2inv"),
    ("T2", "T2prime", "t2_to_t2prime"),
    ("T3", "TCDZ", "t3_to_tcdz"),
    ("Tflat", "TCDZ", "tflat_to_tcdz"),
    ("Tstar", "TCDZ", "tstar_to_tcdz"),
    ("Tstarup", "TCDZ", "tstarup_to_tcdz"),
)


def cli_commands() -> list[list[str]]:
    """The pinned commands; file arguments are relative to the corpus directory."""
    names = builtin_theories().names()
    return [
        ["corpus", "--all"],
        *(["sensibility", n] for n in names),
        *(["polarity", n] for n in names),
        ["sensibility", "T2inv", "--fuel", "1"],
        ["sensibility", "Park", "--fuel", "1"],
        ["sensibility", "T2inv", "--fuel", "10"],
        *(["embed", s, t, f"maps/{m}.map"] for s, t, m in _MAPS),
        ["check", "T4", "derivations/omega2omega2_c3.drv"],
        ["subtype", "T0", "c0 -> c0 <= c1 -> c0"],
        ["subtype", "T0", "c0 <= c1"],
        ["infer", "T0", r"\x.x", "c1 -> c0"],
    ]


def cli_fingerprints() -> dict[str, dict]:
    """The exit code and the sha256 of stdout of each pinned command, as text
    and under --json, run from the corpus directory so that the file paths the
    reports record do not depend on where the repo is checked out."""
    out = {}
    cwd = os.getcwd()
    os.chdir(corpus_path())
    try:
        for argv in cli_commands():
            for mode in ([], ["--json"]):
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = main(argv + mode)
                out[" ".join(argv + mode)] = {
                    "exit": code,
                    "stdout_sha256": hashlib.sha256(buf.getvalue().encode()).hexdigest(),
                }
    finally:
        os.chdir(cwd)
    return out


def _report_theories(argv: list[str], report: dict) -> list:
    """The theories a report names: the command's own, an embedding's
    target, and each theory its evidence crossed to."""
    names = [argv[2] if argv[0] == "embed" else argv[1]]
    stack = [report["verdict"]]
    while stack:
        value = stack.pop()
        if isinstance(value, dict):
            names += [value[k] for k in ("target", "source") if k in value]
            stack.extend(value.values())
    return [spec(n) for n in names]


def test_every_pinned_certificate_reads_back_and_re_checks():
    # what re-checking a report from its text alone needs: each certificate
    # of each pinned command parses back and is Valid in a theory the report
    # names
    checks = {"subproof": (parse_subproof, check_subproof),
              "derivation": (parse_derivation, check_derivation)}
    reports = []
    cwd = os.getcwd()
    os.chdir(corpus_path())
    try:
        for argv in cli_commands():
            reports.append((argv, json.loads(_json_run(argv + ["--json"]))))
    finally:
        os.chdir(cwd)
    kinds = []
    for argv, report in reports:
        if not report["certificates"]:
            continue
        theories = _report_theories(argv, report)
        for cert in report["certificates"]:
            read, check = checks[cert["kind"]]
            node = read(cert["text"])
            assert any(check(t, node) == Valid() for t in theories), (argv, cert)
            kinds.append(cert["kind"])
    assert kinds.count("subproof") > 10 and kinds.count("derivation") > 5


def test_cli_output_matches_recorded_fingerprints():
    got = cli_fingerprints()
    want = json.loads(CLI_FINGERPRINTS.read_text(encoding="utf-8"))
    assert len(want) == 2 * len(cli_commands()) == 112
    for command, w in want.items():
        assert got[command] == w, f"output changed for: ittlab {command}"
