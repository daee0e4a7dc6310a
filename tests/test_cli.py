"""End-to-end tests of the command line interface."""

import pytest

from argcl import cli, solve_source, parse_dimacs
from argcl.cli import main

LANG = """\
relation OR2 2 { 01 10 11 }
relation NEQ 2 { 01 10 }
relation T 1 { 1 }
relation F 1 { 0 }
relation EQ2 2 { 00 11 }
"""

NAE3_PROPS = """\
horn: false
dual_horn: false
bijunctive: false
affine: false
zero_valid: false
one_valid: false
eps_valid: false
complementive: true
positive: false
negative: false
in_is0: false
in_is1: false
schaefer: false
"""


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "lang.rel").write_text(LANG)
    (tmp_path / "nae3.rel").write_text("relation NAE3 3 { 001 010 011 100 101 110 }\n")
    (tmp_path / "impl.rel").write_text("relation IMPL 2 { 00 01 11 }\n")
    return tmp_path


def instance_file(workdir, name, body):
    path = workdir / name
    path.write_text("use lang.rel\n" + body)
    return str(path)


class TestProps:
    def test_flag_listing(self, workdir, capsys):
        assert main(["props", str(workdir / "nae3.rel")]) == 0
        assert capsys.readouterr().out == NAE3_PROPS

    def test_missing_file(self, workdir, capsys):
        assert main(["props", str(workdir / "gone.rel")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_binary_file(self, workdir, capsys):
        (workdir / "binary.rel").write_bytes(b"\xff\xfe relation")
        assert main(["props", str(workdir / "binary.rel")]) == 2
        assert "UTF-8" in capsys.readouterr().err
        path = instance_file(
            workdir, "usebinary.arg", "use binary.rel\nformula f = OR2(a,b)\nkb f\nclaim OR2(b,a)\n"
        )
        assert main(["solve", "sat", path]) == 2
        assert "cannot read binary.rel" in capsys.readouterr().err


class TestClassify:
    def test_hard_language(self, workdir, capsys):
        assert main(["classify", str(workdir / "nae3.rel")]) == 0
        assert capsys.readouterr().out == (
            "ARG: SigmaP2-complete\n"
            "ARGCHECK: DP-complete\n"
            "ARGREL: SigmaP2-complete\n"
        )

    def test_tractable_language(self, workdir, capsys):
        assert main(["classify", str(workdir / "impl.rel")]) == 0
        assert capsys.readouterr().out == (
            "ARG: P\nARGCHECK: P\nARGREL: NP-complete\n"
        )


class TestSolve:
    def test_sat_yes(self, workdir, capsys):
        path = instance_file(
            workdir, "sat.arg", "formula f = OR2(a,b)\nkb f\nclaim OR2(b,a)\n"
        )
        assert main(["solve", "sat", path]) == 0
        assert capsys.readouterr().out == "YES\n"

    def test_check_rejects_inconsistent_base(self, workdir, capsys):
        body = "formula f = T(x) & F(x)\nkb f\nclaim EQ2(x,x)\n"
        path = instance_file(workdir, "inconsistent.arg", body)
        assert main(["solve", "check", path]) == 1
        assert capsys.readouterr().out == "NO\n"

    def test_arg_recovers_consistent_subset(self, workdir, capsys):
        body = (
            "formula bad = T(x) & F(x)\n"
            "formula good = OR2(a,b)\n"
            "kb bad good\n"
            "claim OR2(b,a)\n"
        )
        path = instance_file(workdir, "mixed.arg", body)
        assert main(["solve", "arg", path]) == 0
        assert capsys.readouterr().out == "YES\n"
        assert main(["solve", "imp", path]) == 0

    def test_rel_answers(self, workdir, capsys):
        body = (
            "formula or = OR2(a,b)\n"
            "formula neq = NEQ(a,b)\n"
            "formula extra = T(c)\n"
            "kb or neq extra\n"
            "claim OR2(a,b)\n"
            "relevant extra\n"
        )
        path = instance_file(workdir, "rel.arg", body)
        assert main(["solve", "rel", path]) == 1
        assert capsys.readouterr().out == "NO\n"

    def test_rel_requires_relevant_line(self, workdir, capsys):
        path = instance_file(
            workdir, "norel.arg", "formula f = OR2(a,b)\nkb f\nclaim OR2(a,b)\n"
        )
        assert main(["solve", "rel", path]) == 2
        assert "relevant" in capsys.readouterr().err

    def test_internal_type_error_propagates(self, workdir, monkeypatch):
        # A TypeError is a bug, not a usage error: no exit code hides it.
        def broken(*args, **kwargs):
            raise TypeError("internal bug")

        monkeypatch.setattr(cli, "is_consistent", broken)
        path = instance_file(
            workdir, "typeerror.arg", "formula f = OR2(a,b)\nkb f\nclaim OR2(b,a)\n"
        )
        with pytest.raises(TypeError, match="internal bug"):
            main(["solve", "sat", path])

    def test_internal_value_error_propagates(self, workdir, monkeypatch):
        # A ValueError past parsing is a bug too: input problems arrive as
        # ParseError or another ArgclError, so no exit code hides it.
        def broken(*args, **kwargs):
            raise ValueError("internal bug")

        monkeypatch.setattr(cli, "is_consistent", broken)
        path = instance_file(
            workdir, "valueerror.arg", "formula f = OR2(a,b)\nkb f\nclaim OR2(b,a)\n"
        )
        with pytest.raises(ValueError, match="internal bug"):
            main(["solve", "sat", path])

    def test_engine_budget_exit(self, workdir, capsys):
        path = instance_file(
            workdir, "budget.arg", "formula f = OR2(a,b)\nkb f\nclaim OR2(b,a)\n"
        )
        code = main(["solve", "arg", path, "--engine", "generic", "--max-models", "2"])
        assert code == 3
        assert capsys.readouterr().err.startswith("error:")


class TestSupports:
    BODY = (
        "formula or = OR2(a,b)\n"
        "formula neq = NEQ(a,b)\n"
        "formula extra = T(c)\n"
        "kb or neq extra\n"
        "claim OR2(a,b)\n"
    )

    def test_find_one(self, workdir, capsys):
        path = instance_file(workdir, "sup.arg", self.BODY)
        assert main(["supports", path]) == 0
        assert capsys.readouterr().out == "1\n"

    def test_enumerate_all(self, workdir, capsys):
        path = instance_file(workdir, "supall.arg", self.BODY)
        assert main(["supports", "--all", path]) == 0
        assert capsys.readouterr().out == "0\n1\n"

    def test_empty_support(self, workdir, capsys):
        path = instance_file(
            workdir, "taut.arg", "formula f = T(c)\nkb f\nclaim EQ2(x,x)\n"
        )
        assert main(["supports", path]) == 0
        assert capsys.readouterr().out == "(empty)\n"

    def test_none(self, workdir, capsys):
        path = instance_file(
            workdir, "none.arg", "formula f = T(c)\nkb f\nclaim OR2(a,b)\n"
        )
        assert main(["supports", path]) == 1
        assert capsys.readouterr().out == "none\n"
        assert main(["supports", "--all", path]) == 1

    def test_deterministic(self, workdir, capsys):
        path = instance_file(workdir, "det.arg", self.BODY)
        main(["supports", "--all", path])
        first = capsys.readouterr().out
        main(["supports", "--all", path])
        assert capsys.readouterr().out == first


class TestExpress:
    def test_equality_gadget(self, workdir, capsys):
        assert main(["express", "eq", str(workdir / "impl.rel")]) == 0
        assert capsys.readouterr().out == "IMPL(y,x) & IMPL(x,y)\nverified: true\n"

    def test_precondition_failure(self, workdir, capsys):
        assert main(["express", "neq", str(workdir / "impl.rel")]) == 2
        assert "precondition" in capsys.readouterr().err

    def test_unknown_target_rejected_by_parser(self, workdir):
        with pytest.raises(SystemExit):
            main(["express", "xor", str(workdir / "impl.rel")])


class TestReduce:
    def test_writes_language_and_instance(self, workdir, capsys):
        src = workdir / "input.cnf"
        src.write_text("p cnf 3 2\n1 -2 0\n-1 3 0\n")
        assert main(["reduce", "threesat_arg_neq", str(src)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == [
            str(workdir / "input_threesat_arg_neq.rel"),
            str(workdir / "input_threesat_arg_neq.arg"),
        ]
        assert (workdir / "input_threesat_arg_neq.rel").exists()

        # The produced instance answers exactly like the source problem.
        want = solve_source("threesat", parse_dimacs(src.read_text()))
        code = main(["solve", "arg", out[1]])
        assert (code == 0) == want

    def test_out_prefix(self, workdir, capsys):
        src = workdir / "tiny.cnf"
        src.write_text("p cnf 1 2\n1 0\n-1 0\n")
        prefix = str(workdir / "custom")
        assert main(["reduce", "critsat_argcheck_impl", str(src), "--out", prefix]) == 0
        assert capsys.readouterr().out == f"{prefix}.rel\n{prefix}.arg\n"
        assert main(["solve", "check", prefix + ".arg"]) == 0

    def test_abduction_source(self, workdir, capsys):
        src = workdir / "abd.inst"
        src.write_text(
            "relation IMPL 2 { 00 01 11 }\n"
            "relation OR2 2 { 01 10 11 }\n"
            "formula r = IMPL(h,q)\n"
            "kb r\n"
            "hypotheses h\n"
            "observation q\n"
        )
        assert main(["reduce", "abdp_arg_andnot_ext", str(src)]) == 0
        paths = capsys.readouterr().out.splitlines()
        code = main(["solve", "arg", paths[1]])
        assert code == 0

    def test_bad_source_file(self, workdir, capsys):
        src = workdir / "broken.cnf"
        src.write_text("p cnf 1\n")
        assert main(["reduce", "threesat_arg_neq", str(src)]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestWrongFormat:
    """A source file in the other format is a parse error, exit 2."""

    ABD = (
        "relation IMPL 2 { 00 01 11 }\n"
        "formula r = IMPL(h,q)\n"
        "kb r\n"
        "hypotheses h\n"
        "observation q\n"
    )
    CNF = "p cnf 2 1\n1 2 0\n"

    @pytest.mark.parametrize(
        "argv, text",
        [
            (["oracle", "abd"], CNF),
            (["oracle", "threesat"], ABD),
            (["reduce", "abdp_arg_neq_ext"], CNF),
            (["reduce", "threesat_arg_neq"], ABD),
        ],
    )
    def test_exit_2(self, workdir, capsys, argv, text):
        src = workdir / "source.txt"
        src.write_text(text)
        assert main([*argv, str(src)]) == 2
        assert capsys.readouterr().err.startswith("error: line 1:")


class TestOracle:
    def test_threesat(self, workdir, capsys):
        sat = workdir / "sat.cnf"
        sat.write_text("p cnf 2 2\n1 2 0\n-1 0\n")
        assert main(["oracle", "threesat", str(sat)]) == 0
        assert capsys.readouterr().out == "YES\n"
        unsat = workdir / "unsat.cnf"
        unsat.write_text("p cnf 1 2\n1 0\n-1 0\n")
        assert main(["oracle", "threesat", str(unsat)]) == 1
        assert capsys.readouterr().out == "NO\n"

    def test_criticalsat(self, workdir, capsys):
        crit = workdir / "crit.cnf"
        crit.write_text("p cnf 1 2\n1 0\n-1 0\n")
        assert main(["oracle", "criticalsat", str(crit)]) == 0
        assert capsys.readouterr().out == "YES\n"

    def test_abduction(self, workdir, capsys):
        src = workdir / "fwd.inst"
        src.write_text(
            "relation IMPL 2 { 00 01 11 }\n"
            "formula r = IMPL(h,q)\n"
            "kb r\n"
            "hypotheses h\n"
            "observation q\n"
        )
        assert main(["oracle", "abd_p", str(src)]) == 0
        assert capsys.readouterr().out == "YES\n"
