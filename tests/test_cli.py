import itertools
import json
import random
import sys
from fractions import Fraction as F

import pytest

from realoracle import cli
from realoracle.cli import (
    Add,
    Mul,
    Neg,
    PolyZero,
    RationalLit,
    Recip,
    Root,
    Sub,
    build_oracle,
    format_expr,
    parse_expr,
    run_command,
)
from realoracle.errors import ExprSemanticError, ExprSyntaxError
from realoracle.intervals import interval_make
from realoracle.oracle import FonsiSource, oracle_from_fonsi


NON_LITERAL = "; use recip(expr; lo:hi) with a zero-free witness interval"

# Malformed input, the error's class, its exact text, and its position
# (semantic errors carry none).
PARSE_ERRORS = [
    ("", ExprSyntaxError, "syntax error at position 0: expected an expression, found end of input", 0),
    ("1 +", ExprSyntaxError, "syntax error at position 3: expected an expression, found end of input", 3),
    ("-", ExprSyntaxError, "syntax error at position 1: expected an expression, found end of input", 1),
    ("1/", ExprSyntaxError, "syntax error at position 2: expected an expression, found end of input", 2),
    (")", ExprSyntaxError, "syntax error at position 0: expected a rational, '(', or a function name, found )", 0),
    ("1 + (2 * (3 - )", ExprSyntaxError,
     "syntax error at position 14: expected a rational, '(', or a function name, found )", 14),
    ("1 2", ExprSyntaxError, "syntax error at position 2: expected end of input, found 2", 2),
    ("(1, 2)", ExprSyntaxError, "syntax error at position 2: expected ')', found ,", 2),
    ("(1", ExprSyntaxError, "syntax error at position 2: expected ')', found end of input", 2),
    ("sqrt(2", ExprSyntaxError, "syntax error at position 6: expected ')', found end of input", 6),
    ("sqrt", ExprSyntaxError, "syntax error at position 4: expected '(', found end of input", 4),
    ("root(2; 3)", ExprSyntaxError, "syntax error at position 6: expected ',', found ;", 6),
    ("recip(1)", ExprSemanticError, "recip at position 0 needs a witness: recip(expr; lo:hi)", None),
    ("recip(1, 2)", ExprSemanticError, "recip at position 0 needs a witness: recip(expr; lo:hi)", None),
    ("recip(1; 1)", ExprSyntaxError, "syntax error at position 10: expected ':', found )", 10),
    ("recip(sqrt(2); 1:2", ExprSyntaxError, "syntax error at position 18: expected ')', found end of input", 18),
    ("2/sqrt(2)", ExprSemanticError, "division by a non-literal expression at position 2" + NON_LITERAL, None),
    ("sqrt(2)/-(sqrt(3))", ExprSemanticError, "division by a non-literal expression at position 8" + NON_LITERAL,
     None),
    ("1/(2 - 2)", ExprSemanticError, "division by zero at position 2", None),
    ("4/(1 - 1/2)/0", ExprSemanticError, "division by zero at position 12", None),
    ("3/0", ExprSemanticError, "zero denominator at position 2", None),
    ("1/(1/0)", ExprSemanticError, "zero denominator at position 5", None),
    ("recip(sqrt(2); 1/0:2)", ExprSemanticError, "zero denominator at position 17", None),
    ("1 $ 2", ExprSyntaxError, "syntax error at position 2: expected a number, name, or operator, found '$'", 2),
    ("foo(1)", ExprSyntaxError, "syntax error at position 0: expected sqrt, root, polyzero, or recip, found foo", 0),
    ("root(5/2, 2)", ExprSemanticError, "root index must be an integer, got 5/2", None),
    ("sqrt(-1)", ExprSemanticError, "root radicand must be a positive rational, got -1", None),
    ("polyzero(1; 2, 1)", ExprSemanticError, "polyzero bracket needs lo < hi", None),
]


class TestParse:
    def test_sqrt_plus_one(self):
        assert parse_expr("sqrt(2) + 1") == Add(Root(2, F(2)), RationalLit(F(1)))

    def test_root_times_difference(self):
        got = parse_expr("root(3, 5/2) * (1 - 1/3)")
        assert got == Mul(Root(3, F(5, 2)), Sub(RationalLit(F(1)), RationalLit(F(1, 3))))

    def test_negative_radicand_rejected(self):
        with pytest.raises(ExprSemanticError):
            parse_expr("sqrt(-1)")

    def test_zero_root_index_rejected(self):
        with pytest.raises(ExprSemanticError):
            parse_expr("root(0, 2)")

    def test_polyzero_with_negative_coefficients(self):
        got = parse_expr("polyzero(-2, 0, 1; 0, 2)")
        assert got == PolyZero((F(-2), F(0), F(1)), F(0), F(2))

    def test_polyzero_equal_strict_signs_rejected(self):
        with pytest.raises(ExprSemanticError):
            parse_expr("polyzero(1, 0, 1; -1, 1)")

    def test_recip_requires_witness(self):
        with pytest.raises(ExprSemanticError):
            parse_expr("recip(sqrt(2))")

    def test_recip_with_witness(self):
        got = parse_expr("recip(sqrt(2); 1:2)")
        assert got == Recip(Root(2, F(2)), F(1), F(2))

    def test_division_by_literal_is_exact(self):
        assert parse_expr("3/4") == RationalLit(F(3, 4))
        assert parse_expr("sqrt(2)/2") == Mul(Root(2, F(2)), RationalLit(F(1, 2)))

    def test_division_goes_left_to_right(self, capsys):
        half, third = RationalLit(F(1, 2)), RationalLit(F(1, 3))
        assert parse_expr("sqrt(2)/2/3") == Mul(Mul(Root(2, F(2)), half), third)
        assert parse_expr("sqrt(2)/-2/3") == Mul(Mul(Root(2, F(2)), RationalLit(F(-1, 2))), third)
        assert parse_expr("1/2/3/4") == RationalLit(F(1, 24))
        assert parse_expr("sqrt(2) * 3/4") == Mul(Root(2, F(2)), RationalLit(F(3, 4)))
        assert run_command(["eval", "sqrt(2)/2/2"]) == 0
        assert capsys.readouterr().out == "0.3535533905 ± 1e-10\n"

    def test_a_deep_constant_division_folds(self):
        assert parse_expr("3" + "/2" * 5000) == RationalLit(F(3, 2**5000))
        assert parse_expr("2" + " * 2" * 4999 + "/2" * 5000) == RationalLit(F(1))

    def test_a_division_chain_reduces_once_per_operator(self, monkeypatch):
        reductions = []
        reduce = cli._reduce
        monkeypatch.setattr(cli, "_reduce", lambda *args: reductions.append(args[0]) or reduce(*args))
        for n in (1000, 5000):
            reductions.clear()
            parse_expr("sqrt(2)" + "/2" * n)
            assert reductions == ["/"] * n

    def test_a_run_of_unary_minus(self):
        node = parse_expr("-" * 2000 + "1")
        for _ in range(2000):
            assert type(node) is Neg
            node = node.child
        assert node == RationalLit(F(1))

    def test_division_by_compound_rejected_with_hint(self):
        with pytest.raises(ExprSemanticError) as err:
            parse_expr("2/sqrt(2)")
        assert "recip" in str(err.value)

    def test_division_by_zero_literal_rejected(self):
        with pytest.raises(ExprSemanticError):
            parse_expr("1/(2 - 2)")

    def test_syntax_error_carries_position(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expr("1 + ")
        assert err.value.position == 4

    def test_unknown_character(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("1 $ 2")

    @pytest.mark.parametrize("text,position", [("²", 0), ("sqrt(²)", 5)])
    def test_a_digit_int_cannot_read_is_a_syntax_error(self, text, position):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expr(text)
        assert err.value.position == position

    def test_decimal_digits_of_any_script(self):
        assert parse_expr("1 + ٣") == Add(RationalLit(F(1)), RationalLit(F(3)))

    @pytest.mark.parametrize("text,error,message,position", PARSE_ERRORS)
    def test_an_error_gives_its_class_text_and_position(self, text, error, message, position):
        with pytest.raises(error) as err:
            parse_expr(text)
        assert type(err.value) is error
        assert str(err.value) == message
        assert getattr(err.value, "position", None) == position

    def test_precedence(self):
        got = parse_expr("1 + 2 * 3")
        assert got == Add(RationalLit(F(1)), Mul(RationalLit(F(2)), RationalLit(F(3))))

    def test_unary_minus(self):
        assert parse_expr("-2") == Neg(RationalLit(F(2)))
        assert parse_expr("1 - -2") == Sub(RationalLit(F(1)), Neg(RationalLit(F(2))))


def random_ast(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        choice = rng.randrange(3)
        if choice == 0:
            return RationalLit(F(rng.randint(-40, 40), rng.randint(1, 12)))
        if choice == 1:
            return Root(rng.choice([2, 2, 3, 5]), F(rng.randint(1, 30), rng.randint(1, 6)))
        return PolyZero((F(-rng.randint(1, 5)), F(0), F(1)), F(0), F(10))
    choice = rng.randrange(5)
    if choice == 0:
        return Neg(random_ast(rng, depth - 1))
    if choice == 1:
        return Add(random_ast(rng, depth - 1), random_ast(rng, depth - 1))
    if choice == 2:
        return Sub(random_ast(rng, depth - 1), random_ast(rng, depth - 1))
    if choice == 3:
        return Mul(random_ast(rng, depth - 1), random_ast(rng, depth - 1))
    return Recip(
        random_ast(rng, depth - 1),
        F(rng.randint(1, 5)),
        F(rng.randint(6, 12)),
    )


class TestRoundTrip:
    def test_fuzzed_print_parse_identity(self):
        rng = random.Random(99)
        for _ in range(2000):
            ast = random_ast(rng, rng.randint(0, 4))
            assert parse_expr(format_expr(ast)) == ast

    def test_a_5000_term_tree_prints_back_to_its_text(self):
        # `Record` == recurses, so the deep trees are compared as text.
        rng = random.Random(7)
        ast = random_ast(rng, 2)
        operands = [Root(2, F(3)), Neg(Root(3, F(2))), Mul(RationalLit(F(2)), Root(2, F(5))), RationalLit(F(1, 7))]
        for _ in range(4999):
            ast = rng.choice([Add, Sub])(ast, rng.choice(operands))
        text = format_expr(ast)
        assert text.count(" + ") + text.count(" - ") >= 4999
        assert format_expr(parse_expr(text)) == text

    def test_an_unknown_node_is_named(self):
        for walk in (format_expr, build_oracle):
            with pytest.raises(TypeError, match="unknown node 'x'"):
                walk(Add(RationalLit(F(1)), "x"))


def nested_recip(depth):
    """``depth`` recip( around sqrt(2), the witnesses alternating 1:2 and
    1/2:1, so an even depth is sqrt(2) again."""
    expr = "sqrt(2)"
    for level in range(depth):
        expr = f"recip({expr}; {'1/2:1' if level % 2 else '1:2'})"
    return expr


class TestCommands:
    def test_eval_golden(self, capsys):
        code = run_command(["eval", "sqrt(2)+1", "--digits", "10"])
        out = capsys.readouterr().out
        assert out == "2.4142135623 ± 1e-10\n"
        assert code == 0

    def test_cf_golden(self, capsys):
        code = run_command(["cf", "sqrt(2)", "--terms", "5"])
        assert capsys.readouterr().out == "1; 2 2 2 2\n"
        assert code == 0

    def test_cf_of_an_integer_and_of_a_rational(self, capsys):
        assert run_command(["cf", "3"]) == 0
        assert capsys.readouterr().out == "3\n"
        assert run_command(["cf", "7/2"]) == 0
        assert capsys.readouterr().out == "3; 2\n"

    def test_query_golden(self, capsys):
        code = run_command(["query", "sqrt(2)", "1:2"])
        assert capsys.readouterr().out == "Yes\n"
        assert code == 0

    def test_query_no(self, capsys):
        code = run_command(["query", "sqrt(2)", "3:4"])
        assert capsys.readouterr().out == "No\n"
        assert code == 0

    def test_query_exhausted_exits_two(self, capsys):
        code = run_command(["query", "sqrt(2)*sqrt(2)", "2:2", "--budget", "100"])
        out = capsys.readouterr().out
        assert code == 2
        assert out.startswith("Exhausted") and "100" in out

    def test_a_late_lie_names_its_region_in_a_short_error_line(self, capsys):
        # The witness ends 2**-100 short of the number 2, too close to refute
        # within the check budget; it is refused before any digit is asked.
        region = f"1:{2**101 - 1}/{2**100}"
        code = run_command(["eval", f"recip(sqrt(2)*sqrt(2); {region})", "--digits", "1000"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        line = captured.err.splitlines()[0]
        assert line.startswith("error:") and f"region {region} claimed for recip is not decided Yes within 64" in line
        assert line.count(region) == 1 and len(line) < 300

    @pytest.mark.parametrize("expr, question", [
        (f"recip(sqrt(2)*sqrt(2); 1:{2**101 - 1}/{2**100})", f"{2**100}/{2**101 - 1}:1"),
        (f"recip(sqrt(2)*sqrt(2) - 2 + 1/{2**100}; -1:-1/{2**200})", f"-{2**200}:-1/2"),
    ], ids=["just-below", "wrong-side-of-zero"])
    def test_a_query_through_a_lying_witness_exits_one(self, capsys, expr, question):
        # Trusted, either lie would answer Yes: no bounded query refutes it.
        code = run_command(["query", expr, question])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error:") and "not decided Yes" in captured.err

    def test_query_with_a_point_witness_off_the_number_exits_one(self, capsys):
        # The number is 1/(2 + 2^-100); the witness 2:2 must not root it at 1/2.
        expr = f"recip(sqrt(2)*sqrt(2) + 1/{2**100}; 2:2)"
        code = run_command(["query", expr, "1/2:1/2"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error:")

    def test_eval_with_a_point_witness_at_an_exact_number(self, capsys):
        code = run_command(["eval", "recip(sqrt(4); 2:2)"])
        assert capsys.readouterr().out == "0.5000000000 ± 1e-10 (exact)\n"
        assert code == 0

    def test_eval_rational_polyzero_on_a_decimal_boundary(self, capsys):
        # The zero 1001/2 is rooted, so its digits need no decision at 500.5.
        code = run_command(["eval", "polyzero(-1001, 2; 0, 1000)", "--digits", "3"])
        assert capsys.readouterr().out == "500.500 ± 1e-3 (exact)\n"
        assert code == 0

    def test_eval_json_exact_rational_bounds(self, capsys):
        code = run_command(["eval", "1/4 + 1/4", "--digits", "3", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload == {"lo": "1/2", "hi": "501/1000", "status": "exact"}

    def test_eval_json_enclosure_brackets_value(self, capsys):
        code = run_command(["eval", "sqrt(2)", "--digits", "6", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        lo, hi = F(payload["lo"]), F(payload["hi"])
        assert lo.numerator**2 <= 2 * lo.denominator**2
        assert hi.numerator**2 >= 2 * hi.denominator**2

    def test_approx_command(self, capsys):
        code = run_command(["approx", "sqrt(2)", "--maxden", "10"])
        assert capsys.readouterr().out == "7/5\n"
        assert code == 0

    def test_check_command_passes(self, capsys):
        code = run_command(["check", "sqrt(2)", "--samples", "60", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert len(out.splitlines()) == 9
        assert all("Passed" in line for line in out.splitlines())

    def test_syntax_error_exits_one(self, capsys):
        code = run_command(["eval", "sqrt(2"])
        err = capsys.readouterr().err
        assert code == 1 and "error" in err

    def test_superscript_digit_exits_one(self, capsys):
        assert run_command(["eval", "sqrt(²)"]) == 1
        assert capsys.readouterr().err.startswith("error: syntax error at position 5")

    @pytest.mark.parametrize(
        "expr,out",
        [
            ("(" * 400 + "1" + ")" * 400, "1.0000000000 ± 1e-10 (exact)\n"),
            ("(" * 10**5 + "1" + ")" * 10**5, "1.0000000000 ± 1e-10 (exact)\n"),
            (nested_recip(300), "1.4142135623 ± 1e-10\n"),
            ("-" * 10**5 + "1", "1.0000000000 ± 1e-10 (exact)\n"),
        ],
        ids=["parentheses-400", "parentheses-100000", "recip-300", "minus-100000"],
    )
    def test_nesting_of_any_depth_evaluates(self, expr, out, capsys):
        # The parser keeps its open frames on a list, so at the default
        # recursion limit no depth of nesting meets it.
        assert sys.getrecursionlimit() == 1000
        assert run_command(["eval", expr]) == 0
        assert capsys.readouterr().out == out

    def test_a_long_sum_evaluates(self, capsys):
        assert run_command(["eval", " + ".join(["sqrt(2)"] * 600)]) == 0
        assert capsys.readouterr().out == "848.5281374238 ± 1e-10\n"

    def test_a_5000_term_sum_evaluates(self, capsys):
        assert run_command(["eval", " + ".join(["sqrt(2)"] * 5000)]) == 0
        assert capsys.readouterr().out == "7071.0678118654 ± 1e-10\n"

    @pytest.mark.parametrize(
        "expr,out",
        [
            ("sqrt(2)" + "/2" * 5000, "0.0000000000 ± 1e-10\n"),
            ("sqrt(2) * (" + " + ".join(["1"] * 3000) + ") / 7", "606.0915267313 ± 1e-10\n"),
            ("-" * 2000 + "1", "1.0000000000 ± 1e-10 (exact)\n"),
        ],
        ids=["division-chain", "long-factor", "minus-run"],
    )
    def test_a_deep_term_evaluates(self, expr, out, capsys):
        assert run_command(["eval", expr]) == 0
        assert capsys.readouterr().out == out

    @pytest.mark.parametrize(
        "argv,out",
        [
            (["eval", "-sqrt(2)"], "-1.4142135624 ± 1e-10\n"),
            (["eval", "-1/2"], "-0.5000000000 ± 1e-10 (exact)\n"),
            (["eval", "−1/2"], "-0.5000000000 ± 1e-10 (exact)\n"),
            (["eval", "-2", "--digits", "2"], "-2.00 ± 1e-2 (exact)\n"),
            (["eval", "--sqrt(4)", "--digits=2"], "2.00 ± 1e-2 (exact)\n"),
            (["eval", "--", "-2/3"], "-0.6666666667 ± 1e-10\n"),
            (["query", "sqrt(2)", "-2:3"], "Yes\n"),
            (["query", "-sqrt(2)", "-2:-1"], "Yes\n"),
        ],
    )
    def test_an_operand_may_start_with_minus(self, argv, out, capsys):
        assert run_command(argv) == 0
        assert capsys.readouterr().out == out

    def test_options_still_read_as_options(self, capsys):
        assert run_command(["check", "sqrt(2)", "--seed", "-3", "--samples", "5"]) == 0
        capsys.readouterr()
        assert run_command(["eval", "2", "--digits", "-1"]) == 1
        assert capsys.readouterr().err.startswith("error:")
        for argv in (["-h"], ["eval", "-h"]):
            with pytest.raises(SystemExit) as done:
                run_command(argv)
            assert done.value.code == 0
            assert capsys.readouterr().out.startswith("usage: realoracle")

    def test_usage_error_exits_one(self, capsys):
        code = run_command(["eval"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_bad_interval_exits_one(self, capsys):
        code = run_command(["query", "sqrt(2)", "12"])
        assert code == 1

    def test_eval_exhausted_exit_code(self, capsys):
        code = run_command(["eval", "sqrt(2) - sqrt(2)", "--digits", "4", "--budget", "200"])
        out = capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize("command", ["cf", "approx"])
    def test_a_boundary_number_exhausts_cf_and_approx(self, command, capsys):
        assert run_command([command, "sqrt(2)*sqrt(2)", "--budget", "10"]) == 2
        assert capsys.readouterr().err == (
            "budget exhausted: locate(2) on (root(2, 2) * root(2, 2)) unresolved within 10 steps\n"
        )

    def test_check_with_no_budget_is_inconclusive_and_exits_two(self, capsys):
        assert run_command(["check", "sqrt(2)", "--budget", "0", "--samples", "5"]) == 2
        verdicts = dict(line.split()[:2] for line in capsys.readouterr().out.splitlines())
        assert verdicts["TwoPointSeparation"] == verdicts["Narrowing"] == "Inconclusive"

    def test_best_approx_lies_inside_eval_enclosure(self, capsys):
        run_command(["eval", "sqrt(2)", "--digits", "10", "--json"])
        payload = json.loads(capsys.readouterr().out)
        lo, hi = F(payload["lo"]), F(payload["hi"])
        run_command(["approx", "sqrt(2)", "--maxden", "1000000"])
        best = F(capsys.readouterr().out.strip())
        assert lo <= best <= hi


class TestBuildOracle:
    def test_polyzero_oracle_is_golden_ratio(self):
        oracle = build_oracle(parse_expr("polyzero(-1, -1, 1; 1, 2)"))
        from realoracle.oracle import Budget
        from realoracle.refine import mediant_expand

        assert mediant_expand(oracle, 6, Budget(200)).terms == (1, 1, 1, 1, 1, 1)

    def test_recip_oracle(self):
        oracle = build_oracle(parse_expr("recip(sqrt(2); 1:2)"))
        from realoracle.oracle import Budget

        got = oracle.refine(F(1, 10**10), Budget(200))
        assert got.lo**2 <= F(1, 2) <= got.hi**2


class TestLongOutput:
    def test_eval_text_5000_places(self, capsys):
        code = run_command(["eval", "2/3", "--digits", "5000"])
        assert code == 0
        assert capsys.readouterr().out == "0." + "6" * 5000 + " ± 1e-5000\n"

    def test_eval_json_5000_places(self, capsys):
        code = run_command(["eval", "2/3", "--digits", "5000", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        # 0.666...6 = 333...3/(5 * 10^4999), and one unit more is 666...7/10^5000.
        assert payload["lo"] == "3" * 5000 + "/5" + "0" * 4999
        assert payload["hi"] == "6" * 4999 + "7/1" + "0" * 5000

    def test_eval_json_negative_5000_places(self, capsys):
        code = run_command(["eval", "(-2/3)", "--digits", "5000", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        # The floor at the last place is -666...67/10^5000; one unit more is
        # -666...66/10^5000 = -333...3/(5 * 10^4999).
        assert payload["lo"] == "-" + "6" * 4999 + "7/1" + "0" * 5000
        assert payload["hi"] == "-" + "3" * 5000 + "/5" + "0" * 4999


class TestJsonExhaustion:
    def test_reports_the_held_enclosure_without_pulling_again(self, capsys, monkeypatch):
        pulled = []

        def enumerate_slowly():
            for n in itertools.count(1):
                pulled.append(n)
                yield interval_make(-F(1, n), F(1, n))

        monkeypatch.setattr(
            "realoracle.cli.build_oracle",
            lambda node: oracle_from_fonsi(FonsiSource(enumerate_slowly())),
        )
        code = run_command(["eval", "0", "--digits", "6", "--budget", "5", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 2
        assert len(pulled) == 5
        assert payload == {"status": "exhausted", "budget": 5, "lo": "-1/5", "hi": "1/5"}


class TestPolyzeroWithSeveralZeros:
    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "polyzero(0,1,0,-1; -2, 2)"],
            ["check", "polyzero(0,1,0,-1; -2, 2)", "--samples", "10"],
            ["query", "polyzero(0,1,0,-1; -2, 2)", "0:1"],
        ],
        ids=["eval", "check", "query"],
    )
    def test_exits_one(self, argv, capsys):
        assert run_command(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "3 distinct zeros" in captured.err
