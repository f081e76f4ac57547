"""Parser unit tests."""

import pytest

from repro.lang import ast_nodes as ast
from repro.lang.errors import ParseError
from repro.lang.parser import parse_program


def parse_main_body(stmts: str) -> list[ast.Stmt]:
    program = parse_program("int main() {" + stmts + "}")
    return program.function("main").body.stmts


def parse_expr(text: str) -> ast.Expr:
    (stmt,) = parse_main_body(text + ";")
    assert isinstance(stmt, ast.ExprStmt)
    return stmt.expr


class TestTopLevel:
    def test_global_scalar(self):
        program = parse_program("int g; int main() { return 0; }")
        assert program.globals[0].name == "g"
        assert program.globals[0].size is None

    def test_global_array_and_init(self):
        program = parse_program(
            "int a[10]; int b = 5; int main() { return 0; }")
        assert program.globals[0].size.value == 10
        assert program.globals[1].init.value == 5

    def test_function_params(self):
        program = parse_program("void f(int a, int buf[]) {} "
                                "int main() { return 0; }")
        fn = program.function("f")
        assert [p.name for p in fn.params] == ["a", "buf"]
        assert [p.is_array for p in fn.params] == [False, True]
        assert not fn.returns_value

    def test_void_parameter_list(self):
        program = parse_program("int f(void) { return 1; } "
                                "int main() { return 0; }")
        assert program.function("f").params == []

    def test_missing_declaration(self):
        with pytest.raises(ParseError):
            parse_program("42;")


class TestStatements:
    def test_if_else(self):
        (stmt,) = parse_main_body("if (1) { } else { }")
        assert isinstance(stmt, ast.If)
        assert stmt.els is not None

    def test_dangling_else_binds_inner(self):
        (stmt,) = parse_main_body("if (1) if (2) return; else return;")
        assert stmt.els is None
        assert isinstance(stmt.then, ast.If)
        assert stmt.then.els is not None

    def test_while(self):
        (stmt,) = parse_main_body("while (x) x = x - 1;")
        assert isinstance(stmt, ast.While)

    def test_do_while(self):
        (stmt,) = parse_main_body("do x++; while (x < 10);")
        assert isinstance(stmt, ast.DoWhile)

    def test_for_full(self):
        (stmt,) = parse_main_body("for (int i = 0; i < 10; i++) { }")
        assert isinstance(stmt, ast.For)
        assert isinstance(stmt.init, ast.VarDeclStmt)
        assert stmt.cond is not None
        assert stmt.step is not None

    def test_for_empty_clauses(self):
        (stmt,) = parse_main_body("for (;;) break;")
        assert stmt.init is None and stmt.cond is None and stmt.step is None

    def test_for_expression_init(self):
        (stmt,) = parse_main_body("for (i = 0; i < 3; i++) ;")
        assert isinstance(stmt.init, ast.ExprStmt)

    def test_break_continue_return(self):
        stmts = parse_main_body("break; continue; return 3; return;")
        assert isinstance(stmts[0], ast.Break)
        assert isinstance(stmts[1], ast.Continue)
        assert stmts[2].value.value == 3
        assert stmts[3].value is None

    def test_local_array_decl(self):
        (stmt,) = parse_main_body("int buf[4];")
        assert isinstance(stmt, ast.VarDeclStmt)
        assert stmt.size.value == 4

    def test_empty_statement(self):
        (stmt,) = parse_main_body(";")
        assert isinstance(stmt, ast.Block)
        assert stmt.stmts == []

    def test_unterminated_block(self):
        with pytest.raises(ParseError):
            parse_program("int main() { if (1) {")


class TestExpressions:
    def test_precedence_mul_over_add(self):
        expr = parse_expr("1 + 2 * 3")
        assert expr.op == "+"
        assert expr.rhs.op == "*"

    def test_precedence_shift_below_add(self):
        expr = parse_expr("1 << 2 + 3")
        assert expr.op == "<<"
        assert expr.rhs.op == "+"

    def test_precedence_bitwise_ladder(self):
        expr = parse_expr("1 | 2 ^ 3 & 4")
        assert expr.op == "|"
        assert expr.rhs.op == "^"
        assert expr.rhs.rhs.op == "&"

    def test_comparison_below_bitand(self):
        # C's historic precedence: & binds tighter than == in MiniC? No —
        # MiniC follows C: == binds tighter than &.
        expr = parse_expr("a & b == c")
        assert expr.op == "&"
        assert expr.rhs.op == "=="

    def test_logical_short_circuit_nodes(self):
        expr = parse_expr("a && b || c")
        assert isinstance(expr, ast.LogicalOp)
        assert expr.op == "||"
        assert expr.lhs.op == "&&"

    def test_assignment_right_associative(self):
        expr = parse_expr("a = b = 1")
        assert isinstance(expr, ast.Assign)
        assert isinstance(expr.value, ast.Assign)

    def test_compound_assignment(self):
        expr = parse_expr("a += 2")
        assert expr.op == "+"

    def test_assignment_target_checked(self):
        with pytest.raises(ParseError):
            parse_expr("1 = 2")

    def test_ternary(self):
        expr = parse_expr("a ? b : c ? d : e")
        assert isinstance(expr, ast.CondExpr)
        assert isinstance(expr.els, ast.CondExpr)

    def test_unary_chain(self):
        expr = parse_expr("-~!x")
        assert expr.op == "-"
        assert expr.operand.op == "~"
        assert expr.operand.operand.op == "!"

    def test_unary_plus_is_identity(self):
        expr = parse_expr("+x")
        assert isinstance(expr, ast.VarRef)

    def test_postfix_increment(self):
        expr = parse_expr("x++")
        assert isinstance(expr, ast.IncDec)
        assert not expr.is_prefix

    def test_prefix_decrement(self):
        expr = parse_expr("--x")
        assert expr.op == "--"
        assert expr.is_prefix

    def test_increment_needs_lvalue(self):
        with pytest.raises(ParseError):
            parse_expr("(a + b)++")

    def test_call_and_index(self):
        expr = parse_expr("f(a, b[i], 3)")
        assert isinstance(expr, ast.Call)
        assert isinstance(expr.args[1], ast.Index)

    def test_parenthesized(self):
        expr = parse_expr("(1 + 2) * 3")
        assert expr.op == "*"
        assert expr.lhs.op == "+"

    def test_missing_expression(self):
        with pytest.raises(ParseError):
            parse_expr("1 +")


class TestNestingLimit:
    """Source nested past ``MAX_NESTING`` fails with a ParseError, not
    a RecursionError; source at the limit goes through every pass."""

    @staticmethod
    def parens(levels: int) -> str:
        # main's statement and its expression are levels 1 and 2.
        return ("int main() { return " + "(" * (levels - 2) + "1"
                + ")" * (levels - 2) + "; }")

    @staticmethod
    def loops(levels: int) -> str:
        # Each loop is a statement holding a block: two levels; the
        # innermost statement and its expression take the last two.
        body = "s++;"
        for k in range((levels - 2) // 2):
            body = f"for (int i{k} = 0; i{k} < 1; i{k}++) {{ {body} }}"
        return ("int s; int main() { " + body + " print(s); "
                "return 0; }")

    def test_sixty_parentheses(self):
        with pytest.raises(ParseError, match="nesting deeper than"):
            parse_program(self.parens(62))

    def test_two_thousand_blocks(self):
        from repro.ir.lowering import compile_source

        source = "int main() { " + "{" * 2000 + "}" * 2000 + " return 0; }"
        with pytest.raises(ParseError, match="nesting deeper than"):
            compile_source(source)

    def test_prefix_operator_chain(self):
        with pytest.raises(ParseError, match="nesting deeper than"):
            parse_program("int main() { return " + "- " * 600 + "1; }")

    def test_one_past_the_limit(self):
        from repro.lang.parser import MAX_NESTING

        parse_program(self.parens(MAX_NESTING))
        with pytest.raises(ParseError):
            parse_program(self.parens(MAX_NESTING + 1))

    @pytest.mark.parametrize("shape", ["parens", "loops"])
    def test_at_the_limit_compiles_profiles_and_advises(self, shape,
                                                        tmp_path):
        from repro.api import Session
        from repro.lang.parser import MAX_NESTING

        source = getattr(self, shape)(MAX_NESTING)
        with Session(cache_dir=str(tmp_path)) as session:
            report = session.analyze(source, ["dep"])
            advice = session.advise(source)
        assert report["dep"].payload.exit_value == (shape == "parens")
        assert advice.data["total_instructions"] > 0

    @pytest.mark.parametrize("chain", ["x = ", "x ? 1 : "])
    def test_right_recursive_chains(self, chain):
        with pytest.raises(ParseError, match="nesting deeper than"):
            parse_program("int x; int main() { " + chain * 300 + "1; }")
