"""Recursive-descent parser for MiniC.

Grammar (EBNF, whitespace/comments elided)::

    program      := (func_decl | global_decl)*
    global_decl  := 'int' '*'* IDENT ('[' expr ']')? ('=' expr)? ';'
    func_decl    := ('int' '*'* | 'void') IDENT
                    '(' [param (',' param)*] ')' block
    param        := 'int' '*'* IDENT ('[' ']')?
    block        := '{' stmt* '}'
    stmt         := block | var_decl | if_stmt | while_stmt | do_while
                  | for_stmt | switch_stmt | 'break' ';' | 'continue' ';'
                  | 'return' [expr] ';' | 'goto' IDENT ';' | IDENT ':'
                  | [expr] ';'
    if_stmt      := 'if' '(' expr ')' stmt ['else' stmt]
    while_stmt   := 'while' '(' expr ')' stmt
    do_while     := 'do' stmt 'while' '(' expr ')' ';'
    for_stmt     := 'for' '(' (var_decl | [expr] ';') [expr] ';' [expr] ')' stmt
    switch_stmt  := 'switch' '(' expr ')' '{' case* '}'
    case         := ('case' expr | 'default') ':' stmt*

Expressions follow the C precedence ladder from assignment (lowest) up to
postfix operators; ``&&``/``||`` short-circuit, ``?:``, unary ``*``
(dereference) and unary ``&`` (address-of) are supported.
"""

from __future__ import annotations

from repro.lang import ast_nodes as ast
from repro.lang.errors import ParseError
from repro.lang.lexer import tokenize
from repro.lang.tokens import COMPOUND_ASSIGN_OPS, Token, TokenType

# Binary precedence ladder: each level lists its left-associative, strict
# operators. Short-circuit and ternary levels are handled separately.
_BINARY_LEVELS: list[dict[TokenType, str]] = [
    {TokenType.PIPE: "|"},
    {TokenType.CARET: "^"},
    {TokenType.AMP: "&"},
    {TokenType.EQ: "==", TokenType.NE: "!="},
    {TokenType.LT: "<", TokenType.GT: ">", TokenType.LE: "<=",
     TokenType.GE: ">="},
    {TokenType.LSHIFT: "<<", TokenType.RSHIFT: ">>"},
    {TokenType.PLUS: "+", TokenType.MINUS: "-"},
    {TokenType.STAR: "*", TokenType.SLASH: "/", TokenType.PERCENT: "%"},
]


#: Deepest nesting of statements, expressions (an assignment's value and
#: a conditional's else branch nest too) and prefix-operator operands;
#: deeper source is a ParseError, not a Python stack overflow here or in
#: a later pass (one parenthesis costs ~17 frames).
MAX_NESTING = 40


class Parser:
    """Parses a token stream into a :class:`repro.lang.ast_nodes.Program`."""

    def __init__(self, tokens: list[Token], filename: str = "<input>"):
        self.tokens = tokens
        self.filename = filename
        self.pos = 0
        self.depth = 0

    # -- token helpers ------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        index = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def _at(self, tok_type: TokenType) -> bool:
        return self._peek().type is tok_type

    def _advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.type is not TokenType.EOF:
            self.pos += 1
        return token

    def _match(self, tok_type: TokenType) -> Token | None:
        if self._at(tok_type):
            return self._advance()
        return None

    def _expect(self, tok_type: TokenType, what: str) -> Token:
        if not self._at(tok_type):
            token = self._peek()
            raise ParseError(
                f"expected {what}, found {token.value!r}",
                token.line, token.col, self.filename)
        return self._advance()

    def _nested(self, parse):
        """``parse()`` one nesting level deeper."""
        if self.depth >= MAX_NESTING:
            token = self._peek()
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels",
                             token.line, token.col, self.filename)
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    # -- top level ----------------------------------------------------

    def parse(self) -> ast.Program:
        """Parse the whole token stream into a program."""
        first = self._peek()
        program = ast.Program(first.line, first.col)
        while not self._at(TokenType.EOF):
            if self._at(TokenType.KW_VOID):
                program.functions.append(self._parse_function())
            elif self._at(TokenType.KW_INT):
                # Distinguish `int f(...)` / `int *f(...)` from
                # `int g...;` by the token after the identifier (skipping
                # any pointer stars).
                after_stars = 1
                while self._peek(after_stars).type is TokenType.STAR:
                    after_stars += 1
                if (self._peek(after_stars).type is TokenType.IDENT
                        and self._peek(after_stars + 1).type
                        is TokenType.LPAREN):
                    program.functions.append(self._parse_function())
                else:
                    program.globals.append(self._parse_global())
            else:
                token = self._peek()
                raise ParseError(
                    f"expected declaration, found {token.value!r}",
                    token.line, token.col, self.filename)
        return program

    def _parse_global(self) -> ast.GlobalDecl:
        kw = self._expect(TokenType.KW_INT, "'int'")
        is_pointer = self._parse_stars()
        name = self._expect(TokenType.IDENT, "global name")
        size = None
        if self._match(TokenType.LBRACKET):
            size = self._parse_expr()
            self._expect(TokenType.RBRACKET, "']'")
            if is_pointer:
                raise ParseError("arrays of pointers are not supported",
                                 kw.line, kw.col, self.filename)
        init = None
        if self._match(TokenType.ASSIGN):
            init = self._parse_expr()
        self._expect(TokenType.SEMI, "';'")
        return ast.GlobalDecl(kw.line, kw.col, str(name.value), size, init,
                              is_pointer)

    def _parse_stars(self) -> bool:
        """Consume a (possibly empty) run of ``*`` in a declarator.

        Multiple levels of indirection collapse to a single flag: every
        pointer is a word holding an address, so ``int **p`` behaves as
        ``int *p`` whose target happens to hold further addresses.
        """
        seen = False
        while self._match(TokenType.STAR):
            seen = True
        return seen

    def _parse_function(self) -> ast.FuncDecl:
        ret_kw = self._advance()  # 'int' or 'void'
        returns_value = ret_kw.type is TokenType.KW_INT
        self._parse_stars()  # pointer returns are plain word values
        name = self._expect(TokenType.IDENT, "function name")
        self._expect(TokenType.LPAREN, "'('")
        params: list[ast.Param] = []
        if not self._at(TokenType.RPAREN):
            if self._at(TokenType.KW_VOID) and self._peek(1).type is TokenType.RPAREN:
                self._advance()  # `f(void)` — empty parameter list
            else:
                params.append(self._parse_param())
                while self._match(TokenType.COMMA):
                    params.append(self._parse_param())
        self._expect(TokenType.RPAREN, "')'")
        body = self._parse_block()
        return ast.FuncDecl(ret_kw.line, ret_kw.col, str(name.value),
                            params, body, returns_value)

    def _parse_param(self) -> ast.Param:
        kw = self._expect(TokenType.KW_INT, "'int' in parameter")
        is_pointer = self._parse_stars()
        name = self._expect(TokenType.IDENT, "parameter name")
        is_array = False
        if self._match(TokenType.LBRACKET):
            self._expect(TokenType.RBRACKET, "']'")
            if is_pointer:
                raise ParseError(
                    "parameter cannot be both pointer and array",
                    kw.line, kw.col, self.filename)
            is_array = True
        return ast.Param(kw.line, kw.col, str(name.value), is_array,
                         is_pointer)

    # -- statements ---------------------------------------------------

    def _parse_block(self) -> ast.Block:
        brace = self._expect(TokenType.LBRACE, "'{'")
        block = ast.Block(brace.line, brace.col)
        while not self._at(TokenType.RBRACE):
            if self._at(TokenType.EOF):
                raise ParseError("unterminated block", brace.line, brace.col,
                                 self.filename)
            block.stmts.append(self._parse_stmt())
        self._expect(TokenType.RBRACE, "'}'")
        return block

    def _parse_stmt(self) -> ast.Stmt:
        return self._nested(self._parse_stmt_here)

    def _parse_stmt_here(self) -> ast.Stmt:
        token = self._peek()
        if token.type is TokenType.LBRACE:
            return self._parse_block()
        if token.type is TokenType.KW_INT:
            return self._parse_var_decl()
        if token.type is TokenType.KW_IF:
            return self._parse_if()
        if token.type is TokenType.KW_WHILE:
            return self._parse_while()
        if token.type is TokenType.KW_DO:
            return self._parse_do_while()
        if token.type is TokenType.KW_FOR:
            return self._parse_for()
        if token.type is TokenType.KW_BREAK:
            self._advance()
            self._expect(TokenType.SEMI, "';'")
            return ast.Break(token.line, token.col)
        if token.type is TokenType.KW_CONTINUE:
            self._advance()
            self._expect(TokenType.SEMI, "';'")
            return ast.Continue(token.line, token.col)
        if token.type is TokenType.KW_RETURN:
            self._advance()
            value = None
            if not self._at(TokenType.SEMI):
                value = self._parse_expr()
            self._expect(TokenType.SEMI, "';'")
            return ast.Return(token.line, token.col, value)
        if token.type is TokenType.KW_SWITCH:
            return self._parse_switch()
        if token.type is TokenType.KW_GOTO:
            self._advance()
            target = self._expect(TokenType.IDENT, "label name")
            self._expect(TokenType.SEMI, "';'")
            return ast.Goto(token.line, token.col, str(target.value))
        if (token.type is TokenType.IDENT
                and self._peek(1).type is TokenType.COLON):
            self._advance()
            self._advance()
            return ast.Label(token.line, token.col, str(token.value))
        if token.type is TokenType.SEMI:
            self._advance()
            return ast.Block(token.line, token.col)  # empty statement
        expr = self._parse_expr()
        self._expect(TokenType.SEMI, "';'")
        return ast.ExprStmt(token.line, token.col, expr)

    def _parse_var_decl(self) -> ast.VarDeclStmt:
        kw = self._expect(TokenType.KW_INT, "'int'")
        is_pointer = self._parse_stars()
        name = self._expect(TokenType.IDENT, "variable name")
        size = None
        if self._match(TokenType.LBRACKET):
            size = self._parse_expr()
            self._expect(TokenType.RBRACKET, "']'")
            if is_pointer:
                raise ParseError("arrays of pointers are not supported",
                                 kw.line, kw.col, self.filename)
        init = None
        if self._match(TokenType.ASSIGN):
            init = self._parse_expr()
        self._expect(TokenType.SEMI, "';'")
        return ast.VarDeclStmt(kw.line, kw.col, str(name.value), size, init,
                               is_pointer)

    def _parse_switch(self) -> ast.Switch:
        kw = self._advance()
        self._expect(TokenType.LPAREN, "'('")
        scrutinee = self._parse_expr()
        self._expect(TokenType.RPAREN, "')'")
        self._expect(TokenType.LBRACE, "'{'")
        switch = ast.Switch(kw.line, kw.col, scrutinee)
        seen_default = False
        while not self._at(TokenType.RBRACE):
            token = self._peek()
            if token.type is TokenType.KW_CASE:
                self._advance()
                value = self._parse_expr()
            elif token.type is TokenType.KW_DEFAULT:
                if seen_default:
                    raise ParseError("duplicate default label", token.line,
                                     token.col, self.filename)
                seen_default = True
                self._advance()
                value = None
            else:
                raise ParseError(
                    f"expected 'case' or 'default', found {token.value!r}",
                    token.line, token.col, self.filename)
            self._expect(TokenType.COLON, "':'")
            case = ast.SwitchCase(token.line, token.col, value)
            while not self._at(TokenType.RBRACE) and not self._peek().type in (
                    TokenType.KW_CASE, TokenType.KW_DEFAULT):
                case.stmts.append(self._parse_stmt())
            switch.cases.append(case)
        self._expect(TokenType.RBRACE, "'}'")
        return switch

    def _parse_if(self) -> ast.If:
        kw = self._advance()
        self._expect(TokenType.LPAREN, "'('")
        cond = self._parse_expr()
        self._expect(TokenType.RPAREN, "')'")
        then = self._parse_stmt()
        els = None
        if self._match(TokenType.KW_ELSE):
            els = self._parse_stmt()
        return ast.If(kw.line, kw.col, cond, then, els)

    def _parse_while(self) -> ast.While:
        kw = self._advance()
        self._expect(TokenType.LPAREN, "'('")
        cond = self._parse_expr()
        self._expect(TokenType.RPAREN, "')'")
        body = self._parse_stmt()
        return ast.While(kw.line, kw.col, cond, body)

    def _parse_do_while(self) -> ast.DoWhile:
        kw = self._advance()
        body = self._parse_stmt()
        self._expect(TokenType.KW_WHILE, "'while'")
        self._expect(TokenType.LPAREN, "'('")
        cond = self._parse_expr()
        self._expect(TokenType.RPAREN, "')'")
        self._expect(TokenType.SEMI, "';'")
        return ast.DoWhile(kw.line, kw.col, body, cond)

    def _parse_for(self) -> ast.For:
        kw = self._advance()
        self._expect(TokenType.LPAREN, "'('")
        init: ast.Stmt | None = None
        if self._at(TokenType.KW_INT):
            init = self._parse_var_decl()  # consumes the ';'
        elif self._match(TokenType.SEMI):
            init = None
        else:
            first = self._peek()
            expr = self._parse_expr()
            self._expect(TokenType.SEMI, "';'")
            init = ast.ExprStmt(first.line, first.col, expr)
        cond = None
        if not self._at(TokenType.SEMI):
            cond = self._parse_expr()
        self._expect(TokenType.SEMI, "';'")
        step = None
        if not self._at(TokenType.RPAREN):
            step = self._parse_expr()
        self._expect(TokenType.RPAREN, "')'")
        body = self._parse_stmt()
        return ast.For(kw.line, kw.col, init, cond, step, body)

    # -- expressions ---------------------------------------------------

    def _parse_expr(self) -> ast.Expr:
        return self._parse_assignment()

    def _parse_assignment(self) -> ast.Expr:
        return self._nested(self._parse_assignment_here)

    def _parse_assignment_here(self) -> ast.Expr:
        lhs = self._parse_ternary()
        token = self._peek()
        if token.type is TokenType.ASSIGN:
            self._advance()
            rhs = self._parse_assignment()
            self._check_lvalue(lhs, token)
            return ast.Assign(token.line, token.col, lhs, rhs, None)
        if token.type in COMPOUND_ASSIGN_OPS:
            self._advance()
            rhs = self._parse_assignment()
            self._check_lvalue(lhs, token)
            op = COMPOUND_ASSIGN_OPS[token.type].value
            return ast.Assign(token.line, token.col, lhs, rhs, op)
        return lhs

    def _check_lvalue(self, expr: ast.Expr, token: Token) -> None:
        if not isinstance(expr, (ast.VarRef, ast.Index, ast.Deref)):
            raise ParseError("assignment target must be a variable, array "
                             "element, or dereference", token.line,
                             token.col, self.filename)

    def _parse_ternary(self) -> ast.Expr:
        cond = self._parse_logical_or()
        question = self._match(TokenType.QUESTION)
        if question is None:
            return cond
        then = self._parse_assignment()
        self._expect(TokenType.COLON, "':'")
        els = self._nested(self._parse_ternary)
        return ast.CondExpr(question.line, question.col, cond, then, els)

    def _parse_logical_or(self) -> ast.Expr:
        lhs = self._parse_logical_and()
        while self._at(TokenType.OR_OR):
            token = self._advance()
            rhs = self._parse_logical_and()
            lhs = ast.LogicalOp(token.line, token.col, "||", lhs, rhs)
        return lhs

    def _parse_logical_and(self) -> ast.Expr:
        lhs = self._parse_binary(0)
        while self._at(TokenType.AND_AND):
            token = self._advance()
            rhs = self._parse_binary(0)
            lhs = ast.LogicalOp(token.line, token.col, "&&", lhs, rhs)
        return lhs

    def _parse_binary(self, level: int) -> ast.Expr:
        if level >= len(_BINARY_LEVELS):
            return self._parse_unary()
        ops = _BINARY_LEVELS[level]
        lhs = self._parse_binary(level + 1)
        while self._peek().type in ops:
            token = self._advance()
            rhs = self._parse_binary(level + 1)
            lhs = ast.BinOp(token.line, token.col, ops[token.type], lhs, rhs)
        return lhs

    def _parse_operand(self) -> ast.Expr:
        return self._nested(self._parse_unary)

    def _parse_unary(self) -> ast.Expr:
        token = self._peek()
        if token.type is TokenType.MINUS:
            self._advance()
            return ast.UnOp(token.line, token.col, "-", self._parse_operand())
        if token.type is TokenType.TILDE:
            self._advance()
            return ast.UnOp(token.line, token.col, "~", self._parse_operand())
        if token.type is TokenType.BANG:
            self._advance()
            return ast.UnOp(token.line, token.col, "!", self._parse_operand())
        if token.type is TokenType.PLUS:
            self._advance()
            return self._parse_operand()
        if token.type is TokenType.STAR:
            self._advance()
            return ast.Deref(token.line, token.col, self._parse_operand())
        if token.type is TokenType.AMP:
            self._advance()
            operand = self._parse_operand()
            if not isinstance(operand, (ast.VarRef, ast.Index, ast.Deref)):
                raise ParseError(
                    "'&' needs a variable, array element, or dereference",
                    token.line, token.col, self.filename)
            return ast.AddrOf(token.line, token.col, operand)
        if token.type in (TokenType.PLUS_PLUS, TokenType.MINUS_MINUS):
            self._advance()
            target = self._parse_operand()
            self._check_lvalue(target, token)
            op = "++" if token.type is TokenType.PLUS_PLUS else "--"
            return ast.IncDec(token.line, token.col, target, op,
                              is_prefix=True)
        return self._parse_postfix()

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        while True:
            token = self._peek()
            if token.type in (TokenType.PLUS_PLUS, TokenType.MINUS_MINUS):
                self._advance()
                self._check_lvalue(expr, token)
                op = "++" if token.type is TokenType.PLUS_PLUS else "--"
                expr = ast.IncDec(token.line, token.col, expr, op,
                                  is_prefix=False)
            else:
                return expr

    def _parse_primary(self) -> ast.Expr:
        token = self._peek()
        if token.type in (TokenType.INT_LIT, TokenType.CHAR_LIT):
            self._advance()
            return ast.IntLit(token.line, token.col, int(token.value))
        if token.type is TokenType.LPAREN:
            self._advance()
            expr = self._parse_expr()
            self._expect(TokenType.RPAREN, "')'")
            return expr
        if token.type is TokenType.IDENT:
            self._advance()
            name = str(token.value)
            if self._match(TokenType.LPAREN):
                args: list[ast.Expr] = []
                if not self._at(TokenType.RPAREN):
                    args.append(self._parse_expr())
                    while self._match(TokenType.COMMA):
                        args.append(self._parse_expr())
                self._expect(TokenType.RPAREN, "')'")
                return ast.Call(token.line, token.col, name, args)
            if self._match(TokenType.LBRACKET):
                index = self._parse_expr()
                self._expect(TokenType.RBRACKET, "']'")
                return ast.Index(token.line, token.col, name, index)
            return ast.VarRef(token.line, token.col, name)
        raise ParseError(f"expected expression, found {token.value!r}",
                         token.line, token.col, self.filename)


def parse_program(source: str, filename: str = "<input>") -> ast.Program:
    """Lex and parse MiniC ``source`` into an AST."""
    return Parser(tokenize(source, filename), filename).parse()
