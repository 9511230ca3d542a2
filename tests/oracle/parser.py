"""The PCL parser as it was before precedence climbing: a differential oracle.

``repro.lang.parse`` must build exactly these ASTs, node ids and labels
included, and raise exactly these errors (see
``tests/lang/test_front_end_differential.py``).
"""

from __future__ import annotations

from typing import Optional

from repro.lang import ast
from repro.lang.errors import ParseError
from .lexer import tokenize
from repro.lang.tokens import Token, TokenType

_TYPE_TOKENS = {TokenType.KW_INT: "int", TokenType.KW_FLOAT: "float", TokenType.KW_BOOL: "bool"}

#: Builtin functions callable in expressions.  ``input()`` reads the next
#: value from the machine's input stream (external nondeterminism, logged so
#: the emulation package can replay it); ``rand(n)`` similarly.
BUILTINS = {"sqrt", "abs", "min", "max", "len", "input", "rand", "floor"}


class Parser:
    """Parses a token stream into a :class:`repro.lang.ast.Program`.

    Node ids are assigned in the order nodes are *created*, which for this
    grammar coincides with source order of the construct's first token.
    """

    def __init__(self, tokens: list[Token], source: str = "") -> None:
        self._tokens = tokens
        self._pos = 0
        self._next_id = 0
        self._source = source

    # -- token helpers -----------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        index = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _check(self, token_type: TokenType) -> bool:
        return self._peek().type is token_type

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.type is not TokenType.EOF:
            self._pos += 1
        return token

    def _match(self, *types: TokenType) -> Optional[Token]:
        if self._peek().type in types:
            return self._advance()
        return None

    def _expect(self, token_type: TokenType, what: str = "") -> Token:
        token = self._peek()
        if token.type is not token_type:
            expected = what or token_type.value
            raise ParseError(
                f"expected {expected}, found {token.text!r}", token.line, token.column
            )
        return self._advance()

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def _pos_of(self, token: Token) -> dict:
        return {"node_id": self._new_id(), "line": token.line, "column": token.column}

    # -- entry point ---------------------------------------------------------

    def parse_program(self) -> ast.Program:
        first = self._peek()
        program = ast.Program(node_id=0, line=first.line, column=first.column, source=self._source)
        while not self._check(TokenType.EOF):
            token = self._peek()
            if token.type is TokenType.KW_SHARED:
                program.shared.append(self._shared_decl())
            elif token.type is TokenType.KW_SEM:
                program.semaphores.append(self._sem_decl())
            elif token.type is TokenType.KW_CHAN:
                program.channels.append(self._chan_decl())
            elif token.type is TokenType.KW_LOCK_DECL:
                program.locks.append(self._lock_decl())
            elif token.type is TokenType.KW_ENTRY:
                program.entries.append(self._entry_decl())
            elif token.type in (TokenType.KW_FUNC, TokenType.KW_PROC):
                program.procs.append(self._proc_def())
            else:
                raise ParseError(
                    f"expected top-level declaration, found {token.text!r}",
                    token.line,
                    token.column,
                )
        ast.number_statements(program)
        return program

    # -- declarations --------------------------------------------------------

    def _type_name(self) -> str:
        token = self._peek()
        if token.type not in _TYPE_TOKENS:
            raise ParseError(f"expected type, found {token.text!r}", token.line, token.column)
        self._advance()
        return _TYPE_TOKENS[token.type]

    def _shared_decl(self) -> ast.SharedDecl:
        start = self._expect(TokenType.KW_SHARED)
        var_type = self._type_name()
        name = self._expect(TokenType.NAME).text
        size: Optional[int] = None
        init: Optional[ast.Expr] = None
        if self._match(TokenType.LBRACKET):
            size = int(self._expect(TokenType.INT).text)
            self._expect(TokenType.RBRACKET)
        elif self._match(TokenType.ASSIGN):
            init = self._expression()
        self._expect(TokenType.SEMI)
        return ast.SharedDecl(
            **self._pos_of(start), var_type=var_type, name=name, size=size, init=init
        )

    def _sem_decl(self) -> ast.SemDecl:
        start = self._expect(TokenType.KW_SEM)
        name = self._expect(TokenType.NAME).text
        initial = 1
        if self._match(TokenType.ASSIGN):
            initial = int(self._expect(TokenType.INT).text)
        self._expect(TokenType.SEMI)
        return ast.SemDecl(**self._pos_of(start), name=name, initial=initial)

    def _chan_decl(self) -> ast.ChanDecl:
        start = self._expect(TokenType.KW_CHAN)
        name = self._expect(TokenType.NAME).text
        capacity: Optional[int] = None
        if self._match(TokenType.LBRACKET):
            capacity = int(self._expect(TokenType.INT).text)
            self._expect(TokenType.RBRACKET)
        self._expect(TokenType.SEMI)
        return ast.ChanDecl(**self._pos_of(start), name=name, capacity=capacity)

    def _lock_decl(self) -> ast.LockDecl:
        start = self._expect(TokenType.KW_LOCK_DECL)
        name = self._expect(TokenType.NAME).text
        self._expect(TokenType.SEMI)
        return ast.LockDecl(**self._pos_of(start), name=name)

    def _entry_decl(self) -> ast.EntryDecl:
        start = self._expect(TokenType.KW_ENTRY)
        name = self._expect(TokenType.NAME).text
        self._expect(TokenType.SEMI)
        return ast.EntryDecl(**self._pos_of(start), name=name)

    def _proc_def(self) -> ast.ProcDef:
        start = self._advance()  # func or proc
        is_func = start.type is TokenType.KW_FUNC
        return_type: Optional[str] = None
        if is_func:
            return_type = self._type_name()
        name = self._expect(TokenType.NAME).text
        self._expect(TokenType.LPAREN)
        params: list[ast.Param] = []
        if not self._check(TokenType.RPAREN):
            while True:
                p_start = self._peek()
                p_type = self._type_name()
                p_name = self._expect(TokenType.NAME).text
                params.append(ast.Param(**self._pos_of(p_start), var_type=p_type, name=p_name))
                if not self._match(TokenType.COMMA):
                    break
        self._expect(TokenType.RPAREN)
        body = self._block()
        return ast.ProcDef(
            **self._pos_of(start),
            name=name,
            params=params,
            body=body,
            is_func=is_func,
            return_type=return_type,
        )

    # -- statements ----------------------------------------------------------

    def _block(self) -> ast.Block:
        start = self._expect(TokenType.LBRACE)
        stmts: list[ast.Stmt] = []
        while not self._check(TokenType.RBRACE):
            if self._check(TokenType.EOF):
                raise ParseError("unterminated block", start.line, start.column)
            stmts.append(self._statement())
        self._expect(TokenType.RBRACE)
        return ast.Block(**self._pos_of(start), body=stmts)

    def _statement(self) -> ast.Stmt:
        token = self._peek()
        handler = {
            TokenType.LBRACE: self._block,
            TokenType.KW_IF: self._if_stmt,
            TokenType.KW_WHILE: self._while_stmt,
            TokenType.KW_FOR: self._for_stmt,
            TokenType.KW_RETURN: self._return_stmt,
            TokenType.KW_P: self._sem_p,
            TokenType.KW_V: self._sem_v,
            TokenType.KW_LOCK: self._lock_stmt,
            TokenType.KW_UNLOCK: self._unlock_stmt,
            TokenType.KW_SEND: self._send_stmt,
            TokenType.KW_SPAWN: self._spawn_stmt,
            TokenType.KW_JOIN: self._join_stmt,
            TokenType.KW_PRINT: self._print_stmt,
            TokenType.KW_ASSERT: self._assert_stmt,
            TokenType.KW_ACCEPT: self._accept_stmt,
            TokenType.KW_REPLY: self._reply_stmt,
        }.get(token.type)
        if handler is not None:
            return handler()
        if token.type in (TokenType.KW_BREAK, TokenType.KW_CONTINUE):
            self._advance()
            self._expect(TokenType.SEMI)
            cls = ast.Break if token.type is TokenType.KW_BREAK else ast.Continue
            return cls(**self._pos_of(token))
        if token.type in _TYPE_TOKENS:
            return self._var_decl()
        if token.type is TokenType.NAME:
            return self._assign_or_call()
        raise ParseError(f"expected statement, found {token.text!r}", token.line, token.column)

    def _var_decl(self) -> ast.VarDecl:
        start = self._peek()
        var_type = self._type_name()
        name = self._expect(TokenType.NAME).text
        size: Optional[int] = None
        init: Optional[ast.Expr] = None
        if self._match(TokenType.LBRACKET):
            size = int(self._expect(TokenType.INT).text)
            self._expect(TokenType.RBRACKET)
        elif self._match(TokenType.ASSIGN):
            init = self._expression()
        self._expect(TokenType.SEMI)
        return ast.VarDecl(
            **self._pos_of(start), var_type=var_type, name=name, size=size, init=init
        )

    def _assign_or_call(self) -> ast.Stmt:
        start = self._peek()
        name_token = self._expect(TokenType.NAME)
        if self._check(TokenType.LPAREN):
            call = self._finish_call(name_token)
            self._expect(TokenType.SEMI)
            return ast.CallStmt(**self._pos_of(start), call=call)
        target: ast.LValue
        if self._match(TokenType.LBRACKET):
            index = self._expression()
            self._expect(TokenType.RBRACKET)
            target = ast.Index(**self._pos_of(name_token), name=name_token.text, index=index)
        else:
            target = ast.Name(**self._pos_of(name_token), name=name_token.text)
        self._expect(TokenType.ASSIGN)
        value = self._expression()
        self._expect(TokenType.SEMI)
        return ast.Assign(**self._pos_of(start), target=target, value=value)

    def _simple_assign(self) -> ast.Assign:
        """An assignment without the trailing semicolon (for ``for`` headers)."""
        start = self._peek()
        name_token = self._expect(TokenType.NAME)
        target: ast.LValue
        if self._match(TokenType.LBRACKET):
            index = self._expression()
            self._expect(TokenType.RBRACKET)
            target = ast.Index(**self._pos_of(name_token), name=name_token.text, index=index)
        else:
            target = ast.Name(**self._pos_of(name_token), name=name_token.text)
        self._expect(TokenType.ASSIGN)
        value = self._expression()
        return ast.Assign(**self._pos_of(start), target=target, value=value)

    def _if_stmt(self) -> ast.If:
        start = self._expect(TokenType.KW_IF)
        self._expect(TokenType.LPAREN)
        cond = self._expression()
        self._expect(TokenType.RPAREN)
        then = self._statement()
        orelse: Optional[ast.Stmt] = None
        if self._match(TokenType.KW_ELSE):
            orelse = self._statement()
        return ast.If(**self._pos_of(start), cond=cond, then=then, orelse=orelse)

    def _while_stmt(self) -> ast.While:
        start = self._expect(TokenType.KW_WHILE)
        self._expect(TokenType.LPAREN)
        cond = self._expression()
        self._expect(TokenType.RPAREN)
        body = self._statement()
        return ast.While(**self._pos_of(start), cond=cond, body=body)

    def _for_stmt(self) -> ast.For:
        start = self._expect(TokenType.KW_FOR)
        self._expect(TokenType.LPAREN)
        init = self._simple_assign()
        self._expect(TokenType.SEMI)
        cond = self._expression()
        self._expect(TokenType.SEMI)
        step = self._simple_assign()
        self._expect(TokenType.RPAREN)
        body = self._statement()
        return ast.For(**self._pos_of(start), init=init, cond=cond, step=step, body=body)

    def _return_stmt(self) -> ast.Return:
        start = self._expect(TokenType.KW_RETURN)
        value: Optional[ast.Expr] = None
        if not self._check(TokenType.SEMI):
            value = self._expression()
        self._expect(TokenType.SEMI)
        return ast.Return(**self._pos_of(start), value=value)

    def _sem_p(self) -> ast.SemP:
        start = self._expect(TokenType.KW_P)
        self._expect(TokenType.LPAREN)
        name = self._expect(TokenType.NAME).text
        self._expect(TokenType.RPAREN)
        self._expect(TokenType.SEMI)
        return ast.SemP(**self._pos_of(start), sem=name)

    def _sem_v(self) -> ast.SemV:
        start = self._expect(TokenType.KW_V)
        self._expect(TokenType.LPAREN)
        name = self._expect(TokenType.NAME).text
        self._expect(TokenType.RPAREN)
        self._expect(TokenType.SEMI)
        return ast.SemV(**self._pos_of(start), sem=name)

    def _lock_stmt(self) -> ast.LockStmt:
        start = self._expect(TokenType.KW_LOCK)
        self._expect(TokenType.LPAREN)
        name = self._expect(TokenType.NAME).text
        self._expect(TokenType.RPAREN)
        self._expect(TokenType.SEMI)
        return ast.LockStmt(**self._pos_of(start), lock=name)

    def _unlock_stmt(self) -> ast.UnlockStmt:
        start = self._expect(TokenType.KW_UNLOCK)
        self._expect(TokenType.LPAREN)
        name = self._expect(TokenType.NAME).text
        self._expect(TokenType.RPAREN)
        self._expect(TokenType.SEMI)
        return ast.UnlockStmt(**self._pos_of(start), lock=name)

    def _send_stmt(self) -> ast.Send:
        start = self._expect(TokenType.KW_SEND)
        self._expect(TokenType.LPAREN)
        channel = self._expect(TokenType.NAME).text
        self._expect(TokenType.COMMA)
        value = self._expression()
        self._expect(TokenType.RPAREN)
        self._expect(TokenType.SEMI)
        return ast.Send(**self._pos_of(start), channel=channel, value=value)

    def _spawn_stmt(self) -> ast.Spawn:
        start = self._expect(TokenType.KW_SPAWN)
        name = self._expect(TokenType.NAME).text
        self._expect(TokenType.LPAREN)
        args: list[ast.Expr] = []
        if not self._check(TokenType.RPAREN):
            args.append(self._expression())
            while self._match(TokenType.COMMA):
                args.append(self._expression())
        self._expect(TokenType.RPAREN)
        self._expect(TokenType.SEMI)
        return ast.Spawn(**self._pos_of(start), name=name, args=args)

    def _join_stmt(self) -> ast.Join:
        start = self._expect(TokenType.KW_JOIN)
        self._expect(TokenType.LPAREN)
        self._expect(TokenType.RPAREN)
        self._expect(TokenType.SEMI)
        return ast.Join(**self._pos_of(start))

    def _accept_stmt(self) -> ast.Accept:
        start = self._expect(TokenType.KW_ACCEPT)
        entry = self._expect(TokenType.NAME).text
        self._expect(TokenType.LPAREN)
        params: list[ast.Param] = []
        if not self._check(TokenType.RPAREN):
            while True:
                p_start = self._peek()
                p_type = self._type_name()
                p_name = self._expect(TokenType.NAME).text
                params.append(ast.Param(**self._pos_of(p_start), var_type=p_type, name=p_name))
                if not self._match(TokenType.COMMA):
                    break
        self._expect(TokenType.RPAREN)
        body = self._block()
        return ast.Accept(**self._pos_of(start), entry=entry, params=params, body=body)

    def _reply_stmt(self) -> ast.Reply:
        start = self._expect(TokenType.KW_REPLY)
        value: Optional[ast.Expr] = None
        if not self._check(TokenType.SEMI):
            value = self._expression()
        self._expect(TokenType.SEMI)
        return ast.Reply(**self._pos_of(start), value=value)

    def _print_stmt(self) -> ast.Print:
        start = self._expect(TokenType.KW_PRINT)
        self._expect(TokenType.LPAREN)
        args: list[ast.Expr] = []
        if not self._check(TokenType.RPAREN):
            args.append(self._expression())
            while self._match(TokenType.COMMA):
                args.append(self._expression())
        self._expect(TokenType.RPAREN)
        self._expect(TokenType.SEMI)
        return ast.Print(**self._pos_of(start), args=args)

    def _assert_stmt(self) -> ast.AssertStmt:
        start = self._expect(TokenType.KW_ASSERT)
        self._expect(TokenType.LPAREN)
        cond = self._expression()
        self._expect(TokenType.RPAREN)
        self._expect(TokenType.SEMI)
        return ast.AssertStmt(**self._pos_of(start), cond=cond)

    # -- expressions ---------------------------------------------------------
    # Precedence (low to high): || , && , == != , < <= > >= , + - , * / % ,
    # unary ! - , atoms.

    def _expression(self) -> ast.Expr:
        return self._or_expr()

    def _binary_level(self, sub, ops: dict[TokenType, str]) -> ast.Expr:
        left = sub()
        while self._peek().type in ops:
            op_token = self._advance()
            right = sub()
            left = ast.Binary(
                **self._pos_of(op_token), op=ops[op_token.type], left=left, right=right
            )
        return left

    def _or_expr(self) -> ast.Expr:
        return self._binary_level(self._and_expr, {TokenType.OR: "||"})

    def _and_expr(self) -> ast.Expr:
        return self._binary_level(self._equality, {TokenType.AND: "&&"})

    def _equality(self) -> ast.Expr:
        return self._binary_level(
            self._comparison, {TokenType.EQ: "==", TokenType.NE: "!="}
        )

    def _comparison(self) -> ast.Expr:
        return self._binary_level(
            self._additive,
            {TokenType.LT: "<", TokenType.LE: "<=", TokenType.GT: ">", TokenType.GE: ">="},
        )

    def _additive(self) -> ast.Expr:
        return self._binary_level(
            self._multiplicative, {TokenType.PLUS: "+", TokenType.MINUS: "-"}
        )

    def _multiplicative(self) -> ast.Expr:
        return self._binary_level(
            self._unary,
            {TokenType.STAR: "*", TokenType.SLASH: "/", TokenType.PERCENT: "%"},
        )

    def _unary(self) -> ast.Expr:
        token = self._peek()
        if token.type in (TokenType.MINUS, TokenType.NOT):
            self._advance()
            operand = self._unary()
            op = "-" if token.type is TokenType.MINUS else "!"
            return ast.Unary(**self._pos_of(token), op=op, operand=operand)
        return self._atom()

    def _atom(self) -> ast.Expr:
        token = self._peek()
        if token.type is TokenType.INT:
            self._advance()
            return ast.IntLit(**self._pos_of(token), value=int(token.text))
        if token.type is TokenType.FLOAT:
            self._advance()
            return ast.FloatLit(**self._pos_of(token), value=float(token.text))
        if token.type is TokenType.STRING:
            self._advance()
            return ast.StrLit(**self._pos_of(token), value=token.text)
        if token.type in (TokenType.KW_TRUE, TokenType.KW_FALSE):
            self._advance()
            return ast.BoolLit(**self._pos_of(token), value=token.type is TokenType.KW_TRUE)
        if token.type is TokenType.KW_RECV:
            self._advance()
            self._expect(TokenType.LPAREN)
            channel = self._expect(TokenType.NAME).text
            self._expect(TokenType.RPAREN)
            return ast.RecvExpr(**self._pos_of(token), channel=channel)
        if token.type is TokenType.KW_CALL:
            self._advance()
            entry = self._expect(TokenType.NAME).text
            self._expect(TokenType.LPAREN)
            args: list[ast.Expr] = []
            if not self._check(TokenType.RPAREN):
                args.append(self._expression())
                while self._match(TokenType.COMMA):
                    args.append(self._expression())
            self._expect(TokenType.RPAREN)
            return ast.CallEntry(**self._pos_of(token), entry=entry, args=args)
        if token.type is TokenType.LPAREN:
            self._advance()
            expr = self._expression()
            self._expect(TokenType.RPAREN)
            return expr
        if token.type is TokenType.NAME:
            name_token = self._advance()
            if self._check(TokenType.LPAREN):
                return self._finish_call(name_token)
            if self._match(TokenType.LBRACKET):
                index = self._expression()
                self._expect(TokenType.RBRACKET)
                return ast.Index(**self._pos_of(name_token), name=name_token.text, index=index)
            return ast.Name(**self._pos_of(name_token), name=name_token.text)
        raise ParseError(f"expected expression, found {token.text!r}", token.line, token.column)

    def _finish_call(self, name_token: Token) -> ast.CallExpr:
        self._expect(TokenType.LPAREN)
        args: list[ast.Expr] = []
        if not self._check(TokenType.RPAREN):
            args.append(self._expression())
            while self._match(TokenType.COMMA):
                args.append(self._expression())
        self._expect(TokenType.RPAREN)
        return ast.CallExpr(**self._pos_of(name_token), name=name_token.text, args=args)


def parse(source: str) -> ast.Program:
    """Parse PCL *source* into a :class:`Program` with numbered statements."""
    return Parser(tokenize(source), source).parse_program()
