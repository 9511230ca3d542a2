"""Recursive-descent parser for PCL.

Statements dispatch on their first token through one table built with the
class; binary expressions are parsed by precedence climbing over one
operator table (:data:`_BINARY`).  Both build their nodes in the same order
as one recursive function per precedence level would, so node ids do not
depend on the technique.
"""

from __future__ import annotations

from typing import Optional

from . import ast
from .errors import ParseError
from .lexer import tokenize
from .tokens import Token, TokenType

_TYPE_TOKENS = {TokenType.KW_INT: "int", TokenType.KW_FLOAT: "float", TokenType.KW_BOOL: "bool"}

#: Binary operator token -> (precedence, operator); higher binds tighter,
#: and every level is left-associative.  Unary ``!`` and ``-`` bind tighter
#: than all of them.
_BINARY = {
    TokenType.OR: (1, "||"),
    TokenType.AND: (2, "&&"),
    TokenType.EQ: (3, "=="),
    TokenType.NE: (3, "!="),
    TokenType.LT: (4, "<"),
    TokenType.LE: (4, "<="),
    TokenType.GT: (4, ">"),
    TokenType.GE: (4, ">="),
    TokenType.PLUS: (5, "+"),
    TokenType.MINUS: (5, "-"),
    TokenType.STAR: (6, "*"),
    TokenType.SLASH: (6, "/"),
    TokenType.PERCENT: (6, "%"),
}

#: Builtin functions callable in expressions.  ``input()`` reads the next
#: value from the machine's input stream (external nondeterminism, logged so
#: the emulation package can replay it); ``rand(n)`` similarly.
BUILTINS = {"sqrt", "abs", "min", "max", "len", "input", "rand", "floor"}


def _int_value(token: Token) -> int:
    """The value of an integer literal.  Python refuses to convert one of
    more digits than ``sys.get_int_max_str_digits()``; that is a typed
    error at the literal, not a raw ``ValueError``."""
    try:
        return int(token.text)
    except ValueError:
        raise ParseError(
            f"integer literal of {len(token.text)} digits is too long",
            token.line,
            token.column,
        ) from None


class Parser:
    """Parses a token stream into a :class:`repro.lang.ast.Program`.

    Node ids are assigned in the order nodes are *created*: a compound
    node gets its id after its children (a ``Binary`` after both operands),
    and records persist these ids, so that order must never change.
    """

    def __init__(self, tokens: list[Token], source: str = "") -> None:
        self._tokens = tokens
        self._pos = 0
        self._next_id = 0
        self._source = source

    # -- token helpers -----------------------------------------------------

    # The token list ends with EOF and ``_advance`` never moves past it,
    # so ``_pos`` always indexes a token.

    def _peek(self) -> Token:
        return self._tokens[self._pos]

    def _check(self, token_type: TokenType) -> bool:
        return self._tokens[self._pos].type is token_type

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.type is not TokenType.EOF:
            self._pos += 1
        return token

    def _match(self, token_type: TokenType) -> Optional[Token]:
        token = self._tokens[self._pos]
        if token.type is token_type:
            self._pos += 1  # never EOF: no caller matches it
            return token
        return None

    def _expect(self, token_type: TokenType) -> Token:
        token = self._tokens[self._pos]
        if token.type is not token_type:
            raise ParseError(
                f"expected {token_type.value}, found {token.text!r}",
                token.line,
                token.column,
            )
        self._pos += 1  # never EOF: no caller expects it
        return token

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
        token = self._tokens[self._pos]
        var_type = _TYPE_TOKENS.get(token.type)
        if var_type is None:
            raise ParseError(f"expected type, found {token.text!r}", token.line, token.column)
        self._pos += 1
        return var_type

    def _name(self) -> str:
        return self._expect(TokenType.NAME).text

    def _int(self) -> int:
        return _int_value(self._expect(TokenType.INT))

    def _declarator(self) -> tuple[str, str, Optional[int], Optional[ast.Expr]]:
        """``type name [size]`` or ``type name = init``, then ``;``."""
        var_type = self._type_name()
        name = self._name()
        size: Optional[int] = None
        init: Optional[ast.Expr] = None
        if self._match(TokenType.LBRACKET):
            size = self._int()
            self._expect(TokenType.RBRACKET)
        elif self._match(TokenType.ASSIGN):
            init = self._expression()
        self._expect(TokenType.SEMI)
        return var_type, name, size, init

    def _shared_decl(self) -> ast.SharedDecl:
        start = self._expect(TokenType.KW_SHARED)
        var_type, name, size, init = self._declarator()
        return ast.SharedDecl(
            **self._pos_of(start), var_type=var_type, name=name, size=size, init=init
        )

    def _sem_decl(self) -> ast.SemDecl:
        start = self._expect(TokenType.KW_SEM)
        name = self._name()
        initial = 1
        if self._match(TokenType.ASSIGN):
            initial = self._int()
        self._expect(TokenType.SEMI)
        return ast.SemDecl(**self._pos_of(start), name=name, initial=initial)

    def _chan_decl(self) -> ast.ChanDecl:
        start = self._expect(TokenType.KW_CHAN)
        name = self._name()
        capacity: Optional[int] = None
        if self._match(TokenType.LBRACKET):
            capacity = self._int()
            self._expect(TokenType.RBRACKET)
        self._expect(TokenType.SEMI)
        return ast.ChanDecl(**self._pos_of(start), name=name, capacity=capacity)

    def _lock_decl(self) -> ast.LockDecl:
        start = self._expect(TokenType.KW_LOCK_DECL)
        name = self._name()
        self._expect(TokenType.SEMI)
        return ast.LockDecl(**self._pos_of(start), name=name)

    def _entry_decl(self) -> ast.EntryDecl:
        start = self._expect(TokenType.KW_ENTRY)
        name = self._name()
        self._expect(TokenType.SEMI)
        return ast.EntryDecl(**self._pos_of(start), name=name)

    def _params(self) -> list[ast.Param]:
        """``( type name, ... )``"""
        self._expect(TokenType.LPAREN)
        params: list[ast.Param] = []
        if not self._check(TokenType.RPAREN):
            while True:
                start = self._peek()
                var_type = self._type_name()
                name = self._name()
                params.append(ast.Param(**self._pos_of(start), var_type=var_type, name=name))
                if not self._match(TokenType.COMMA):
                    break
        self._expect(TokenType.RPAREN)
        return params

    def _proc_def(self) -> ast.ProcDef:
        start = self._advance()  # func or proc
        is_func = start.type is TokenType.KW_FUNC
        return_type: Optional[str] = None
        if is_func:
            return_type = self._type_name()
        name = self._name()
        params = self._params()
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
        self._pos += 1  # the closing brace
        return ast.Block(**self._pos_of(start), body=stmts)

    def _statement(self) -> ast.Stmt:
        token = self._tokens[self._pos]
        handler = self._STATEMENTS.get(token.type)
        if handler is None:
            raise ParseError(
                f"expected statement, found {token.text!r}", token.line, token.column
            )
        return handler(self)

    def _break_or_continue(self) -> ast.Stmt:
        token = self._advance()
        self._expect(TokenType.SEMI)
        cls = ast.Break if token.type is TokenType.KW_BREAK else ast.Continue
        return cls(**self._pos_of(token))

    def _var_decl(self) -> ast.VarDecl:
        start = self._peek()
        var_type, name, size, init = self._declarator()
        return ast.VarDecl(
            **self._pos_of(start), var_type=var_type, name=name, size=size, init=init
        )

    def _assign_or_call(self) -> ast.Stmt:
        start = self._peek()
        if self._tokens[self._pos + 1].type is TokenType.LPAREN:
            self._pos += 1
            call = self._finish_call(start)
            self._expect(TokenType.SEMI)
            return ast.CallStmt(**self._pos_of(start), call=call)
        assign = self._simple_assign()
        self._expect(TokenType.SEMI)
        return assign

    def _simple_assign(self) -> ast.Assign:
        """``target = value`` without the semicolon (``for`` headers use it)."""
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
        return ast.Assign(**self._pos_of(name_token), target=target, value=value)

    def _condition(self) -> ast.Expr:
        """``( expression )``"""
        self._expect(TokenType.LPAREN)
        cond = self._expression()
        self._expect(TokenType.RPAREN)
        return cond

    def _if_stmt(self) -> ast.If:
        start = self._expect(TokenType.KW_IF)
        cond = self._condition()
        then = self._statement()
        orelse: Optional[ast.Stmt] = None
        if self._match(TokenType.KW_ELSE):
            orelse = self._statement()
        return ast.If(**self._pos_of(start), cond=cond, then=then, orelse=orelse)

    def _while_stmt(self) -> ast.While:
        start = self._expect(TokenType.KW_WHILE)
        cond = self._condition()
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

    def _optional_value(self) -> Optional[ast.Expr]:
        """An expression, or nothing, then ``;``."""
        value: Optional[ast.Expr] = None
        if not self._check(TokenType.SEMI):
            value = self._expression()
        self._expect(TokenType.SEMI)
        return value

    def _return_stmt(self) -> ast.Return:
        start = self._expect(TokenType.KW_RETURN)
        value = self._optional_value()
        return ast.Return(**self._pos_of(start), value=value)

    def _reply_stmt(self) -> ast.Reply:
        start = self._expect(TokenType.KW_REPLY)
        value = self._optional_value()
        return ast.Reply(**self._pos_of(start), value=value)

    def _named_operand(self) -> str:
        """``( name ) ;`` after a P, V, lock or unlock keyword."""
        self._expect(TokenType.LPAREN)
        name = self._name()
        self._expect(TokenType.RPAREN)
        self._expect(TokenType.SEMI)
        return name

    def _sem_p(self) -> ast.SemP:
        start = self._advance()
        sem = self._named_operand()
        return ast.SemP(**self._pos_of(start), sem=sem)

    def _sem_v(self) -> ast.SemV:
        start = self._advance()
        sem = self._named_operand()
        return ast.SemV(**self._pos_of(start), sem=sem)

    def _lock_stmt(self) -> ast.LockStmt:
        start = self._advance()
        lock = self._named_operand()
        return ast.LockStmt(**self._pos_of(start), lock=lock)

    def _unlock_stmt(self) -> ast.UnlockStmt:
        start = self._advance()
        lock = self._named_operand()
        return ast.UnlockStmt(**self._pos_of(start), lock=lock)

    def _send_stmt(self) -> ast.Send:
        start = self._expect(TokenType.KW_SEND)
        self._expect(TokenType.LPAREN)
        channel = self._name()
        self._expect(TokenType.COMMA)
        value = self._expression()
        self._expect(TokenType.RPAREN)
        self._expect(TokenType.SEMI)
        return ast.Send(**self._pos_of(start), channel=channel, value=value)

    def _spawn_stmt(self) -> ast.Spawn:
        start = self._expect(TokenType.KW_SPAWN)
        name = self._name()
        args = self._arguments()
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
        entry = self._name()
        params = self._params()
        body = self._block()
        return ast.Accept(**self._pos_of(start), entry=entry, params=params, body=body)

    def _print_stmt(self) -> ast.Print:
        start = self._expect(TokenType.KW_PRINT)
        args = self._arguments()
        self._expect(TokenType.SEMI)
        return ast.Print(**self._pos_of(start), args=args)

    def _assert_stmt(self) -> ast.AssertStmt:
        start = self._expect(TokenType.KW_ASSERT)
        cond = self._condition()
        self._expect(TokenType.SEMI)
        return ast.AssertStmt(**self._pos_of(start), cond=cond)

    # -- expressions ---------------------------------------------------------

    def _expression(self, min_precedence: int = 1) -> ast.Expr:
        """A binary expression whose operators all bind at least as tightly
        as *min_precedence* (precedence climbing over :data:`_BINARY`)."""
        left = self._unary()
        tokens = self._tokens
        while True:
            op_token = tokens[self._pos]
            entry = _BINARY.get(op_token.type)
            if entry is None or entry[0] < min_precedence:
                return left
            self._pos += 1
            precedence, op = entry
            right = self._expression(precedence + 1)
            left = ast.Binary(**self._pos_of(op_token), op=op, left=left, right=right)

    def _unary(self) -> ast.Expr:
        token = self._tokens[self._pos]
        if token.type is TokenType.MINUS or token.type is TokenType.NOT:
            self._pos += 1
            operand = self._unary()
            op = "-" if token.type is TokenType.MINUS else "!"
            return ast.Unary(**self._pos_of(token), op=op, operand=operand)
        return self._atom()

    def _atom(self) -> ast.Expr:
        token = self._tokens[self._pos]
        token_type = token.type
        if token_type is TokenType.NAME:
            self._pos += 1
            if self._check(TokenType.LPAREN):
                return self._finish_call(token)
            if self._match(TokenType.LBRACKET):
                index = self._expression()
                self._expect(TokenType.RBRACKET)
                return ast.Index(**self._pos_of(token), name=token.text, index=index)
            return ast.Name(**self._pos_of(token), name=token.text)
        if token_type is TokenType.INT:
            self._pos += 1
            return ast.IntLit(**self._pos_of(token), value=_int_value(token))
        if token_type is TokenType.LPAREN:
            self._pos += 1
            expr = self._expression()
            self._expect(TokenType.RPAREN)
            return expr
        if token_type is TokenType.FLOAT:
            self._pos += 1
            return ast.FloatLit(**self._pos_of(token), value=float(token.text))
        if token_type is TokenType.STRING:
            self._pos += 1
            return ast.StrLit(**self._pos_of(token), value=token.text)
        if token_type is TokenType.KW_TRUE or token_type is TokenType.KW_FALSE:
            self._pos += 1
            return ast.BoolLit(**self._pos_of(token), value=token_type is TokenType.KW_TRUE)
        if token_type is TokenType.KW_RECV:
            self._pos += 1
            self._expect(TokenType.LPAREN)
            channel = self._name()
            self._expect(TokenType.RPAREN)
            return ast.RecvExpr(**self._pos_of(token), channel=channel)
        if token_type is TokenType.KW_CALL:
            self._pos += 1
            entry = self._name()
            args = self._arguments()
            return ast.CallEntry(**self._pos_of(token), entry=entry, args=args)
        raise ParseError(f"expected expression, found {token.text!r}", token.line, token.column)

    def _arguments(self) -> list[ast.Expr]:
        """``( expression, ... )``"""
        self._expect(TokenType.LPAREN)
        args: list[ast.Expr] = []
        if not self._check(TokenType.RPAREN):
            args.append(self._expression())
            while self._match(TokenType.COMMA):
                args.append(self._expression())
        self._expect(TokenType.RPAREN)
        return args

    def _finish_call(self, name_token: Token) -> ast.CallExpr:
        args = self._arguments()
        return ast.CallExpr(**self._pos_of(name_token), name=name_token.text, args=args)

    #: First token of a statement -> the method that parses it.
    _STATEMENTS = {
        TokenType.LBRACE: _block,
        TokenType.KW_IF: _if_stmt,
        TokenType.KW_WHILE: _while_stmt,
        TokenType.KW_FOR: _for_stmt,
        TokenType.KW_RETURN: _return_stmt,
        TokenType.KW_P: _sem_p,
        TokenType.KW_V: _sem_v,
        TokenType.KW_LOCK: _lock_stmt,
        TokenType.KW_UNLOCK: _unlock_stmt,
        TokenType.KW_SEND: _send_stmt,
        TokenType.KW_SPAWN: _spawn_stmt,
        TokenType.KW_JOIN: _join_stmt,
        TokenType.KW_PRINT: _print_stmt,
        TokenType.KW_ASSERT: _assert_stmt,
        TokenType.KW_ACCEPT: _accept_stmt,
        TokenType.KW_REPLY: _reply_stmt,
        TokenType.KW_BREAK: _break_or_continue,
        TokenType.KW_CONTINUE: _break_or_continue,
        TokenType.KW_INT: _var_decl,
        TokenType.KW_FLOAT: _var_decl,
        TokenType.KW_BOOL: _var_decl,
        TokenType.NAME: _assign_or_call,
    }


def parse(source: str) -> ast.Program:
    """Parse PCL *source* into a :class:`Program` with numbered statements."""
    return Parser(tokenize(source), source).parse_program()
