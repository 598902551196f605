"""Recursive-descent parser for the SQL subset.

Grammar sketch (keywords case-insensitive)::

    statement    := select | insert | update | delete
                  | create_table | create_index | drop | update_stats
    select       := SELECT [DISTINCT] (STAR | item{,}) FROM table_ref{,}
                    [WHERE expr] [GROUP BY colref{,}] [HAVING expr]
                    [ORDER BY order_item{,}]
    expr         := and_expr (OR and_expr)*
    and_expr     := not_expr (AND not_expr)*
    not_expr     := NOT not_expr | predicate
    predicate    := additive [compare additive | [NOT] BETWEEN .. AND ..
                  | [NOT] IN ( subquery | literals ) | IS [NOT] NULL
                  | [NOT] LIKE string]
    additive     := multiplicative (('+'|'-') multiplicative)*
    multiplicative := unary (('*'|'/') unary)*
    unary        := '-' unary | primary
    primary      := literal | NULL | func '(' [DISTINCT] (expr|'*') ')'
                  | colref | '(' (subquery | expr) ')'
"""

from __future__ import annotations

from ..datatypes import DataType, TypeKind
from ..errors import ParseError
from ..rss.sargs import CompareOp
from . import ast
from .lexer import Token, TokenType, tokenize

_COMPARE_OPS = {
    "=": CompareOp.EQ,
    "<>": CompareOp.NE,
    "<": CompareOp.LT,
    "<=": CompareOp.LE,
    ">": CompareOp.GT,
    ">=": CompareOp.GE,
}


class Parser:
    """Parses one SQL statement from text."""

    def __init__(self, text: str):
        self._tokens = tokenize(text)
        self._position = 0

    # -- token plumbing -------------------------------------------------------

    def _peek(self, ahead: int = 0) -> Token:
        index = min(self._position + ahead, len(self._tokens) - 1)
        return self._tokens[index]

    def _advance(self) -> Token:
        token = self._tokens[self._position]
        if token.type is not TokenType.EOF:
            self._position += 1
        return token

    def _accept_keyword(self, keyword: str) -> bool:
        if self._peek().matches_keyword(keyword):
            self._advance()
            return True
        return False

    def _expect_keyword(self, keyword: str) -> None:
        if not self._accept_keyword(keyword):
            raise ParseError(f"expected {keyword}, found {self._peek()}")

    def _accept_symbol(self, symbol: str) -> bool:
        if self._peek().matches_symbol(symbol):
            self._advance()
            return True
        return False

    def _expect_symbol(self, symbol: str) -> None:
        if not self._accept_symbol(symbol):
            raise ParseError(f"expected {symbol!r}, found {self._peek()}")

    def _expect_ident(self) -> str:
        token = self._peek()
        if token.type is TokenType.IDENT:
            self._advance()
            return str(token.value)
        raise ParseError(f"expected identifier, found {token}")

    # -- statements -----------------------------------------------------------

    def parse_statement(self) -> ast.Statement:
        """Parse exactly one statement from the token stream."""
        token = self._peek()
        if token.matches_keyword("SELECT"):
            statement: ast.Statement = self._select()
        elif token.matches_keyword("INSERT"):
            statement = self._insert()
        elif token.matches_keyword("UPDATE"):
            statement = self._update_or_statistics()
        elif token.matches_keyword("DELETE"):
            statement = self._delete()
        elif token.matches_keyword("CREATE"):
            statement = self._create()
        elif token.matches_keyword("DROP"):
            statement = self._drop()
        else:
            raise ParseError(f"unexpected start of statement: {token}")
        if self._peek().type is not TokenType.EOF:
            raise ParseError(f"trailing input after statement: {self._peek()}")
        return statement

    def _select(self) -> ast.SelectQuery:
        self._expect_keyword("SELECT")
        distinct = self._accept_keyword("DISTINCT")
        select_items: list[ast.SelectItem] = []
        if not self._accept_symbol("*"):
            while True:
                expr = self._expr()
                alias = None
                if self._accept_keyword("AS"):
                    alias = self._expect_ident()
                elif self._peek().type is TokenType.IDENT and not self._looks_like_from():
                    alias = self._expect_ident()
                select_items.append(ast.SelectItem(expr, alias))
                if not self._accept_symbol(","):
                    break
        self._expect_keyword("FROM")
        from_tables: list[ast.TableRef] = []
        while True:
            table_name = self._expect_ident()
            alias = table_name
            if self._peek().type is TokenType.IDENT:
                alias = self._expect_ident()
            from_tables.append(ast.TableRef(table_name, alias))
            if not self._accept_symbol(","):
                break
        where = self._expr() if self._accept_keyword("WHERE") else None
        group_by: list[ast.ColumnRef] = []
        if self._accept_keyword("GROUP"):
            self._expect_keyword("BY")
            while True:
                group_by.append(self._column_ref())
                if not self._accept_symbol(","):
                    break
        having = self._expr() if self._accept_keyword("HAVING") else None
        order_by: list[ast.OrderItem] = []
        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            while True:
                column = self._column_ref()
                descending = False
                if self._accept_keyword("DESC"):
                    descending = True
                else:
                    self._accept_keyword("ASC")
                order_by.append(ast.OrderItem(column, descending))
                if not self._accept_symbol(","):
                    break
        return ast.SelectQuery(
            select_items=tuple(select_items),
            from_tables=tuple(from_tables),
            where=where,
            group_by=tuple(group_by),
            having=having,
            order_by=tuple(order_by),
            distinct=distinct,
        )

    def _looks_like_from(self) -> bool:
        # Select-item aliases are bare identifiers; FROM is a keyword, so an
        # IDENT here is always an alias.  (Kept for readability at call site.)
        return False

    def _insert(self) -> ast.InsertStmt:
        self._expect_keyword("INSERT")
        self._expect_keyword("INTO")
        table_name = self._expect_ident()
        column_names: tuple[str, ...] | None = None
        if self._accept_symbol("("):
            names = [self._expect_ident()]
            while self._accept_symbol(","):
                names.append(self._expect_ident())
            self._expect_symbol(")")
            column_names = tuple(names)
        if self._peek().matches_keyword("SELECT"):
            return ast.InsertStmt(
                table_name, column_names, source=self._select()
            )
        self._expect_keyword("VALUES")
        rows: list[tuple[ast.Expr, ...]] = []
        while True:
            self._expect_symbol("(")
            row = [self._expr()]
            while self._accept_symbol(","):
                row.append(self._expr())
            self._expect_symbol(")")
            rows.append(tuple(row))
            if not self._accept_symbol(","):
                break
        return ast.InsertStmt(table_name, column_names, tuple(rows))

    def _update_or_statistics(self) -> ast.Statement:
        self._expect_keyword("UPDATE")
        if self._accept_keyword("STATISTICS"):
            table_name = None
            if self._peek().type is TokenType.IDENT:
                table_name = self._expect_ident()
            return ast.UpdateStatisticsStmt(table_name)
        table_name = self._expect_ident()
        self._expect_keyword("SET")
        assignments: list[tuple[str, ast.Expr]] = []
        while True:
            column = self._expect_ident()
            self._expect_symbol("=")
            assignments.append((column, self._expr()))
            if not self._accept_symbol(","):
                break
        where = self._expr() if self._accept_keyword("WHERE") else None
        return ast.UpdateStmt(table_name, tuple(assignments), where)

    def _delete(self) -> ast.DeleteStmt:
        self._expect_keyword("DELETE")
        self._expect_keyword("FROM")
        table_name = self._expect_ident()
        where = self._expr() if self._accept_keyword("WHERE") else None
        return ast.DeleteStmt(table_name, where)

    def _create(self) -> ast.Statement:
        self._expect_keyword("CREATE")
        unique = self._accept_keyword("UNIQUE")
        if self._accept_keyword("TABLE"):
            if unique:
                raise ParseError("UNIQUE applies to indexes, not tables")
            return self._create_table()
        self._expect_keyword("INDEX")
        return self._create_index(unique)

    def _create_table(self) -> ast.CreateTableStmt:
        table_name = self._expect_ident()
        self._expect_symbol("(")
        columns = [self._column_spec()]
        while self._accept_symbol(","):
            columns.append(self._column_spec())
        self._expect_symbol(")")
        segment_name = None
        if self._accept_keyword("IN"):
            self._expect_keyword("SEGMENT")
            segment_name = self._expect_ident()
        return ast.CreateTableStmt(table_name, tuple(columns), segment_name)

    def _column_spec(self) -> ast.ColumnSpec:
        name = self._expect_ident()
        token = self._advance()
        if token.matches_keyword("INTEGER") or token.matches_keyword("INT"):
            return ast.ColumnSpec(name, DataType(TypeKind.INTEGER))
        if token.matches_keyword("FLOAT"):
            return ast.ColumnSpec(name, DataType(TypeKind.FLOAT))
        if token.matches_keyword("VARCHAR"):
            self._expect_symbol("(")
            length_token = self._advance()
            if length_token.type is not TokenType.INTEGER:
                raise ParseError("VARCHAR length must be an integer")
            self._expect_symbol(")")
            return ast.ColumnSpec(name, DataType(TypeKind.VARCHAR, int(length_token.value)))
        raise ParseError(f"unknown column type {token}")

    def _create_index(self, unique: bool) -> ast.CreateIndexStmt:
        index_name = self._expect_ident()
        self._expect_keyword("ON")
        table_name = self._expect_ident()
        self._expect_symbol("(")
        columns = [self._expect_ident()]
        while self._accept_symbol(","):
            columns.append(self._expect_ident())
        self._expect_symbol(")")
        clustered = self._accept_keyword("CLUSTER")
        return ast.CreateIndexStmt(
            index_name, table_name, tuple(columns), unique, clustered
        )

    def _drop(self) -> ast.Statement:
        self._expect_keyword("DROP")
        if self._accept_keyword("TABLE"):
            return ast.DropTableStmt(self._expect_ident())
        self._expect_keyword("INDEX")
        return ast.DropIndexStmt(self._expect_ident())

    # -- expressions --------------------------------------------------------------

    def _expr(self) -> ast.Expr:
        operands = [self._and_expr()]
        while self._accept_keyword("OR"):
            operands.append(self._and_expr())
        if len(operands) == 1:
            return operands[0]
        return ast.Or(tuple(operands))

    def _and_expr(self) -> ast.Expr:
        operands = [self._not_expr()]
        while self._accept_keyword("AND"):
            operands.append(self._not_expr())
        if len(operands) == 1:
            return operands[0]
        return ast.And(tuple(operands))

    def _not_expr(self) -> ast.Expr:
        if self._accept_keyword("NOT"):
            return ast.Not(self._not_expr())
        return self._predicate()

    def _predicate(self) -> ast.Expr:
        left = self._additive()
        token = self._peek()
        if token.type is TokenType.SYMBOL and str(token.value) in _COMPARE_OPS:
            self._advance()
            op = _COMPARE_OPS[str(token.value)]
            right = self._additive()
            return ast.Comparison(op, left, right)
        negated = False
        if (
            token.matches_keyword("NOT")
            and self._peek(1).type is TokenType.KEYWORD
            and self._peek(1).value in ("BETWEEN", "IN", "LIKE")
        ):
            self._advance()
            negated = True
            token = self._peek()
        if self._accept_keyword("BETWEEN"):
            low = self._additive()
            self._expect_keyword("AND")
            high = self._additive()
            between = ast.Between(left, low, high)
            return ast.Not(between) if negated else between
        if self._accept_keyword("IN"):
            self._expect_symbol("(")
            if self._peek().matches_keyword("SELECT"):
                subquery = self._select()
                self._expect_symbol(")")
                predicate: ast.Expr = ast.InSubquery(left, subquery)
            else:
                values = [self._literal()]
                while self._accept_symbol(","):
                    values.append(self._literal())
                self._expect_symbol(")")
                predicate = ast.InList(left, tuple(values))
            return ast.Not(predicate) if negated else predicate
        if self._accept_keyword("LIKE"):
            pattern_token = self._advance()
            if pattern_token.type is not TokenType.STRING:
                raise ParseError("LIKE pattern must be a string literal")
            return ast.Like(left, str(pattern_token.value), negated)
        if self._accept_keyword("IS"):
            is_not = self._accept_keyword("NOT")
            self._expect_keyword("NULL")
            return ast.IsNull(left, is_not)
        if negated:
            raise ParseError(f"unexpected NOT before {token}")
        return left

    def _additive(self) -> ast.Expr:
        left = self._multiplicative()
        while True:
            if self._accept_symbol("+"):
                left = ast.BinaryOp("+", left, self._multiplicative())
            elif self._accept_symbol("-"):
                left = ast.BinaryOp("-", left, self._multiplicative())
            else:
                return left

    def _multiplicative(self) -> ast.Expr:
        left = self._unary()
        while True:
            if self._accept_symbol("*"):
                left = ast.BinaryOp("*", left, self._unary())
            elif self._accept_symbol("/"):
                left = ast.BinaryOp("/", left, self._unary())
            else:
                return left

    def _unary(self) -> ast.Expr:
        if self._accept_symbol("-"):
            operand = self._unary()
            if isinstance(operand, ast.Literal) and isinstance(
                operand.value, (int, float)
            ):
                return ast.Literal(-operand.value)
            return ast.Negate(operand)
        return self._primary()

    def _primary(self) -> ast.Expr:
        token = self._peek()
        if token.type in (TokenType.INTEGER, TokenType.FLOAT, TokenType.STRING):
            self._advance()
            return ast.Literal(token.value)
        if token.matches_keyword("NULL"):
            self._advance()
            return ast.Literal(None)
        if token.type is TokenType.IDENT:
            if (
                str(token.value) in ast.AGGREGATE_FUNCTIONS
                and self._peek(1).matches_symbol("(")
            ):
                return self._func_call()
            return self._column_ref()
        if self._accept_symbol("("):
            if self._peek().matches_keyword("SELECT"):
                subquery = self._select()
                self._expect_symbol(")")
                return ast.ScalarSubquery(subquery)
            inner = self._expr()
            self._expect_symbol(")")
            return inner
        raise ParseError(f"unexpected token {token}")

    def _func_call(self) -> ast.FuncCall:
        name = self._expect_ident()
        self._expect_symbol("(")
        distinct = self._accept_keyword("DISTINCT")
        if self._accept_symbol("*"):
            if name != "COUNT":
                raise ParseError(f"{name}(*) is not valid")
            self._expect_symbol(")")
            return ast.FuncCall(name, None, distinct)
        argument = self._expr()
        self._expect_symbol(")")
        return ast.FuncCall(name, argument, distinct)

    def _column_ref(self) -> ast.ColumnRef:
        first = self._expect_ident()
        if self._accept_symbol("."):
            return ast.ColumnRef(first, self._expect_ident())
        return ast.ColumnRef(None, first)

    def _literal(self) -> ast.Literal:
        expr = self._unary()
        if not isinstance(expr, ast.Literal):
            raise ParseError("expected a literal value")
        return expr


def parse_statement(text: str) -> ast.Statement:
    """Parse one SQL statement; raises :class:`~repro.errors.ParseError`."""
    return Parser(text).parse_statement()
