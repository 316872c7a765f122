"""Parsing and evaluation of chart-coordinate expressions.

Grammar (there is no implicit multiplication):

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := "-" factor | power
    power  := atom ("^" factor)?
    atom   := NUMBER | IDENT | IDENT "(" expr ")" | "(" expr ")"
    NUMBER := (DIGIT+ ("." DIGIT*)? | "." DIGIT+) (("e"|"E") ("+"|"-")? DIGIT+)?
    IDENT  := ("A".."Z" | "a".."z" | "_") ("A".."Z" | "a".."z" | "0".."9" | "_")*

A DIGIT is any Unicode decimal digit (str.isdecimal(), so "\u0663" reads
as 3).  Whitespace, the characters for which str.isspace() holds, may stand
between tokens and at either end, and is ignored.  A token is the longest
NUMBER or IDENT that starts at its offset, or one of the characters
+ - * / ^ ( ); any other character is a syntax error.

"^" binds tighter than unary minus and associates to the right, so
"-t^2" is -(t^2) and "2^3^2" is 2^(3^2).  The function identifiers are
sin cos tan exp ln sqrt abs tanh; every other identifier must name a
chart coordinate or a declared constant.  An expression may nest at most
100 levels deep, counting both the levels of its tree (a sum of 101 terms
is 101 deep) and those of its parentheses, signs, exponents and calls: the
parser and every stage that walks the tree (hash, comparison, evaluation,
printing) recurse once per level.

Integer-literal exponents are expanded by repeated multiplication (exact
for negative bases); any other exponent routes through exp(b * ln(a)) and
therefore requires a positive base at evaluation time.
"""
from __future__ import annotations

import functools
import re
from typing import Iterable, Mapping, NamedTuple, Sequence, Union

import numpy as np

from . import jets
from .errors import (
    DimensionMismatch,
    DomainError,
    ExprError,
    ExprSyntaxError,
    UnboundConstant,
    UnknownIdentifier,
    at_sample,
    require_finite,
)
from .jets import Jet2
from .record import Value

__all__ = [
    "Num",
    "Coord",
    "Const",
    "Neg",
    "BinOp",
    "Call",
    "Evaluation",
    "Expression",
    "FieldJets",
    "eval_field_jets",
    "eval_numbers",
    "parse",
]

# -- abstract syntax ------------------------------------------------------


# Nodes compare and hash by class and fields, so Num(1.0) != Coord(1).
class Num(Value):
    __slots__ = ("value",)


class Coord(Value):
    __slots__ = ("index",)


class Const(Value):
    __slots__ = ("name",)


class Neg(Value):
    __slots__ = ("operand",)


class BinOp(Value):
    __slots__ = ("op", "left", "right")  # op is one of + - * / ^


class Call(Value):
    __slots__ = ("func", "arg")


Node = Union[Num, Coord, Const, Neg, BinOp, Call]

# -- tokenizer ------------------------------------------------------------

# Leading whitespace, then one token; BAD is any other character that is not whitespace.
_TOKEN = re.compile(
    r"\s*(?:(?P<NUMBER>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)|(?P<OP>[-+*/^()])|(?P<BAD>\S))"
)

# Parsing, hashing, comparing, evaluating and printing an expression each take a
# few stack frames per level (parsing a parenthesis five), so this bound keeps
# them all well inside Python's default recursion limit of 1000.
_MAX_DEPTH = 100
_TOO_DEEP = f"expression nests deeper than {_MAX_DEPTH} levels"


class _Token(NamedTuple):
    kind: str  # NUMBER | IDENT | OP | END
    text: str
    offset: int


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    for m in _TOKEN.finditer(source):
        kind = m.lastgroup
        if kind == "BAD":
            raise ExprSyntaxError(f"unexpected character {m.group(kind)!r}", m.start(kind))
        tokens.append(_Token(kind, m.group(kind), m.start(kind)))
    tokens.append(_Token("END", "", len(source)))
    return tokens


# -- parser ---------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[_Token], coords: tuple[str, ...], constants: frozenset[str]):
        self.tokens = tokens
        self.pos = 0
        self.coords = coords
        self.constants = constants
        self.depth = 0  # factors entered and not yet left: every recursion passes through one

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def accept_op(self, ops: str) -> _Token | None:
        tok = self.peek()
        if tok.kind == "OP" and tok.text in ops:
            return self.advance()
        return None

    def close(self) -> None:
        """Consume the ')' that must come next."""
        if self.accept_op(")") is None:
            raise ExprSyntaxError("expected ')'", self.peek().offset)

    def parse(self) -> Node:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "END":
            raise ExprSyntaxError(f"unexpected token {tok.text!r}", tok.offset)
        if max(level for _, level in _walk(node)) > _MAX_DEPTH:
            raise ExprError(_TOO_DEEP)
        return node

    def expr(self) -> Node:
        node = self.term()
        while (tok := self.accept_op("+-")) is not None:
            node = BinOp(tok.text, node, self.term())
        return node

    def term(self) -> Node:
        node = self.factor()
        while (tok := self.accept_op("*/")) is not None:
            node = BinOp(tok.text, node, self.factor())
        return node

    def factor(self) -> Node:
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise ExprError(_TOO_DEEP)
        node = Neg(self.factor()) if self.accept_op("-") is not None else self.power()
        self.depth -= 1
        return node

    def power(self) -> Node:
        node = self.atom()
        if self.accept_op("^") is not None:
            return BinOp("^", node, self.factor())
        return node

    def atom(self) -> Node:
        tok = self.advance()
        if tok.kind == "NUMBER":
            return Num(float(tok.text))
        if tok.kind == "IDENT":
            if self.peek().kind == "OP" and self.peek().text == "(":
                if tok.text not in jets.FUNCTIONS:
                    raise UnknownIdentifier(tok.text, tok.offset)
                self.advance()
                arg = self.expr()
                self.close()
                return Call(tok.text, arg)
            if tok.text in self.coords:
                return Coord(self.coords.index(tok.text))
            if tok.text in self.constants:
                return Const(tok.text)
            raise UnknownIdentifier(tok.text, tok.offset)
        if tok.kind == "OP" and tok.text == "(":
            node = self.expr()
            self.close()
            return node
        raise ExprSyntaxError("expected a value", tok.offset)


# -- evaluation -----------------------------------------------------------


def _literal_int_exponent(node: Node) -> int | None:
    """Integer value of a literal exponent node (Num or negated Num), else None."""
    if isinstance(node, Num) and float(node.value).is_integer():
        return int(node.value)
    if isinstance(node, Neg) and isinstance(node.operand, Num) and float(node.operand.value).is_integer():
        return -int(node.operand.value)
    return None


def _div(left, right):
    if isinstance(left, Jet2) or isinstance(right, Jet2):
        return left / right
    if (zero := np.asarray(right) == 0.0).any():
        raise DomainError("division by zero", zero)
    return left / right


def _evaluate(node: Node, coordinates, bindings: Mapping[str, float], kept: dict):
    """The node's result: the one `kept` holds under its identity, or its operation on its operands'."""
    if (hit := kept.get(id(node))) is not None:
        return hit[1]
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Coord):
        return coordinates[node.index]
    if isinstance(node, Const):
        try:
            return float(bindings[node.name])
        except KeyError:
            raise UnboundConstant(node.name) from None
    if isinstance(node, Neg):
        return -_evaluate(node.operand, coordinates, bindings, kept)
    if isinstance(node, Call):
        return jets.FUNCTIONS[node.func](_evaluate(node.arg, coordinates, bindings, kept))
    left = _evaluate(node.left, coordinates, bindings, kept)
    if node.op == "^":
        k = _literal_int_exponent(node.right)
        if k is not None:
            return jets.int_pow(left, k)
        return jets.general_pow(left, _evaluate(node.right, coordinates, bindings, kept))
    right = _evaluate(node.right, coordinates, bindings, kept)
    if node.op == "+":
        return left + right
    if node.op == "-":
        return left - right
    if node.op == "*":
        return left * right
    return _div(left, right)


def _walk(node: Node):
    """The node and its descendants, each with its level (the node's is 1), parents first, by a stack."""
    stack = [(node, 1)]
    while stack:
        node, level = stack.pop()
        yield node, level
        if isinstance(node, Neg):
            stack.append((node.operand, level + 1))
        elif isinstance(node, Call):
            stack.append((node.arg, level + 1))
        elif isinstance(node, BinOp):
            stack += [(node.right, level + 1), (node.left, level + 1)]


# -- pretty printing ------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _unparse(node: Node, names: tuple[str, ...], context: int) -> str:
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Coord):
        return names[node.index]
    if isinstance(node, Const):
        return node.name
    if isinstance(node, Neg):
        text = "-" + _unparse(node.operand, names, _PREC_POW)
        return f"({text})" if context > _PREC_NEG else text
    if isinstance(node, Call):
        return f"{node.func}({_unparse(node.arg, names, 0)})"
    if node.op == "^":
        # base must print as an atom; the exponent is a factor, so unary minus survives
        text = _unparse(node.left, names, _PREC_ATOM) + "^" + _unparse(node.right, names, _PREC_NEG)
        return f"({text})" if context > _PREC_POW else text
    if node.op in "*/":
        text = _unparse(node.left, names, _PREC_MUL) + node.op + _unparse(node.right, names, _PREC_MUL + 1)
        return f"({text})" if context > _PREC_MUL else text
    text = _unparse(node.left, names, _PREC_ADD) + node.op + _unparse(node.right, names, _PREC_ADD + 1)
    return f"({text})" if context > _PREC_ADD else text


# -- public surface -------------------------------------------------------


class Expression(Value):
    """A parsed expression bound to a coordinate tuple and constant names."""

    __slots__ = ("ast", "coords", "constants")

    def eval_jet(self, evaluation: Evaluation):
        """The jet that `evaluation` keeps of this expression: its number where it reads no coordinate."""
        return evaluation.jet(self)

    def referenced_constants(self) -> frozenset[str]:
        return frozenset(node.name for node, _ in _walk(self.ast) if isinstance(node, Const))

    def unparse(self) -> str:
        return _unparse(self.ast, self.coords, 0)

    __str__ = unparse  # how an error names the expression


class Evaluation:
    """The expressions of one chart at a batch of points (N, d), each evaluated once.

    Every expression is evaluated through one.  The coordinate seeds are
    built once.  The result of every expression evaluated here is kept under
    the identity of its AST, with the AST, whose id is thus never reused; an
    expression whose AST holds that node, as g~'s products hold g's, phi's
    and eta's entries, reads the kept result.  Jets and values are kept
    apart: a jet divides as a * (1/b), a value as a / b, so they may round
    differently.
    """

    def __init__(self, points, d: int, bindings: Mapping[str, float] | None = None):
        self.points = np.asarray(points, dtype=float)
        if self.points.ndim != 2 or self.points.shape[1] != d:
            raise DimensionMismatch(f"points of shape {self.points.shape} are no batch (N, {d})")
        self.bindings = dict(bindings or {})
        self.columns = [self.points[:, i] for i in range(d)]
        self.seeds = tuple(Jet2.seed(i, column, d) for i, column in enumerate(self.columns))
        self.kept_jets: dict[int, tuple[Node, object]] = {}
        self.kept_values: dict[int, tuple[Node, object]] = {}

    def jet(self, expression: Expression):
        """The expression's jet over the points, or its number where it reads no coordinate."""
        return self._kept(expression, self.seeds, self.kept_jets)

    def value(self, expression: Expression):
        """The expression's value over the points, or its number where it reads no coordinate."""
        return self._kept(expression, self.columns, self.kept_values)

    def _kept(self, expression: Expression, coordinates, kept: dict):
        """The kept result, or _evaluate with numpy's overflow, divide and invalid warnings off.

        A non-finite result, or an argument outside the domain of the
        arithmetic, is a DomainError that names the expression and the first
        offending sample.
        """
        if (hit := kept.get(id(expression.ast))) is not None:
            return hit[1]
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            try:
                result = _evaluate(expression.ast, coordinates, self.bindings, kept)
            except DomainError as exc:
                where = at_sample(expression.coords, self.points, exc.bad)
                raise DomainError(f"{expression.unparse()}: {exc} at {where}", exc.bad) from None
            jet = isinstance(result, Jet2)
            arrays = (result.value, result.grad, result.hess) if jet else (np.asarray(result),)
            require_finite(expression, expression.coords, self.points, *arrays)
        kept[id(expression.ast)] = (expression.ast, result)
        return result


class FieldJets(NamedTuple):
    """A field's value, first and second coordinate derivatives, in the field's shape.

    The sample axis of a batch comes first, then the field's axes, and the
    derivative axes are appended last: partial[..., m] = d_m value[...],
    second[..., m, l] = d_l d_m value[...] (symmetric in m, l).
    """

    value: np.ndarray
    partial: np.ndarray
    second: np.ndarray


def _flat(field):
    """A field's expressions, a matrix's row by row, and its shape: a vector's (m,), a matrix's (m, k)."""
    if isinstance(field[0], Expression):
        return list(field), (len(field),)
    return [e for row in field for e in row], (len(field), len(field[0]))


def eval_field_jets(fields: Sequence[Sequence], evaluation: Evaluation) -> list[FieldJets]:
    """The jets of several fields, each a vector or a matrix of expressions, over an Evaluation.

    Each expression is evaluated by `Expression.eval_jet`, in order: an
    error comes from the first offending one.  The partial and second
    derivatives of a field with no entry whose result is a jet are read-only
    zeros that own no memory.
    """
    lead, d = evaluation.points.shape[:-1], evaluation.points.shape[-1]
    out = []
    for field in fields:
        expressions, shape = _flat(field)
        results = [e.eval_jet(evaluation) for e in expressions]
        size = len(results)
        zeros = np.zeros if any(isinstance(r, Jet2) for r in results) else functools.partial(np.broadcast_to, 0.0)
        value, grad, hess = np.empty(lead + (size,)), zeros(lead + (size, d)), zeros(lead + (size, d, d))
        for m, result in enumerate(results):
            if isinstance(result, Jet2):
                value[..., m], grad[..., m, :], hess[..., m, :, :] = result.value, result.grad, result.hess
            else:
                value[..., m] = result
        out.append(FieldJets(value.reshape(lead + shape), grad.reshape(lead + shape + (d,)),
                             hess.reshape(lead + shape + (d, d))))
    return out


def eval_numbers(fields: Sequence[Sequence], evaluation: Evaluation) -> list[np.ndarray]:
    """The values of several fields, each in its shape, over an Evaluation.

    Every value equals that of its expression evaluated on its own.
    """
    lead = evaluation.points.shape[:-1]
    out = []
    for field in fields:
        expressions, shape = _flat(field)
        values = np.empty(lead + (len(expressions),))
        for m, e in enumerate(expressions):
            values[..., m] = evaluation.value(e)
        out.append(values.reshape(lead + shape))
    return out


def parse(source: str, coords: Iterable[str], constants: Iterable[str] = ()) -> Expression:
    """Parse expression source against the given coordinate and constant names."""
    coords = tuple(coords)
    if len(set(coords)) != len(coords):
        raise ValueError("coordinate names must be distinct")
    constant_names = tuple(sorted(set(constants)))
    parser = _Parser(_tokenize(source), coords, frozenset(constant_names))
    return Expression(parser.parse(), coords, constant_names)

