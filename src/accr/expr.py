"""Parsing and evaluation of chart-coordinate expressions.

Grammar (whitespace between tokens is ignored, there is no implicit
multiplication):

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := "-" factor | power
    power  := atom ("^" factor)?
    atom   := NUMBER | IDENT | IDENT "(" expr ")" | "(" expr ")"

"^" binds tighter than unary minus and associates to the right, so
"-t^2" is -(t^2) and "2^3^2" is 2^(3^2).  The function identifiers are
sin cos tan exp ln sqrt abs tanh; every other identifier must name a
chart coordinate or a declared constant.

Integer-literal exponents are expanded by repeated multiplication (exact
for negative bases); any other exponent routes through exp(b * ln(a)) and
therefore requires a positive base at evaluation time.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from . import jets
from .errors import (
    DimensionMismatch,
    DomainError,
    ExprSyntaxError,
    UnboundConstant,
    UnknownIdentifier,
)
from .jets import Jet2

__all__ = [
    "Num",
    "Coord",
    "Const",
    "Neg",
    "BinOp",
    "Call",
    "Expression",
    "eval_jets",
    "parse",
    "multiply",
]

# -- abstract syntax ------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Coord:
    index: int


@dataclass(frozen=True)
class Const:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Node"


Node = Union[Num, Coord, Const, Neg, BinOp, Call]

# -- tokenizer ------------------------------------------------------------

_NUMBER = re.compile(r"(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_OPS = "+-*/^()"


@dataclass(frozen=True)
class _Token:
    kind: str  # NUMBER | IDENT | OP | END
    text: str
    offset: int


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    pos = 0
    n = len(source)
    while pos < n:
        ch = source[pos]
        if ch.isspace():
            pos += 1
            continue
        m = _NUMBER.match(source, pos)
        if m:
            tokens.append(_Token("NUMBER", m.group(0), pos))
            pos = m.end()
            continue
        m = _IDENT.match(source, pos)
        if m:
            tokens.append(_Token("IDENT", m.group(0), pos))
            pos = m.end()
            continue
        if ch in _OPS:
            tokens.append(_Token("OP", ch, pos))
            pos += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", pos)
    tokens.append(_Token("END", "", n))
    return tokens


# -- parser ---------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[_Token], coords: tuple[str, ...], constants: frozenset[str]):
        self.tokens = tokens
        self.pos = 0
        self.coords = coords
        self.constants = constants

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

    def parse(self) -> Node:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "END":
            raise ExprSyntaxError(f"unexpected token {tok.text!r}", tok.offset)
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
        if self.accept_op("-") is not None:
            return Neg(self.factor())
        return self.power()

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
                if self.accept_op(")") is None:
                    bad = self.peek()
                    raise ExprSyntaxError("expected ')'", bad.offset)
                return Call(tok.text, arg)
            if tok.text in self.coords:
                return Coord(self.coords.index(tok.text))
            if tok.text in self.constants:
                return Const(tok.text)
            raise UnknownIdentifier(tok.text, tok.offset)
        if tok.kind == "OP" and tok.text == "(":
            node = self.expr()
            if self.accept_op(")") is None:
                bad = self.peek()
                raise ExprSyntaxError("expected ')'", bad.offset)
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
    if np.any(np.asarray(right) == 0.0):
        raise DomainError("division by zero")
    return left / right


def _evaluate(node: Node, coord_values, bindings: Mapping[str, float]):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Coord):
        return coord_values[node.index]
    if isinstance(node, Const):
        try:
            return float(bindings[node.name])
        except KeyError:
            raise UnboundConstant(node.name) from None
    if isinstance(node, Neg):
        return -_evaluate(node.operand, coord_values, bindings)
    if isinstance(node, Call):
        return jets.FUNCTIONS[node.func](_evaluate(node.arg, coord_values, bindings))
    left = _evaluate(node.left, coord_values, bindings)
    if node.op == "^":
        k = _literal_int_exponent(node.right)
        if k is not None:
            return jets.int_pow(left, k)
        return jets.general_pow(left, _evaluate(node.right, coord_values, bindings))
    right = _evaluate(node.right, coord_values, bindings)
    if node.op == "+":
        return left + right
    if node.op == "-":
        return left - right
    if node.op == "*":
        return left * right
    return _div(left, right)


def _nodes(node: Node):
    """The node and all its descendants, parents first, left to right."""
    yield node
    if isinstance(node, Neg):
        yield from _nodes(node.operand)
    elif isinstance(node, Call):
        yield from _nodes(node.arg)
    elif isinstance(node, BinOp):
        yield from _nodes(node.left)
        yield from _nodes(node.right)


def _coordinates(point, d: int) -> np.ndarray:
    """One chart point (d,) or a batch (N, d) as a float array."""
    values = np.asarray(point, dtype=float)
    if values.ndim not in (1, 2) or values.shape[-1] != d:
        raise DimensionMismatch(
            f"point of shape {values.shape} does not fit a chart with {d} coordinates"
        )
    return values


def _coordinate_jets(point, d: int) -> tuple[Jet2, ...]:
    """Jets of the d chart coordinates at one point (d,) or at a batch (N, d)."""
    values = _coordinates(point, d)
    return tuple(Jet2.seed(i, values[..., i], d) for i in range(d))


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


@dataclass(frozen=True)
class Expression:
    """A parsed expression bound to a coordinate tuple and constant names."""

    ast: Node
    coords: tuple[str, ...]
    constants: tuple[str, ...]

    def eval_number(self, point, bindings: Mapping[str, float] | None = None):
        """Value at one point of shape (d,) as a float, or at a batch (N, d) as an (N,) array.

        A batch evaluates the AST once, on arrays of coordinate values.
        """
        d = len(self.coords)
        values = _coordinates(point, d)
        result = _evaluate(self.ast, [values[..., i] for i in range(d)], bindings or {})
        if values.ndim == 1:
            return float(result)
        return np.full(values.shape[:-1], result, dtype=float)

    def eval_jet(self, point, bindings: Mapping[str, float] | None = None) -> Jet2:
        """Jet at one point (d,), at a batch of points (N, d), or at given coordinate jets.

        A batch evaluates the AST once, with every jet array carrying a
        leading sample axis of length N.  `point` may also be the tuple of
        the d coordinate jets themselves, as `eval_jets` passes it, so that
        several expressions share one set of seeds.
        """
        d = len(self.coords)
        if isinstance(point, tuple) and point and isinstance(point[0], Jet2):
            seeds = point
        else:
            seeds = _coordinate_jets(point, d)
        result = _evaluate(self.ast, seeds, bindings or {})
        if not isinstance(result, Jet2):
            result = Jet2.constant(result, d, seeds[0].value.shape)
        return result

    def referenced_constants(self) -> frozenset[str]:
        return frozenset(node.name for node in _nodes(self.ast) if isinstance(node, Const))

    def unparse(self) -> str:
        return _unparse(self.ast, self.coords, 0)

    def __str__(self) -> str:
        return self.unparse()


def eval_jets(
    expressions: Sequence[Expression], point, bindings: Mapping[str, float] | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Values [..., m], gradients [..., m, i] and Hessians [..., m, i, j] of several expressions.

    `point` is one chart point (d,) or a batch (N, d), and the expressions
    belong to one chart.  They share one set of coordinate seeds, each
    distinct AST is evaluated once, and a coordinate-free AST is folded to
    its number by the same arithmetic, so every value equals that of
    `Expression.eval_jet`.  The expressions are evaluated in order: an error
    comes from the first offending one.
    """
    d = len(expressions[0].coords)
    seeds = _coordinate_jets(point, d)
    b = bindings or {}
    results: dict[Node, Jet2 | float] = {}
    positions: dict[Node, list[int]] = {}
    for m, e in enumerate(expressions):
        if e.ast not in results:
            coordinate_free = not any(isinstance(node, Coord) for node in _nodes(e.ast))
            results[e.ast] = _evaluate(e.ast, seeds, b) if coordinate_free else e.eval_jet(seeds, b)
        positions.setdefault(e.ast, []).append(m)
    shape = seeds[0].value.shape + (len(expressions),)
    value = np.empty(shape)
    grad = np.zeros(shape + (d,))
    hess = np.zeros(shape + (d, d))
    for ast, result in results.items():
        where = positions[ast]
        if isinstance(result, Jet2):
            value[..., where] = result.value[..., None]
            grad[..., where, :] = result.grad[..., None, :]
            hess[..., where, :, :] = result.hess[..., None, :, :]
        else:
            value[..., where] = result
    return value, grad, hess


def parse(source: str, coords: Iterable[str], constants: Iterable[str] = ()) -> Expression:
    """Parse expression source against the given coordinate and constant names."""
    coords = tuple(coords)
    if len(set(coords)) != len(coords):
        raise ValueError("coordinate names must be distinct")
    constant_names = tuple(sorted(set(constants)))
    parser = _Parser(_tokenize(source), coords, frozenset(constant_names))
    return Expression(parser.parse(), coords, constant_names)


def multiply(a: Expression, b: Expression) -> Expression:
    """Product of two expressions over the same chart."""
    if a.coords != b.coords:
        raise ValueError("expressions belong to different charts")
    constants = tuple(sorted(set(a.constants) | set(b.constants)))
    return Expression(BinOp("*", a.ast, b.ast), a.coords, constants)
