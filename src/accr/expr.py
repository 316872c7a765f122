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

import math
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

    def __init__(self, value: float):
        object.__setattr__(self, "value", value)


class Coord(Value):
    __slots__ = ("index",)

    def __init__(self, index: int):
        object.__setattr__(self, "index", index)


class Const(Value):
    __slots__ = ("name",)

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)


class Neg(Value):
    __slots__ = ("operand",)

    def __init__(self, operand: "Node"):
        object.__setattr__(self, "operand", operand)


class BinOp(Value):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: "Node", right: "Node"):  # op is one of + - * / ^
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class Call(Value):
    __slots__ = ("func", "arg")

    def __init__(self, func: str, arg: "Node"):
        object.__setattr__(self, "func", func)
        object.__setattr__(self, "arg", arg)


Node = Union[Num, Coord, Const, Neg, BinOp, Call]

# -- tokenizer ------------------------------------------------------------

_NUMBER = re.compile(r"(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_OPS = "+-*/^()"

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

    def parse(self) -> Node:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "END":
            raise ExprSyntaxError(f"unexpected token {tok.text!r}", tok.offset)
        if _depth(node) > _MAX_DEPTH:
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
    if (zero := np.asarray(right) == 0.0).any():
        raise DomainError("division by zero", zero)
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


def _evaluate_finite(expression: "Expression", coordinates, bindings: Mapping[str, float]):
    """_evaluate with numpy's overflow and invalid warnings off; a non-finite result is a DomainError.

    `coordinates` are the d coordinate values or jets.  Every DomainError,
    for a value or derivative that is not finite or for an argument outside
    the domain of the arithmetic, names the expression and the first
    offending sample.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            result = _evaluate(expression.ast, coordinates, bindings)
        except DomainError as exc:
            raise DomainError(f"{expression.unparse()}: {exc}{_at(expression, coordinates, exc.bad)}") from None
        jet = isinstance(result, Jet2)
        if jet:
            total = result.value.sum() + result.grad.sum() + result.hess.sum()
        else:
            total = result.sum() if isinstance(result, np.ndarray) else result
    if math.isfinite(total):  # an inf or NaN anywhere makes the sum non-finite
        return result
    if jet:
        finite = (np.isfinite(result.value) & np.isfinite(result.grad).all(axis=-1)
                  & np.isfinite(result.hess).all(axis=(-2, -1)))
    else:
        finite = np.isfinite(result)
    if finite.all():  # only the sum overflowed
        return result
    raise DomainError(f"{expression.unparse()} is not finite{_at(expression, coordinates, ~finite)}")


def _at(expression: "Expression", coordinates, bad) -> str:
    """' at sample K (x=..., ...)' for the first sample K that `bad` (None: all) marks, or ' at x=...'."""
    values = [c.value if isinstance(c, Jet2) else c for c in coordinates]
    batch = np.shape(values[0])
    k = int(np.argmax(np.broadcast_to(True if bad is None else bad, batch).ravel()))
    where = ", ".join(f"{c}={float(np.ravel(v)[k])!r}" for c, v in zip(expression.coords, values))
    return f" at sample {k} ({where})" if batch else f" at {where}"


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


def _depth(node: Node) -> int:
    """Levels of the tree under and including `node`, counted without recursion."""
    deepest, stack = 0, [(node, 1)]
    while stack:
        node, level = stack.pop()
        deepest = max(deepest, level)
        if isinstance(node, Neg):
            stack.append((node.operand, level + 1))
        elif isinstance(node, Call):
            stack.append((node.arg, level + 1))
        elif isinstance(node, BinOp):
            stack += [(node.left, level + 1), (node.right, level + 1)]
    return deepest


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


class Expression(Value):
    """A parsed expression bound to a coordinate tuple and constant names."""

    __slots__ = ("ast", "coords", "constants")

    def __init__(self, ast: Node, coords: tuple[str, ...], constants: tuple[str, ...]):
        object.__setattr__(self, "ast", ast)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "constants", constants)

    def eval_jet(self, point, bindings: Mapping[str, float] | None = None) -> Jet2:
        """Jet at one point (d,), at a batch of points (N, d), or at given coordinate jets.

        A batch evaluates the AST once, with every jet array carrying a
        leading sample axis of length N.  `point` may also be the tuple of
        the d coordinate jets themselves, as `eval_field_jets` passes it, so that
        several expressions share one set of seeds.
        """
        d = len(self.coords)
        if isinstance(point, tuple) and point and isinstance(point[0], Jet2):
            seeds = point
        else:
            seeds = _coordinate_jets(point, d)
        result = _evaluate_finite(self, seeds, bindings or {})
        if not isinstance(result, Jet2):
            result = Jet2.constant(result, d, seeds[0].value.shape)
        return result

    def referenced_constants(self) -> frozenset[str]:
        return frozenset(node.name for node in _nodes(self.ast) if isinstance(node, Const))

    def unparse(self) -> str:
        return _unparse(self.ast, self.coords, 0)

    def __str__(self) -> str:
        return self.unparse()


def _distinct(expressions: Sequence[Expression]):
    """Per distinct AST, in order of first occurrence: an expression carrying it, its positions,
    and whether it reads a coordinate (if not, it folds to its number)."""
    found: dict[Node, tuple[Expression, list[int]]] = {}
    for m, e in enumerate(expressions):
        found.setdefault(e.ast, (e, []))[1].append(m)
    return [(e, where, any(isinstance(n, Coord) for n in _nodes(e.ast))) for e, where in found.values()]


class FieldJets(NamedTuple):
    """A field's value, first and second coordinate derivatives, in the field's shape.

    The sample axis of a batch comes first, then the field's axes, and the
    derivative axes are appended last: partial[..., m] = d_m value[...],
    second[..., m, l] = d_l d_m value[...] (symmetric in m, l).
    """

    value: np.ndarray
    partial: np.ndarray
    second: np.ndarray


def _entries(fields):
    """The expressions of several fields in one list, each matrix row by row, and per field
    its (start, stop) in that list and its shape: a vector's (m,), a matrix's (m, k)."""
    expressions, spans = [], []
    for field in fields:
        vector = isinstance(field[0], Expression)
        start = len(expressions)
        expressions += field if vector else [e for row in field for e in row]
        spans.append((start, len(expressions), (len(field),) if vector else (len(field), len(field[0]))))
    return expressions, spans


def eval_field_jets(
    fields: Sequence[Sequence], point, bindings: Mapping[str, float] | None = None
) -> list[FieldJets]:
    """The jets of several fields, each a vector or a matrix of expressions, as FieldJets.

    `point` is one chart point (d,) or a batch (N, d), and the expressions
    belong to one chart.  All of them share one set of coordinate seeds,
    each distinct AST is evaluated once, even across fields, and a
    coordinate-free AST is folded to its number by the same arithmetic, so
    every value equals that of `Expression.eval_jet`.  The expressions are
    evaluated in order: an error comes from the first offending one.
    Derivative rows are allocated only for the fields with an entry that
    reads a coordinate; the partial and second derivatives of a field with
    none are read-only zeros that own no memory.
    """
    if not fields:
        return []
    expressions, spans = _entries(fields)
    d = len(expressions[0].coords)
    seeds = _coordinate_jets(point, d)
    b = bindings or {}
    lead = seeds[0].value.shape
    distinct = _distinct(expressions)
    reads = np.zeros(len(expressions), dtype=bool)  # per expression: whether its AST reads a coordinate
    for _, where, reads_coordinates in distinct:
        reads[where] = reads_coordinates
    live = [reads[a:z].any() for a, z, _ in spans]
    # each expression's row among the live fields'
    row = np.cumsum(np.repeat(live, [z - a for a, z, _ in spans])) - 1
    value = np.empty(lead + (len(expressions),))
    grad = np.zeros(lead + (row[-1] + 1, d))
    hess = np.zeros(lead + (row[-1] + 1, d, d))
    for e, where, reads_coordinates in distinct:
        if reads_coordinates:
            jet = e.eval_jet(seeds, b)
            value[..., where] = jet.value[..., None]
            grad[..., row[where], :] = jet.grad[..., None, :]
            hess[..., row[where], :, :] = jet.hess[..., None, :, :]
        else:
            value[..., where] = _evaluate_finite(e, seeds, b)
    out = []
    for (a, z, shape), field_reads in zip(spans, live):
        if field_reads:
            rows = slice(row[a], row[a] + z - a)
            partial = grad[..., rows, :].reshape(lead + shape + (d,))
            second = hess[..., rows, :, :].reshape(lead + shape + (d, d))
        else:
            partial = np.broadcast_to(0.0, lead + shape + (d,))
            second = np.broadcast_to(0.0, lead + shape + (d, d))
        out.append(FieldJets(value[..., a:z].reshape(lead + shape), partial, second))
    return out


def eval_numbers(
    fields: Sequence[Sequence], point, bindings: Mapping[str, float] | None = None
) -> list[np.ndarray]:
    """The values of several fields, each in its shape, evaluated as `eval_field_jets` evaluates them.

    Every distinct AST is evaluated once, on the coordinate columns of all the
    points, and every value equals that of its expression evaluated on its own.
    """
    if not fields:
        return []
    expressions, spans = _entries(fields)
    d = len(expressions[0].coords)
    values = _coordinates(point, d)
    columns = [values[..., i] for i in range(d)]
    b = bindings or {}
    lead = values.shape[:-1]
    out = np.empty(lead + (len(expressions),))
    for e, where, _ in _distinct(expressions):
        out[..., where] = np.asarray(_evaluate_finite(e, columns, b))[..., None]
    return [out[..., a:z].reshape(lead + shape) for a, z, shape in spans]


def parse(source: str, coords: Iterable[str], constants: Iterable[str] = ()) -> Expression:
    """Parse expression source against the given coordinate and constant names."""
    coords = tuple(coords)
    if len(set(coords)) != len(coords):
        raise ValueError("coordinate names must be distinct")
    constant_names = tuple(sorted(set(constants)))
    parser = _Parser(_tokenize(source), coords, frozenset(constant_names))
    return Expression(parser.parse(), coords, constant_names)

