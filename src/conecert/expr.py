"""Scalar expressions in x(1)..x(d) with exact value/gradient/Hessian evaluation.

The grammar (documented in docs/grammar.md) covers constants, variables
``x(i)``, the binary operators ``+ - * /``, integer powers ``^``, unary
minus, and the functions ``sin cos exp abs sqrt``.

Expressions have one evaluator, ``jets_at``, over a stack of points held
as the columns of an array (``eval_jets``; a point is a stack of no axes,
``eval2``).  It gives the values, each undefined one with its reason, and
the gradients and Hessians in x(1..d) by second-order forward mode, exact
up to rounding, the Hessians only when asked for (order 2).  A subtree
that does not depend on x(1..d), such as abs(0.0) or a term in a
semi-infinite index t in row d+1, carries no derivative, so no
derivative rule runs on it, and one affine in x(1..d) carries no Hessian,
so a linear scenario never allocates a d x d array (``jets``; Griewank and
Walther, *Evaluating Derivatives*, on sparsity in forward mode).

Many texts that differ only in their decimal literals, as the scenarios of
a discretised Chebyshev fit do, are parsed together (``parse_families``):
each shape of two or more texts is parsed once into a ``Family``, whose
template holds every member's literals as arrays, and a text of a shape
of its own is parsed into its tree.  The template evaluates all members
at once, and a member's own tree is built on request.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Expression", "Const", "Var", "Neg", "Add", "Sub", "Mul", "Div", "Pow", "Func",
    "Dual2", "ExprError", "ExprSyntaxError", "UnknownIdentifier",
    "VariableIndexOutOfRange", "DomainError",
    "Column", "Family", "family", "parse", "parse_families", "skeletons",
    "to_string",
    "eval2", "eval_value", "eval_values", "eval_reasons", "raise_undefined",
    "eval_jets", "jets", "substitute",
]


class ExprError(Exception):
    """Base class for expression parsing and evaluation errors."""


class ExprSyntaxError(ExprError):
    """Malformed input text.  ``offset`` is a 1-based character position;
    end-of-input reports ``len(text) + 1``."""

    def __init__(self, offset: int, expected: str):
        self.offset = offset
        self.expected = expected
        super().__init__(f"syntax error at offset {offset}: expected {expected}")


class UnknownIdentifier(ExprError):
    def __init__(self, name: str, offset: int):
        self.name = name
        self.offset = offset
        super().__init__(f"unknown identifier '{name}' at offset {offset}")


class VariableIndexOutOfRange(ExprError):
    def __init__(self, index: int, dim: int, offset: int):
        self.index = index
        self.dim = dim
        self.offset = offset
        super().__init__(
            f"variable index {index} at offset {offset} outside 1..{dim}")


class DomainError(ExprError):
    """Evaluation left the domain of an operation (division by zero,
    sqrt of a nonpositive number, abs differentiated at its kink, a power
    beyond the floating-point range, ...)."""


# why a value is undefined: a reason code indexes its DomainError message,
# and 0 means the value is defined
_REASONS = ("", "division by zero", "zero raised to a negative power",
            "power outside the floating-point range",
            "sqrt of a negative number",
            "sqrt requires a strictly positive argument for differentiation",
            "abs has no derivative at 0")
(_DIV_ZERO, _ZERO_POW, _POW_RANGE, _SQRT_NEG, _SQRT_DIFF,
 _ABS_KINK) = map(np.int8, range(1, 7))


def _first(a, b):
    """Per column, reason a where there is one, else reason b; either is
    returned as it is when the other has none (None or no nonzero)."""
    if b is None or not np.count_nonzero(b):
        return a
    return b if a is None or not np.count_nonzero(a) else np.where(a, a, b)


# ---------------------------------------------------------------------------
# nodes
# ---------------------------------------------------------------------------

# printing precedence, loosest first; a child printed below the level its
# parent requires gets parentheses
_LVL_ADD, _LVL_MUL, _LVL_UNARY, _LVL_POW, _LVL_ATOM = 1, 2, 3, 4, 5


@dataclass
class Dual2:
    """Value, gradient and Hessian at one point, as ``eval2`` gives them."""

    value: float
    grad: np.ndarray
    hess: np.ndarray


def _each(f, k):
    """f with k unit axes appended: numbers per point, shaped to scale a
    gradient (k = 1) or a Hessian (k = 2), whose axes come last, or a
    template's column laid across the k axes of the points."""
    return f.reshape(f.shape + (1,) * k) if f.ndim else f


def _sym(g, h):
    """g h' + h g' at each point: a matrix plus its transpose, so that it
    is bitwise symmetric."""
    cross = g[..., :, None] * h[..., None, :]
    return cross + cross.swapaxes(-1, -2)


def _plus(*terms):
    """The sum, left to right, of the terms that are not None (a Hessian
    that is 0); None when every term is."""
    total = None
    for term in terms:
        if term is not None:
            total = term if total is None else total + term
    return total


def _times(f, H):
    """f H at each point; None where H is None."""
    return None if H is None else _each(f, 2) * H


def _compose(f1, f2, g, H, order):
    """The gradient and, at order 2, the Hessian of f(u) from f'(u),
    f''(u) and u's own."""
    grad = _each(f1, 1) * g
    if order < 2:
        return grad, None
    outer = g[..., :, None] * g[..., None, :]
    return grad, _plus(_times(f1, H), _each(f2, 2) * outer)


class Expression:
    """A node of an expression tree.  Every kind implements ``text()``
    (printed at precedence ``level``), ``jets_at(X, d, order)`` and
    ``map_nodes(fn)`` (the tree rebuilt bottom-up with ``fn`` applied to
    every node).  ``jets_at`` gives (values, reasons, grad, hess) at
    the columns of X: a reason code per column, 0 where defined, else the
    index in ``_REASONS`` of its DomainError (None: no reason); and the
    derivatives in x(1..d) on the last axes, the Hessians at order 2
    only.  A derivative that is 0 by the node's form is None: the
    gradient where the node does not depend on x(1..d), the Hessian where
    it is affine in them (a ``Var``, and sums, negations, quotients by
    and products with a factor free of x(1..d) of such nodes).  Where the
    node depends on x(1..d), the reasons cover the derivative too (abs at
    0, sqrt at 0), a quotient's numerator first."""

    __slots__ = ()
    level = _LVL_ATOM

    def __str__(self) -> str:
        return self.text()

    def map_nodes(self, fn) -> "Expression":
        return fn(self)   # a leaf; inner nodes rebuild their children first

    def member(self, k) -> "Expression":
        """The node in member k of a family, once its children are (only a
        ``Column`` leaf differs between members)."""
        return self


def _paren(child: Expression, minimum: int) -> str:
    s = child.text()
    return f"({s})" if child.level < minimum else s


@dataclass(frozen=True)
class Const(Expression):
    value: float

    @property
    def level(self) -> int:
        return _LVL_UNARY if self.value < 0 else _LVL_ATOM

    def text(self) -> str:
        return repr(self.value)

    def jets_at(self, X, d, order):
        return np.full(X.shape[1:], self.value, dtype=float), None, None, None


@dataclass(frozen=True)
class Var(Expression):
    index: int  # 1-based

    def text(self) -> str:
        return f"x({self.index})"

    def jets_at(self, X, d, order):
        if self.index > d:
            return X[self.index - 1], None, None, None
        grad = np.zeros(X.shape[1:] + (d,))
        grad[..., self.index - 1] = 1.0
        return X[self.index - 1], None, grad, None


@dataclass(frozen=True, eq=False)
class Column(Expression):
    """A literal of a family template (see ``Family``): ``value[k]`` is its
    value in member k.  It evaluates stacked over the members, on axis 0,
    and becomes ``Const(value[k])`` in the tree of member k."""

    value: np.ndarray

    def jets_at(self, X, d, order):
        return _each(self.value, X.ndim - 1), None, None, None

    def member(self, k) -> Expression:
        return Const(float(self.value[k]))


class _Unary(Expression):
    """A node of one operand, ``operand``; each subclass prints itself
    around its operand's text (``wrap``), differentiates itself from its
    operand's jets (``apply``) and is rebuilt over a new operand
    (``over``)."""

    # A chain of unary nodes (2,000 powers ^1, 960 minus signs) is deeper
    # than the interpreter's recursion limit; each method below walks the
    # chain by a loop, from its innermost node out, and recurses into the
    # operand below the chain alone.
    def chain(self) -> tuple:
        """This node and its operands while they are unary nodes,
        outermost first, and the operand below them."""
        chain, node = [self], self.operand
        while isinstance(node, _Unary):
            chain.append(node)
            node = node.operand
        return chain, node

    def text(self) -> str:
        chain, node = self.chain()
        text, level = node.text(), node.level
        for node in reversed(chain):
            text, level = node.wrap(text, level), node.level
        return text

    def jets_at(self, X, d, order):
        chain, node = self.chain()
        jets = node.jets_at(X, d, order)
        for node in reversed(chain):
            jets = node.apply(jets, order)
        return jets

    def map_nodes(self, fn) -> Expression:
        chain, node = self.chain()
        node = node.map_nodes(fn)
        for old in reversed(chain):
            node = fn(old.over(node))
        return node


@dataclass(frozen=True)
class Neg(_Unary):
    arg: Expression
    level = _LVL_UNARY

    @property
    def operand(self) -> Expression:
        return self.arg

    def over(self, operand) -> Expression:
        return Neg(operand)

    def wrap(self, text, level) -> str:
        return "-" + (f"({text})" if level < _LVL_UNARY else text)

    def apply(self, jets, order):
        v, bad, g, H = jets
        return (-v, bad, None if g is None else -g,
                None if H is None else -H)


@dataclass(frozen=True)
class _Binary(Expression):
    """``lhs op rhs``; each subclass names its operator ``op`` on values,
    its printed separator and its level, and ``rule`` differentiates it
    where an operand has a derivative (None where the other has none)."""

    lhs: Expression
    rhs: Expression

    # A long sum or product parses into a deep left spine of binary nodes,
    # deeper than the interpreter's recursion limit; each method below
    # walks the spine by a loop, from its innermost node out, and recurses
    # into the right operands alone.
    def spine(self) -> list:
        """This node and its left operands while they are binary nodes,
        outermost first."""
        spine, node = [self], self.lhs
        while isinstance(node, _Binary):
            spine.append(node)
            node = node.lhs
        return spine

    def text(self) -> str:
        spine = self.spine()
        parts = [spine[-1].lhs.text()]
        for node in reversed(spine):
            if node.lhs.level < node.level:
                parts = ["(", *parts, ")"]
            parts += [node.sep, _paren(node.rhs, node.level + 1)]
        return "".join(parts)

    def jets_at(self, X, d, order):
        if not isinstance(self.lhs, _Binary):   # most nodes: no walk
            return self.combine(self.lhs.jets_at(X, d, order),
                                self.rhs.jets_at(X, d, order), order)
        spine = self.spine()
        jets = spine[-1].lhs.jets_at(X, d, order)
        for node in reversed(spine):
            jets = node.combine(jets, node.rhs.jets_at(X, d, order), order)
        return jets

    def combine(self, lhs, rhs, order):
        """The node's jets from its operands' (``jets_at``)."""
        (a, lbad, ga, Ha), (b, rbad, gb, Hb) = lhs, rhs
        if ga is None and gb is None:
            return self.op(a, b), _first(lbad, rbad), None, None
        return (self.op(a, b), _first(lbad, rbad),
                *self.rule(a, ga, Ha, b, gb, Hb, order))

    def rule(self, a, ga, Ha, b, gb, Hb, order):   # a sum's or a difference's
        return self.apply_op(ga, gb), self.apply_op(Ha, Hb)

    def apply_op(self, u, v):
        """u op v, where None is 0."""
        if v is None:
            return u
        return self.op(0.0 if u is None else u, v)

    def map_nodes(self, fn) -> Expression:
        spine = self.spine()
        node = spine[-1].lhs.map_nodes(fn)
        for old in reversed(spine):
            node = fn(type(old)(node, old.rhs.map_nodes(fn)))
        return node


@dataclass(frozen=True)
class Add(_Binary):
    op, sep, level = operator.add, " + ", _LVL_ADD


@dataclass(frozen=True)
class Sub(_Binary):
    op, sep, level = operator.sub, " - ", _LVL_ADD


@dataclass(frozen=True)
class Mul(_Binary):
    op, sep, level = operator.mul, "*", _LVL_MUL

    def rule(self, a, ga, Ha, b, gb, Hb, order):
        if gb is None:
            return _each(b, 1) * ga, _times(b, Ha)
        if ga is None:
            return _each(a, 1) * gb, _times(a, Hb)
        grad = _each(b, 1) * ga + _each(a, 1) * gb
        if order < 2:
            return grad, None
        return grad, _plus(_times(b, Ha), _times(a, Hb), _sym(ga, gb))


@dataclass(frozen=True)
class Div(_Binary):
    op, sep, level = operator.truediv, "/", _LVL_MUL

    def combine(self, lhs, rhs, order):
        (num, lbad, ga, Ha), (den, rbad, gb, Hb) = lhs, rhs
        value, own = num / den, (den == 0.0) * _DIV_ZERO
        if ga is None and gb is None:
            return value, _first(rbad, _first(own, lbad)), None, None
        hess = None
        if gb is None:
            grad = ga / _each(den, 1)
            if Ha is not None:
                hess = Ha / _each(den, 2)
        else:
            grad = ((0.0 if ga is None else ga)
                    - _each(value, 1) * gb) / _each(den, 1)
            if order == 2:
                hess = (0.0 if Ha is None else Ha) - _sym(grad, gb)
                if Hb is not None:
                    hess = hess - _each(value, 2) * Hb
                hess = hess / _each(den, 2)
        return value, _first(lbad, _first(rbad, own)), grad, hess


def _power_rule(v, n, slopes):
    """v^n, with n v^(n-1) and n(n-1) v^(n-2) where ``slopes``, and the
    reason code at the float v: zero to a negative power, or one of them
    out of the floating-point range at a finite v."""
    try:
        rule = (v ** n, n * v ** (n - 1) if slopes else 0.0,
                n * (n - 1) * v ** (n - 2) if slopes else 0.0)
    except ZeroDivisionError:
        return math.nan, math.nan, math.nan, _ZERO_POW
    except OverflowError:
        return math.nan, math.nan, math.nan, _POW_RANGE
    finite = not math.isfinite(v) or all(map(math.isfinite, rule))
    return (*rule, 0 if finite else _POW_RANGE)


def _powers(base, n, slopes):
    """``_power_rule`` at every element of base, as arrays of its shape
    (codes None where all are 0).  Python's float power, not numpy's,
    which rounds differently from the C library's pow that ``**`` calls."""
    flat = base.ravel().tolist()
    if not slopes:
        try:
            return (np.array([v ** n for v in flat]).reshape(base.shape),
                    None, None, None)
        except (OverflowError, ZeroDivisionError):
            pass
    rules = [_power_rule(v, n, slopes) for v in flat]
    value, f1, f2, own = np.array(rules).T.reshape(4, *base.shape)
    codes = any(rule[3] for rule in rules)
    return value, f1, f2, own.astype(np.int8) if codes else None


@dataclass(frozen=True)
class Pow(_Unary):
    base: Expression
    exponent: int
    level = _LVL_POW

    @property
    def operand(self) -> Expression:
        return self.base

    def over(self, operand) -> Expression:
        return Pow(operand, self.exponent)

    def wrap(self, text, level) -> str:
        # powers chain left to right, as they parse: a power's base that
        # is a power needs no parentheses
        return (f"({text})" if level < _LVL_POW else text) \
            + f"^{self.exponent}"

    def apply(self, jets, order):
        base, bad, g, H = jets
        n = self.exponent
        slopes = g is not None and n not in (0, 1)
        value, f1, f2, own = _powers(base, n, slopes)
        if slopes:
            g, H = _compose(f1, f2, g, H, order)
        elif g is not None and n == 0:
            g, H = np.zeros_like(g), None
        return value, _first(bad, own), g, H


# name -> (f over an array of values v, returning f(v) and the reason codes
# where f is undefined; the slopes f'(v) and f''(v) given v and f(v), with
# the reason codes where f has no derivative, which cover those where it is
# undefined).  Abs at 0 and sqrt(0) have values; they lack derivatives.
_FUNCS = {
    "sin": (lambda v: (np.sin(v), None), lambda v, f: (np.cos(v), -f, None)),
    "cos": (lambda v: (np.cos(v), None), lambda v, f: (-np.sin(v), -f, None)),
    "exp": (lambda v: (np.exp(v), None), lambda v, f: (f, f, None)),
    "abs": (lambda v: (np.abs(v), None),
            lambda v, f: (np.where(v > 0.0, 1.0, -1.0), np.zeros_like(f),
                          (v == 0.0) * _ABS_KINK)),
    "sqrt": (lambda v: (np.sqrt(v), (v < 0.0) * _SQRT_NEG),
             lambda v, f: (0.5 / f, -0.25 / (f * v), (v <= 0.0) * _SQRT_DIFF)),
}
FUNCTIONS = tuple(_FUNCS)


@dataclass(frozen=True)
class Func(_Unary):
    name: str
    arg: Expression

    @property
    def operand(self) -> Expression:
        return self.arg

    def over(self, operand) -> Expression:
        return Func(self.name, operand)

    def wrap(self, text, level) -> str:
        return f"{self.name}({text})"

    def apply(self, jets, order):
        v, bad, g, H = jets
        values, slopes = _FUNCS[self.name]
        value, own = values(v)
        if g is not None:
            f1, f2, own = slopes(v, value)
            g, H = _compose(f1, f2, g, H, order)
        return value, _first(bad, own), g, H


# ---------------------------------------------------------------------------
# tokenizer / parser
# ---------------------------------------------------------------------------

# Each match is leading whitespace, then one token: a number, a run of word
# characters, an operator or any other character.  Digits are ASCII only.
# An identifier is a word run that starts with a letter or '_'; a run that
# starts with any other word character, and any other character, is a
# syntax error at its offset.
_TOKEN = re.compile(r"""(\s*)(?:
    ((?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)
  | (\w+)
  | ([-+*/^()])
  | (\S))""", re.VERBOSE)


def _tokenize(text: str):
    """Return (kind, value, offset) tuples with 1-based offsets; an
    operator's kind is the operator itself."""
    tokens, offset = [], 1
    # the matches tile the text up to trailing whitespace, so offsets add up
    for space, num, ident, op, bad in _TOKEN.findall(text):
        offset += len(space)
        if bad or (ident and not (ident[0].isalpha() or ident[0] == "_")):
            raise ExprSyntaxError(offset, "a number, identifier, or operator")
        value = num or ident or op
        tokens.append(("num" if num else "ident" if ident else op, value, offset))
        offset += len(value)
    tokens.append(("end", "", len(text) + 1))
    return tokens


def _integer(tok, what: str) -> int:
    """The value of a digits-only number token; a token longer than the
    interpreter converts to an integer is a syntax error at its offset."""
    try:
        return int(tok[1])
    except ValueError:
        raise ExprSyntaxError(tok[2], f"{what} of fewer digits") from None


# the longest run of unary minus signs read; a longer one is the input
# error "expression nested too deeply", as nesting past the parser's
# recursion is
MAX_SIGNS = 1000


class _Parser:
    def __init__(self, tokens, dim: int, params, literals=()):
        self.tokens = tokens
        self.pos = 0
        self.dim = dim
        # extra parameter names (e.g. "t") map to indices dim+1, dim+2, ...
        self.params = {name: dim + 1 + k for k, name in enumerate(params)}
        # the leaf of each free literal of a skeleton ("lit" tokens)
        self.literals = literals

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, what):
        tok = self.take()
        if tok[0] != kind:
            raise ExprSyntaxError(tok[2], what)
        return tok

    def parse_expr(self) -> Expression:
        node = self.parse_term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            rhs = self.parse_term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def parse_term(self) -> Expression:
        node = self.parse_unary()
        while self.peek()[0] in ("*", "/"):
            op = self.take()[0]
            rhs = self.parse_unary()
            node = Mul(node, rhs) if op == "*" else Div(node, rhs)
        return node

    def parse_unary(self) -> Expression:
        # a run of minus signs is read by a loop and bounded by its length,
        # not by how deep the interpreter's stack already is
        signs = 0
        while self.peek()[0] == "-":
            self.take()
            signs += 1
        if signs > MAX_SIGNS:
            raise ExprError("expression nested too deeply")
        node = self.parse_power()
        for _ in range(signs):
            node = (type(node)(-node.value)
                    if isinstance(node, (Const, Column)) else Neg(node))
        return node

    def parse_power(self) -> Expression:
        node = self.parse_atom()
        while self.peek()[0] == "^":
            self.take()
            node = Pow(node, self.parse_int_exponent())
        return node

    def parse_int_exponent(self) -> int:
        sign = 1
        if self.peek()[0] == "-":
            self.take()
            sign = -1
        tok = self.take()
        if tok[0] != "num" or any(ch in tok[1] for ch in ".eE"):
            raise ExprSyntaxError(tok[2], "an integer exponent")
        return sign * _integer(tok, "an integer exponent")

    def parse_atom(self) -> Expression:
        tok = self.take()
        kind, value, offset = tok
        if kind == "num":
            return Const(float(value))
        if kind == "lit":
            return self.literals[value]
        if kind == "(":
            node = self.parse_expr()
            self.expect(")", "')'")
            return node
        if kind == "ident":
            if value == "x":
                self.expect("(", "'(' after 'x'")
                idx_tok = self.take()
                if idx_tok[0] != "num" or not idx_tok[1].isdigit():
                    raise ExprSyntaxError(idx_tok[2], "a variable index")
                index = _integer(idx_tok, "a variable index")
                self.expect(")", "')'")
                if not 1 <= index <= self.dim:
                    raise VariableIndexOutOfRange(index, self.dim, offset)
                return Var(index)
            if value in self.params:
                return Var(self.params[value])
            if value in FUNCTIONS:
                self.expect("(", f"'(' after '{value}'")
                arg = self.parse_expr()
                self.expect(")", "')'")
                return Func(value, arg)
            raise UnknownIdentifier(value, offset)
        raise ExprSyntaxError(offset, "a number, variable, or '('")


def _parse_tokens(tokens, d, params, literals=()) -> Expression:
    parser = _Parser(tokens, d, params, literals)
    try:
        node = parser.parse_expr()
    except RecursionError:   # parentheses or signs nested past the limit
        raise ExprError("expression nested too deeply") from None
    tok = parser.peek()
    if tok[0] != "end":
        raise ExprSyntaxError(tok[2], "end of input")
    return node


def parse(text: str, d: int, params: tuple[str, ...] = ()) -> Expression:
    """Parse ``text`` over variables x(1)..x(d).

    ``params`` adds named scalar parameters (used for the semi-infinite
    index ``t``) mapped to variable indices d+1, d+2, ...
    """
    if not text or text.isspace():
        raise ExprSyntaxError(1, "a non-empty expression")
    return _parse_tokens(_tokenize(text), d, params)


# A free literal: a number token with a '.' or an exponent, which can never
# be an integer exponent or a variable index, so a text's shape does not
# depend on it.  The look-behind admits only token starts (digits inside an
# identifier stay in the shape); it follows the literal's first character,
# which it reads again, so the search skips to a digit or '.' before it
# tests anything.  A number token right after a word character or '.'
# follows another token with no operator between them, a syntax error; its
# skeleton fails too, and its texts go to ``parse``.
_EXPONENT = r"(?:[eE][+-]?[0-9]+)"
# The leading digits are read once, ahead of the choice between a '.' and
# an exponent, so a digit run is not scanned again for the second.
_FREE_LITERAL = re.compile(
    r"([0-9](?<![\w.][0-9])[0-9]*(?:\.[0-9]*" + _EXPONENT + r"?|"
    + _EXPONENT + r")|\.(?<![\w.]\.)[0-9]+" + _EXPONENT + r"?)")


@dataclass(frozen=True, eq=False)
class Family:
    """Parsed texts of one shape.  ``template`` is their common tree, in
    which each free literal is a ``Column`` holding its value in every
    member, in the order of ``members``, the members' positions in the
    parsed list, increasing.  ``eval_values(template, X)`` evaluates every
    member at once, one row per member (a template without a ``Column``
    gives one row, the same for all)."""

    template: Expression
    members: np.ndarray

    def tree(self, k: int) -> Expression:
        """The tree of member k, equal to ``parse`` of its text."""
        return self.template.map_nodes(lambda node: node.member(k))

    def stacked(self, ks) -> Expression:
        """The template of the members at the positions ``ks`` (an array of
        them or a slice) alone: each ``Column`` cut to their rows, in
        order."""
        return self.template.map_nodes(
            lambda node: Column(node.value[ks]) if isinstance(node, Column)
            else node)


# A template slot: a free literal with a leading digit and a '.' (0.25, 5.,
# 1.5e-3: every literal that repr writes but a one-digit mantissa with an
# exponent, 1e-05), that no digit, '.', 'e' or 'E' follows.  Other
# literals ('.5', '1e5') miss, and their text is split.
_SLOT = r"([0-9]+\.[0-9]*" + _EXPONENT + r"?)(?![0-9.eE])"


def _template(pieces, last=_SLOT):
    """The ``fullmatch`` of the template of skeleton ``pieces`` (at least
    two), or None; ``last`` is the pattern of its last slot, which what
    follows holds for when it is ``_SLOT``.

    A text it matches splits into ``pieces`` and its groups, as the texts
    that made the skeleton did.  The split scans from the end of one
    literal to the start of the next:
    - no literal starts inside a piece.  The look-behind reads the
      character before a match: inside the piece that is the same as in
      those texts, and at the piece's start it is the end of a literal, a
      digit or '.', so it fails.  A match ending inside the piece would
      have split those texts there too, so it would have to run on into
      the slot, holding the piece's last character.  That character is
      not a word character or '.' (the look-behind held at the slot), so
      the piece would end in 'e' or 'E' and a sign, and such skeletons
      get no template;
    - at a slot the look-behind holds, since the piece before it is the
      one the split left there, and the split takes the longest literal.
      That is the group: a longer one would go on with a digit, '.', 'e'
      or 'E'.
    A text that splits into ``pieces`` misses the template when a slot
    holds another form of literal."""
    if any(piece[-2:-1] in ("e", "E") and piece[-1:] in ("+", "-")
           for piece in pieces[:-1]):
        return None
    *head, tail = map(re.escape, pieces)
    return re.compile(_SLOT.join(head) + last + tail).fullmatch


def skeletons(texts) -> dict:
    """Each text's skeleton mapped to its members' positions and their
    literals, strings, member after member, by one split per text."""
    shapes = {}
    for i, text in enumerate(texts):
        parts = _FREE_LITERAL.split(text)
        members, literals = shapes.setdefault(tuple(parts[::2]), ([], []))
        members.append(i)
        literals += parts[1::2]
    return shapes


def family(pieces, members, literals, d: int, params: tuple[str, ...] = ()):
    """The ``Family`` of the texts ``members`` of the skeleton ``pieces``
    (the text around their free literals; ``literals``, strings, member
    after member), or None when the skeleton does not parse.  It is parsed
    once, with the literals as ``Column`` leaves; unary minus negates a
    whole column as it negates one literal, so every member's tree equals
    its own parse.  The literals are converted by one ``map(float, ...)``,
    so each value has the bits its own parse gives it."""
    columns = np.fromiter(map(float, literals), float, len(literals))
    columns = columns.reshape(len(members), len(pieces) - 1)
    try:
        # each piece's end token gives way to the next literal
        tokens = _tokenize(pieces[0])
        for slot, piece in enumerate(pieces[1:]):
            tokens[-1:] = [("lit", slot, 0)] + _tokenize(piece)
        template = _parse_tokens(tokens, d, params,
                                 [Column(c) for c in columns.T])
    except ExprError:
        return None
    return Family(template, np.array(members))


def parse_families(shapes, d: int, params: tuple[str, ...] = ()) -> tuple:
    """Parse texts grouped by skeleton, as ``parse`` parses each, into
    (trees, families).  ``shapes`` maps each skeleton, the text around a
    text's free literals, to its texts' positions and their literals
    (``skeletons``; a problem file's reader groups its [scenario] lines
    itself, matching most lines once).  A skeleton of two or more members
    that parses is one ``family``; ``families`` come in the order of their
    first members.  Every other text, a skeleton of its own or one that
    does not parse, is parsed alone, its pieces around its literals, and
    ``trees`` holds its tree at its position (None at a family member's),
    so that the first that does not parse raises its own error."""
    trees = [None] * sum(len(members) for members, _ in shapes.values())
    families = []
    for pieces, (members, literals) in shapes.items():
        if len(members) > 1:
            fam = family(pieces, members, literals, d, params)
            if fam is not None:
                families.append(fam)
                continue
        k = len(pieces) - 1
        for j, i in enumerate(members):
            trees[i] = parse("".join(map(str.__add__, pieces, [
                *literals[j * k:j * k + k], ""])), d, params)
    return trees, families


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def to_string(e: Expression) -> str:
    """Render so that ``parse(to_string(e), d)`` is structurally identical."""
    return e.text()


def jets(e: Expression, X, d: int, order: int = 2):
    """``e.jets_at(X, d, order)`` with a reason code for every column: the
    values, reason codes and derivatives in x(1..d) of ``e`` at the
    columns of X, each derivative None where it is 0 by the form of
    ``e`` (``Expression``) and the Hessians None below order 2.  A family
    template's derivatives broadcast against its values."""
    X = np.ascontiguousarray(X, dtype=float)
    with np.errstate(all="ignore"):   # an undefined value is a reason code
        vals, reasons, grad, hess = e.jets_at(X, d, order)
    if reasons is None:
        reasons = np.zeros(X.shape[1:], np.int8)
    return vals, reasons, grad, hess


def eval_jets(e: Expression, X, d: int):
    """Values, reason codes (``Expression``) and derivatives in x(1..d) of
    ``e`` at the columns of X: ``grad[k]``, ``hess[k]`` at column k, a
    derivative that is 0 as an array of zeros.  Rows past d, such as a
    semi-infinite index, are not differentiated; a family template's
    derivatives broadcast against its values."""
    vals, reasons, grad, hess = jets(e, X, d)
    if grad is None:
        grad = np.zeros(vals.shape + (d,))
    if hess is None:
        hess = np.zeros(grad.shape + (d,))
    return vals, reasons, grad, hess


def eval2(e: Expression, x) -> Dual2:
    """Value, gradient and Hessian of ``e`` at the point ``x`` (a stack of
    no axes); where one of them is undefined, its DomainError."""
    vals, reasons, grad, hess = eval_jets(e, x, len(x))
    raise_undefined(reasons)
    return Dual2(float(vals), grad, hess)


def eval_reasons(e: Expression, X) -> tuple[np.ndarray, np.ndarray]:
    """``eval_jets`` without derivatives: the values and reason codes."""
    return jets(e, X, 0)[:2]


def raise_undefined(reasons):
    """Raise the DomainError of the first nonzero code of ``reasons`` (a
    code or an array of codes, read in C order), if there is one."""
    if np.count_nonzero(reasons):
        reasons = np.ravel(reasons)
        raise DomainError(_REASONS[reasons[np.flatnonzero(reasons)[0]]])


def eval_value(e: Expression, x) -> float:
    """The value of ``e`` at the point x, a stack of no axes (each
    variable a number); an undefined value raises its DomainError."""
    vals, reasons = eval_reasons(e, x)
    raise_undefined(reasons)
    return float(vals)


def eval_values(e: Expression, X) -> tuple[np.ndarray, np.ndarray]:
    """The values of ``e`` at every column of X (one row per variable) and
    a flag per column that is set where ``eval_value`` would raise a
    DomainError (the value there is meaningless)."""
    vals, reasons = eval_reasons(e, X)
    return vals, reasons != 0


def substitute(e: Expression, index: int, value: float) -> Expression:
    """Replace x(index) by the constant ``value`` (used to pin the
    semi-infinite parameter to a grid point)."""
    var = Var(index)
    return e.map_nodes(lambda node: Const(value) if node == var else node)

