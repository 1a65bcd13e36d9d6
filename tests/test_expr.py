import math
import re
import sys

import numpy as np
import pytest

from conecert import expr as ex
from conecert.oracle import fd_check
from conftest import perfbench_workloads, random_expression


def test_parse_linear_combination():
    node = ex.parse("5*x(1) + x(2)", d=2)
    assert node == ex.Add(ex.Mul(ex.Const(5.0), ex.Var(1)), ex.Var(2))


def test_parse_identity():
    assert ex.parse("x(1)", d=1) == ex.Var(1)


def test_parse_unbalanced_paren_offset():
    with pytest.raises(ex.ExprSyntaxError) as err:
        ex.parse("sin(x(3)", d=3)
    assert err.value.offset == 9
    # the message format is part of the CLI contract
    assert str(err.value) == "syntax error at offset 9: expected ')'"


def test_parse_unknown_identifier():
    with pytest.raises(ex.UnknownIdentifier):
        ex.parse("tan(x(1))", d=1)


def test_parse_variable_out_of_range():
    with pytest.raises(ex.VariableIndexOutOfRange):
        ex.parse("x(3)", d=2)


def test_parse_rejects_fractional_power():
    with pytest.raises(ex.ExprSyntaxError):
        ex.parse("x(1)^0.5", d=1)


def test_parse_empty():
    with pytest.raises(ex.ExprSyntaxError):
        ex.parse("   ", d=1)


def test_parse_extra_parameter():
    node = ex.parse("x(1)*t", d=1, params=("t",))
    assert node == ex.Mul(ex.Var(1), ex.Var(2))


def test_precedence_power_before_unary_minus():
    # -x^2 must parse as -(x^2)
    node = ex.parse("-x(1)^2", d=1)
    assert node == ex.Neg(ex.Pow(ex.Var(1), 2))
    assert ex.eval_value(node, [3.0]) == -9.0


def test_eval2_quadratic():
    node = ex.parse("x(1)^2 + x(2)^2 + x(1)*x(2) - 1", d=2)
    dual = ex.eval2(node, (0.0, 1.0))
    assert dual.value == 0.0
    np.testing.assert_allclose(dual.grad, [1.0, 2.0])
    np.testing.assert_allclose(dual.hess, [[2.0, 1.0], [1.0, 2.0]])


def test_eval2_coordinate():
    dual = ex.eval2(ex.parse("x(1)", d=2), (7.0, -1.0))
    assert dual.value == 7.0
    np.testing.assert_array_equal(dual.grad, [1.0, 0.0])
    np.testing.assert_array_equal(dual.hess, np.zeros((2, 2)))


def test_eval2_sin():
    dual = ex.eval2(ex.parse("sin(x(1))", d=2), (0.0, 1.0))
    np.testing.assert_allclose(dual.grad, [1.0, 0.0])


def test_domain_errors():
    with pytest.raises(ex.DomainError):
        ex.eval2(ex.parse("1/x(1)", d=1), (0.0,))
    with pytest.raises(ex.DomainError):
        ex.eval2(ex.parse("sqrt(x(1))", d=1), (-1.0,))
    with pytest.raises(ex.DomainError):
        ex.eval2(ex.parse("abs(x(1))", d=1), (0.0,))
    # value-only evaluation tolerates the abs kink
    assert ex.eval_value(ex.parse("abs(x(1))", d=1), (0.0,)) == 0.0


@pytest.mark.parametrize("text,point,message", [
    ("abs(x(1))", 0.0, "abs has no derivative at 0"),
    ("sqrt(x(1))", 0.0,
     "sqrt requires a strictly positive argument for differentiation"),
    ("sqrt(x(1))", -1.0,
     "sqrt requires a strictly positive argument for differentiation"),
    # a constant subtree is not differentiated: its value's reason
    ("x(1) + sqrt(-1.0)", 0.0, "sqrt of a negative number"),
    # 10^308 is a float, its slope 308*10^307 is not
    ("x(1)^308", 10.0, "power outside the floating-point range"),
])
def test_derivative_domain_errors_keep_their_messages(text, point, message):
    with pytest.raises(ex.DomainError) as err:
        ex.eval2(ex.parse(text, d=1), (point,))
    assert str(err.value) == message
    assert _outcome(_ref_eval2, ex.parse(text, d=1), (point,))[2] == message


@pytest.mark.parametrize("text,point,grad", [
    ("x(1) + abs(0.0)", 0.0, 1.0), ("x(1)*sqrt(0.0)", 2.0, 0.0),
    ("abs(0.0)*x(1)^2 - sqrt(0.0)/x(1)", 3.0, 0.0),
])
def test_constant_subtrees_carry_no_derivative(text, point, grad):
    """abs(0.0) and sqrt(0.0) have values but no derivatives; as subtrees
    without x they are not differentiated, so the rest is."""
    dual = ex.eval2(ex.parse(text, d=1), (point,))
    assert dual.value == 0.0
    assert (dual.grad.tolist(), dual.hess.tolist()) == ([grad], [[0.0]])


def test_a_constant_operand_adds_no_zero_times_inf_term():
    """The one-point carrier differentiated a constant as zeros, so where
    the other operand of a product or quotient overflowed to inf, the
    derivative took a 0*inf = NaN term; a constant carries no derivative,
    so those derivatives are inf."""
    for text in ("2.0*exp(exp(x(1)))", "exp(exp(x(1)))/0.5"):
        node = ex.parse(text, d=1)
        dual = ex.eval2(node, (10.0,))
        assert dual.value == dual.grad[0] == dual.hess[0, 0] == np.inf
        with np.errstate(all="ignore"):
            ref = _ref_eval2(node, (10.0,))
        assert ref.value == np.inf
        assert np.isnan(ref.grad[0]) and np.isnan(ref.hess[0, 0])


def test_abs_away_from_kink():
    dual = ex.eval2(ex.parse("abs(x(1))", d=1), (-2.0,))
    assert dual.value == 2.0
    np.testing.assert_array_equal(dual.grad, [-1.0])


def test_negative_power():
    dual = ex.eval2(ex.parse("x(1)^-2", d=1), (2.0,))
    assert dual.value == 0.25
    np.testing.assert_allclose(dual.grad, [-2.0 / 8.0])
    with pytest.raises(ex.DomainError):
        ex.eval2(ex.parse("x(1)^-1", d=1), (0.0,))


def test_substitute_parameter():
    node = ex.parse("x(1)*t + t^2", d=1, params=("t",))
    pinned = ex.substitute(node, 2, 0.5)
    assert _ref_variables_used(pinned) == {1}
    assert ex.eval_value(pinned, (2.0,)) == pytest.approx(1.25)


def test_roundtrip_fixed_cases():
    cases = [
        "5.0*x(1) + x(2)",
        "-(x(1) + x(2))^3",
        "sin(cos(x(1)))/(1.0 + x(2)^2)",
        "x(1)^-2*(-3.5)",
        "(x(1)^2)^-3 + x(2)^1^1",
    ]
    for text in cases:
        node = ex.parse(text, d=2)
        assert ex.parse(ex.to_string(node), d=2) == node
    # a chain of powers prints as it parses, left to right
    assert ex.to_string(ex.parse("(x(1)^2)^-3", d=1)) == "x(1)^2^-3"


def test_roundtrip_random(rng):
    for _ in range(300):
        node = random_expression(rng, d=3)
        printed = ex.to_string(node)
        assert ex.parse(printed, d=3) == node, printed


def test_hessian_exactly_symmetric(rng):
    for _ in range(200):
        node = random_expression(rng, d=3)
        x = rng.uniform(-1.5, 1.5, size=3)
        try:
            dual = ex.eval2(node, x)
        except ex.DomainError:
            continue
        assert np.max(np.abs(dual.hess - dual.hess.T)) == 0.0


def test_ad_matches_finite_differences(rng):
    checked = 0
    attempts = 0
    while checked < 1000 and attempts < 4000:
        attempts += 1
        node = random_expression(rng, d=3)
        x = rng.uniform(-1.2, 1.2, size=3)
        try:
            dual = ex.eval2(node, x)
        except ex.DomainError:
            continue
        if np.max(np.abs(dual.grad)) > 1e3 or np.max(np.abs(dual.hess)) > 1e3:
            continue  # FD steps lose accuracy on wildly scaled trees
        g_err, h_err = fd_check(node, x)
        assert g_err < 1e-6
        assert h_err < 1e-4
        checked += 1
    assert checked == 1000


# ---------------------------------------------------------------------------
# the node protocol against a frozen copy of the type-switch implementation
# ---------------------------------------------------------------------------

def _ascii_digit(c):
    return "0" <= c <= "9"


def _ref_tokenize(text, isdigit=str.isdigit):
    """The character-scanning tokenizer the regular expression replaced.
    Its digit test was ``str.isdigit``; with ``isdigit=_ascii_digit`` it
    states the ASCII-only number rule that replaced it."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if isdigit(c) or (c == "." and i + 1 < n and isdigit(text[i + 1])):
            j = i
            seen_dot = False
            while j < n and (isdigit(text[j]) or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    seen_dot = True
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and isdigit(text[k]):
                    while k < n and isdigit(text[k]):
                        k += 1
                    j = k
            tokens.append(("num", text[i:j], i + 1))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i + 1))
            i = j
            continue
        if c in "+-*/^()":
            tokens.append((c, c, i + 1))
            i += 1
            continue
        raise ex.ExprSyntaxError(i + 1, "a number, identifier, or operator")
    tokens.append(("end", "", n + 1))
    return tokens


def _ref_level(e):
    if isinstance(e, (ex.Add, ex.Sub)):
        return 1
    if isinstance(e, (ex.Mul, ex.Div)):
        return 2
    if isinstance(e, ex.Neg):
        return 3
    if isinstance(e, ex.Const) and e.value < 0:
        return 3
    if isinstance(e, ex.Pow):
        return 4
    return 5


def _ref_paren(child, minimum):
    s = _ref_to_string(child)
    return f"({s})" if _ref_level(child) < minimum else s


def _ref_to_string(e):
    if isinstance(e, ex.Const):
        return repr(e.value)
    if isinstance(e, ex.Var):
        return f"x({e.index})"
    if isinstance(e, ex.Neg):
        return "-" + _ref_paren(e.arg, 3)
    if isinstance(e, ex.Add):
        return f"{_ref_paren(e.lhs, 1)} + {_ref_paren(e.rhs, 2)}"
    if isinstance(e, ex.Sub):
        return f"{_ref_paren(e.lhs, 1)} - {_ref_paren(e.rhs, 2)}"
    if isinstance(e, ex.Mul):
        return f"{_ref_paren(e.lhs, 2)}*{_ref_paren(e.rhs, 3)}"
    if isinstance(e, ex.Div):
        return f"{_ref_paren(e.lhs, 2)}/{_ref_paren(e.rhs, 3)}"
    if isinstance(e, ex.Pow):
        # powers chain left to right, as they parse
        return f"{_ref_paren(e.base, 4)}^{e.exponent}"
    if isinstance(e, ex.Func):
        return f"{e.name}({_ref_to_string(e.arg)})"
    raise TypeError(f"not an Expression: {e!r}")


class _RefDual2:
    """The one-point second-order forward-mode carrier that evaluated
    derivatives before the stacked jet walk, frozen with its arithmetic."""

    def __init__(self, value, grad, hess):
        self.value, self.grad, self.hess = value, grad, hess

    def __add__(self, o):
        return _RefDual2(self.value + o.value, self.grad + o.grad,
                         self.hess + o.hess)

    def __sub__(self, o):
        return _RefDual2(self.value - o.value, self.grad - o.grad,
                         self.hess - o.hess)

    def __neg__(self):
        return _RefDual2(-self.value, -self.grad, -self.hess)

    def __mul__(self, o):
        cross = np.outer(self.grad, o.grad)
        sym = cross + cross.T
        hess = o.value * self.hess + self.value * o.hess + sym
        return _RefDual2(self.value * o.value,
                         o.value * self.grad + self.value * o.grad, hess)

    def __truediv__(self, o):
        if o.value == 0.0:
            raise ex.DomainError("division by zero")
        value = self.value / o.value
        grad = (self.grad - value * o.grad) / o.value
        cross = np.outer(grad, o.grad)
        sym = cross + cross.T
        hess = (self.hess - sym - value * o.hess) / o.value
        return _RefDual2(value, grad, hess)


def _ref_fold_constants(e):
    """Every subtree without variables replaced by its value, where that
    is defined: the pass that kept derivative rules off the subtrees in a
    pinned semi-infinite index."""
    def fold(node):
        if _ref_variables_used(node):
            return node
        vals, reasons = ex.eval_reasons(node, np.empty((0, 1)))
        return node if reasons[0] else ex.Const(float(vals[0]))
    return e.map_nodes(fold)


def _ref_chain(u, f0, f1, f2):
    return _RefDual2(f0, f1 * u.grad,
                     f1 * u.hess + f2 * np.outer(u.grad, u.grad))


def _ref_pow_dual(u, n):
    if n == 0:
        d = u.grad.shape[0]
        return _RefDual2(1.0, np.zeros(d), np.zeros((d, d)))
    if n == 1:
        return u
    if n < 0 and u.value == 0.0:
        raise ex.DomainError("zero raised to a negative power")
    v = u.value
    try:
        with np.errstate(over="ignore"):
            rule = v ** n, n * v ** (n - 1), n * (n - 1) * v ** (n - 2)
    except OverflowError:
        raise ex.DomainError(
            "power outside the floating-point range") from None
    if math.isfinite(v) and not all(map(math.isfinite, rule)):
        raise ex.DomainError("power outside the floating-point range")
    return _ref_chain(u, *rule)


def _ref_eval2(e, x):
    """The carrier's walk over the tree with its constant subtrees folded;
    a constant subtree the fold leaves, an undefined one, raises the
    DomainError of its value."""
    x = np.asarray(x, dtype=float)
    return _ref_eval2_at(_ref_fold_constants(e), x, x.shape[0])


def _ref_eval2_at(e, x, d):
    if not _ref_variables_used(e):
        _ref_eval_value(e, x)
    if isinstance(e, ex.Const):
        return _RefDual2(e.value, np.zeros(d), np.zeros((d, d)))
    if isinstance(e, ex.Var):
        grad = np.zeros(d)
        grad[e.index - 1] = 1.0
        return _RefDual2(x[e.index - 1], grad, np.zeros((d, d)))
    if isinstance(e, ex.Neg):
        return -_ref_eval2_at(e.arg, x, d)
    if isinstance(e, ex.Add):
        return _ref_eval2_at(e.lhs, x, d) + _ref_eval2_at(e.rhs, x, d)
    if isinstance(e, ex.Sub):
        return _ref_eval2_at(e.lhs, x, d) - _ref_eval2_at(e.rhs, x, d)
    if isinstance(e, ex.Mul):
        return _ref_eval2_at(e.lhs, x, d) * _ref_eval2_at(e.rhs, x, d)
    if isinstance(e, ex.Div):
        return _ref_eval2_at(e.lhs, x, d) / _ref_eval2_at(e.rhs, x, d)
    if isinstance(e, ex.Pow):
        return _ref_pow_dual(_ref_eval2_at(e.base, x, d), e.exponent)
    if isinstance(e, ex.Func):
        u = _ref_eval2_at(e.arg, x, d)
        v = u.value
        if e.name == "sin":
            return _ref_chain(u, np.sin(v), np.cos(v), -np.sin(v))
        if e.name == "cos":
            return _ref_chain(u, np.cos(v), -np.sin(v), -np.cos(v))
        if e.name == "exp":
            ev = np.exp(v)
            return _ref_chain(u, ev, ev, ev)
        if e.name == "sqrt":
            if v <= 0.0:
                raise ex.DomainError("sqrt requires a strictly positive "
                                     "argument for differentiation")
            s = np.sqrt(v)
            return _ref_chain(u, s, 0.5 / s, -0.25 / (s * v))
        if e.name == "abs":
            if v == 0.0:
                raise ex.DomainError("abs has no derivative at 0")
            sign = 1.0 if v > 0 else -1.0
            return _ref_chain(u, abs(v), sign, 0.0)
    raise TypeError(f"not an Expression: {e!r}")


def _ref_eval_value(e, x):
    if isinstance(e, ex.Const):
        return e.value
    if isinstance(e, ex.Var):
        return float(x[e.index - 1])
    if isinstance(e, ex.Neg):
        return -_ref_eval_value(e.arg, x)
    if isinstance(e, ex.Add):
        return _ref_eval_value(e.lhs, x) + _ref_eval_value(e.rhs, x)
    if isinstance(e, ex.Sub):
        return _ref_eval_value(e.lhs, x) - _ref_eval_value(e.rhs, x)
    if isinstance(e, ex.Mul):
        return _ref_eval_value(e.lhs, x) * _ref_eval_value(e.rhs, x)
    if isinstance(e, ex.Div):
        denom = _ref_eval_value(e.rhs, x)
        if denom == 0.0:
            raise ex.DomainError("division by zero")
        return _ref_eval_value(e.lhs, x) / denom
    if isinstance(e, ex.Pow):
        base = _ref_eval_value(e.base, x)
        if e.exponent < 0 and base == 0.0:
            raise ex.DomainError("zero raised to a negative power")
        try:
            return base ** e.exponent
        except OverflowError:
            raise ex.DomainError("power outside the floating-point "
                                 "range") from None
    if isinstance(e, ex.Func):
        v = _ref_eval_value(e.arg, x)
        if e.name == "sin":
            return float(np.sin(v))
        if e.name == "cos":
            return float(np.cos(v))
        if e.name == "exp":
            return float(np.exp(v))
        if e.name == "sqrt":
            if v < 0.0:
                raise ex.DomainError("sqrt of a negative number")
            return float(np.sqrt(v))
        if e.name == "abs":
            return abs(v)
    raise TypeError(f"not an Expression: {e!r}")


def _ref_substitute(e, index, value):
    if isinstance(e, ex.Var):
        return ex.Const(value) if e.index == index else e
    if isinstance(e, ex.Const):
        return e
    if isinstance(e, ex.Neg):
        return ex.Neg(_ref_substitute(e.arg, index, value))
    if isinstance(e, (ex.Add, ex.Sub, ex.Mul, ex.Div)):
        return type(e)(_ref_substitute(e.lhs, index, value),
                       _ref_substitute(e.rhs, index, value))
    if isinstance(e, ex.Pow):
        return ex.Pow(_ref_substitute(e.base, index, value), e.exponent)
    if isinstance(e, ex.Func):
        return ex.Func(e.name, _ref_substitute(e.arg, index, value))
    raise TypeError(f"not an Expression: {e!r}")


def _ref_variables_used(e):
    if isinstance(e, ex.Var):
        return {e.index}
    if isinstance(e, ex.Const):
        return set()
    if isinstance(e, (ex.Neg, ex.Func)):
        return _ref_variables_used(e.arg)
    if isinstance(e, ex.Pow):
        return _ref_variables_used(e.base)
    if isinstance(e, (ex.Add, ex.Sub, ex.Mul, ex.Div)):
        return _ref_variables_used(e.lhs) | _ref_variables_used(e.rhs)
    raise TypeError(f"not an Expression: {e!r}")


def _outcome(fn, *args):
    """('ok', result) or ('raised', exception type, message)."""
    try:
        return "ok", fn(*args)
    except ex.ExprError as err:
        return "raised", type(err), str(err)


def _same_value(a, b):
    return type(a) is type(b) and (a == b or (a != a and b != b))


def _assert_same_evaluation(node, x):
    with np.errstate(all="ignore"):
        got = _outcome(ex.eval_value, node, x)
        ref = _outcome(_ref_eval_value, node, x)
        assert got[0] == ref[0] and (
            _same_value(got[1], ref[1]) if got[0] == "ok" else got == ref), node
        got, ref = _outcome(ex.eval2, node, x), _outcome(_ref_eval2, node, x)
    assert got[0] == ref[0], node
    if got[0] == "raised":
        assert got == ref
        return
    assert _same_float(got[1].value, ref[1].value), node
    assert np.array_equal(got[1].grad, ref[1].grad, equal_nan=True), node
    assert np.array_equal(got[1].hess, ref[1].hess, equal_nan=True), node


def _assert_same_tree_ops(node, d):
    """Printing and substitution of every index agree."""
    assert ex.to_string(node) == _ref_to_string(node)
    assert str(node) == _ref_to_string(node)
    for index in range(1, d + 2):
        for value in (0.0, -1.5, 0.25):
            pinned = ex.substitute(node, index, value)
            assert pinned == _ref_substitute(node, index, value)
            assert _ref_to_string(pinned) == ex.to_string(pinned)


def _assert_same_tokens(text):
    """The tokenizer is the old scanner with ASCII digits, and equals the
    old scanner itself on text without other digit characters."""
    got = _outcome(ex._tokenize, text)
    assert got == _outcome(_ref_tokenize, text, _ascii_digit), text
    if not any(c.isdigit() and not c.isascii() for c in text):
        assert got == _outcome(_ref_tokenize, text), text


def _random_tree(rng, d, depth=4):
    """Random tree over x(1)..x(d) and the parameter t = x(d+1), with
    every node kind and function, negative powers and division, so that
    domain errors occur too."""
    if depth == 0 or rng.random() < 0.25:
        r = rng.random()
        if r < 0.45:
            return ex.Var(int(rng.integers(1, d + 2)))
        if r < 0.55:
            return ex.Const(float(rng.choice([0.0, 1.0, -1.0, 0.5])))
        return ex.Const(float(np.round(rng.uniform(-3, 3), 3)))
    sub = lambda: _random_tree(rng, d, depth - 1)  # noqa: E731
    kind = int(rng.integers(0, 8))
    if kind < 4:
        return (ex.Add, ex.Sub, ex.Mul, ex.Div)[kind](sub(), sub())
    if kind == 4:
        return ex.Pow(sub(), int(rng.integers(-3, 5)))
    if kind == 5:
        return ex.Neg(sub())
    return ex.Func(str(rng.choice(ex.FUNCTIONS)), sub())


def _quoted_expressions(text):
    """Expression bodies of a problem text; [set] bounds and equalities
    use their own syntax."""
    return [body for key, body in re.findall(r'([\w(),]+)="([^"]*)"', text)
            if key not in ("lb", "ub", "eq")]


def _reference_parse(text, d, params=()):
    """The unchanged parser fed by the frozen tokenizer."""
    parser = ex._Parser(_ref_tokenize(text), d, params)
    node = parser.parse_expr()
    if parser.peek()[0] != "end":
        raise ex.ExprSyntaxError(parser.peek()[2], "end of input")
    return node


def _assert_text_matches_reference(text, d, point, full=True):
    """Tokens, tree and evaluation at ``point`` agree; ``full`` adds the
    tree operations and evaluation at ``point`` as a list."""
    _assert_same_tokens(text)
    node = _reference_parse(text, d)
    assert ex.parse(text, d) == node
    _assert_same_evaluation(node, np.asarray(point, dtype=float))
    if full:
        _assert_same_tree_ops(node, d)
        _assert_same_evaluation(node, list(point))


def test_registry_expressions_match_reference():
    from conecert import registry
    entries = list(registry._FIXED.values())
    entries += [registry._linf_entry(d) for d in range(2, 8)]
    seen = 0
    for entry in entries:
        d = len(entry.candidate)
        _assert_same_tokens(entry.text)
        for body in _quoted_expressions(entry.text):
            for point in (entry.candidate, np.linspace(-0.7, 1.3, d)):
                _assert_text_matches_reference(body, d, point)
            seen += 1
    assert seen >= 80


def test_alternance_texts_match_reference():
    workloads = perfbench_workloads()
    for case in workloads.alternance_cases(seed=1):
        (text,) = case.files.values()
        d = int(re.search(r"dim=(\d+)", text).group(1))
        at = [float(v) for v in case.argv[2][len("--at="):].split(",")]
        for k, line in enumerate(text.splitlines()[1:]):
            (body,) = _quoted_expressions(line)
            _assert_text_matches_reference(body, d, at, full=k % 97 == 0)


def test_random_trees_match_reference(rng):
    d = 3
    raised = set()
    for _ in range(600):
        node = _random_tree(rng, d)
        _assert_same_tree_ops(node, d)
        # the printed text, with t as the parameter, parses the same way
        printed = _ref_to_string(node).replace(f"x({d + 1})", "t")
        _assert_same_tokens(printed)
        assert (ex.parse(printed, d, params=("t",))
                == _reference_parse(printed, d, ("t",)))
        for point in (rng.uniform(-2, 2, size=d + 1),
                      rng.choice([0.0, 1.0, -1.0], size=d + 1)):
            _assert_same_evaluation(node, point)
            for fn in (ex.eval_value, ex.eval2):
                outcome = _outcome(fn, node, point)
                if outcome[0] == "raised":
                    raised.add(outcome[2])
    # every domain rule was exercised
    assert raised == {
        "division by zero", "zero raised to a negative power",
        "sqrt of a negative number", "abs has no derivative at 0",
        "sqrt requires a strictly positive argument for differentiation"}


@pytest.mark.parametrize("text,point", [
    ("1/x(1)", (0.0,)),
    ("x(1)/(x(1) - x(1))", (2.0,)),
    ("sqrt(1/x(1))", (0.0,)),
    ("1/x(1)*sqrt(x(1))", (0.0,)),
    ("sqrt(x(1) - 1)/x(1)", (0.0,)),
    ("sqrt(x(1))", (-1.0,)),
    ("sqrt(x(1))", (0.0,)),
    ("abs(x(1))", (0.0,)),
    ("abs(x(1) - 1)*exp(x(1))", (1.0,)),
    ("x(1)^-1", (0.0,)),
    ("(x(1) - 2)^-3 + sqrt(-x(1))", (2.0,)),
    ("x(1)^0/x(1)", (0.0,)),
    ("sin(x(1))/cos(x(1))^-2", (0.0,)),
])
def test_domain_errors_match_reference(text, point):
    node = ex.parse(text, d=1)
    assert _reference_parse(text, 1) == node
    _assert_same_evaluation(node, np.asarray(point))
    _assert_same_evaluation(node, list(point))


def test_substitute_on_every_node_kind():
    t = ex.Var(3)
    cases = [
        (ex.Const(2.5), set(), ex.Const(2.5)),
        (ex.Var(1), {1}, ex.Var(1)),
        (t, {3}, ex.Const(0.5)),
        (ex.Neg(t), {3}, ex.Neg(ex.Const(0.5))),
        (ex.Pow(t, -2), {3}, ex.Pow(ex.Const(0.5), -2)),
        (ex.Func("exp", t), {3}, ex.Func("exp", ex.Const(0.5))),
    ]
    for cls in (ex.Add, ex.Sub, ex.Mul, ex.Div):
        cases.append((cls(ex.Var(2), t), {2, 3}, cls(ex.Var(2), ex.Const(0.5))))
    for node, used, pinned in cases:
        assert _ref_variables_used(node) == used
        got = ex.substitute(node, 3, 0.5)
        assert got == pinned == _ref_substitute(node, 3, 0.5)
        assert type(got) is type(pinned)
        assert _ref_variables_used(got) == used - {3}
        # substituting an index the node does not use changes nothing
        assert ex.substitute(node, 4, 1.0) == node


_TRICKY = ("0123456789.eE+-*/^() \t\n_xtsincoepqrabl$,="
           "\u00a0\u2003\u00b2\u00b9\u0663\u00bd\u2167\u00e9\u4e09\u0301")


def test_tokens_match_reference_on_random_text(rng):
    for _ in range(6000):
        n = int(rng.integers(1, 9))
        text = "".join(rng.choice(list(_TRICKY), size=n))
        _assert_same_tokens(text)


def test_token_character_classes_match_str_methods():
    # the regular expression's \s and \w must be str.isspace and
    # "str.isalnum or '_'", which the old scanner used, on every code point
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(r"\s", every) == [c for c in every if c.isspace()]
    assert re.findall(r"\w", every) == [c for c in every
                                         if c.isalnum() or c == "_"]


@pytest.mark.parametrize("text,offset", [
    ("x(1)^\u00b2", 6), ("x(\u00b2)", 3), ("\u00b2", 1),
    ("x(1\u0663)", 4), ("\u0663", 1), ("1.5\u00b2", 4),
])
def test_non_ascii_digits_are_syntax_errors(text, offset):
    with pytest.raises(ex.ExprSyntaxError) as err:
        ex.parse(text, d=2)
    assert err.value.offset == offset
    assert str(err.value) == (f"syntax error at offset {offset}: expected "
                              "a number, identifier, or operator")


# ---------------------------------------------------------------------------
# stacked evaluation: eval_reasons over a stack of points against the
# frozen reference at each point
# ---------------------------------------------------------------------------


def _same_float(a, b):
    a, b = np.float64(a), np.float64(b)
    return (a != a and b != b) or a.tobytes() == b.tobytes()


def _assert_stacked_matches(node, X):
    """eval_reasons gives the reference's value at every column of X, bit
    for bit, and where the reference raises, a reason that raises the same
    message; eval_values flags exactly those columns.  Returns the
    messages raised."""
    vals, reasons = ex.eval_reasons(node, X)
    assert vals.shape == reasons.shape == (X.shape[1],)
    assert np.array_equal(ex.eval_values(node, X)[1], reasons != 0)
    raised = set()
    for j in range(X.shape[1]):
        with np.errstate(all="ignore"):
            ref = _outcome(_ref_eval_value, node, X[:, j])
        if ref[0] == "ok":
            assert reasons[j] == 0, (node, X[:, j])
            assert _same_float(vals[j], ref[1]), (node, X[:, j])
        else:
            assert _outcome(ex.raise_undefined, reasons[j]) == ref, (
                node, X[:, j])
            raised.add(ref[2])
    return raised


def test_stacked_values_match_on_registry_expressions(rng):
    from conecert import registry
    entries = list(registry._FIXED.values())
    entries += [registry._linf_entry(d) for d in range(2, 8)]
    for entry in entries:
        d = len(entry.candidate)
        X = np.column_stack([entry.candidate, np.linspace(-0.7, 1.3, d),
                             np.zeros(d), rng.normal(size=(d, 20))])
        for body in _quoted_expressions(entry.text):
            _assert_stacked_matches(ex.parse(body, d), X)


def test_stacked_values_match_on_alternance_expressions(rng):
    workloads = perfbench_workloads()
    for case in workloads.alternance_cases(seed=1):
        (text,) = case.files.values()
        d = int(re.search(r"dim=(\d+)", text).group(1))
        at = np.array([float(v) for v in
                       case.argv[2][len("--at="):].split(",")])
        X = np.column_stack([at, at + rng.normal(scale=1e-3, size=d),
                             rng.normal(size=d)])
        for line in text.splitlines()[1:]:
            (body,) = _quoted_expressions(line)
            _assert_stacked_matches(ex.parse(body, d), X)


def test_stacked_values_match_on_random_trees(rng):
    d = 3
    X = np.column_stack([rng.uniform(-2, 2, size=(d + 1, 12)),
                         rng.choice([0.0, 1.0, -1.0], size=(d + 1, 12)),
                         [np.nan, np.inf, -0.0, 1e-200]])
    raised = set()
    for _ in range(600):
        raised |= _assert_stacked_matches(_random_tree(rng, d), X)
    big = np.array([[10.0, 0.01, 1.0, 0.0, -0.0, np.nan, np.inf, 1e-320]])
    for n in (400, -400, 10 ** 300, -3, 0):
        node = ex.Pow(ex.Sub(ex.Var(1), ex.Const(0.0)), n)
        raised |= _assert_stacked_matches(node, big)
    assert raised == {"division by zero", "zero raised to a negative power",
                      "sqrt of a negative number",
                      "power outside the floating-point range"}


def _assert_jets_match_eval2(node, X, d):
    """eval_jets over the stack X, differentiated in x(1..d), gives at
    each column what eval2 gives at that column's first d rows with the
    rows past d pinned: the value bit for bit, equal derivatives, and
    where eval2 raises, a reason that raises the same message.  ``jets``
    at order 1 gives the same values, reasons and gradients bit for bit
    and no Hessian, and at order 2 a None Hessian only where it is 0."""
    vals, reasons, grads, hessians = ex.eval_jets(node, X, d)
    assert grads.shape == (X.shape[1], d)
    assert hessians.shape == (X.shape[1], d, d)
    first = ex.jets(node, X, d, 1)
    assert first[0].tobytes() == vals.tobytes()
    assert first[1].tobytes() == reasons.tobytes() and first[3] is None
    assert (np.zeros_like(grads) if first[2] is None else
            np.broadcast_to(first[2], grads.shape)).tobytes() == grads.tobytes()
    assert ex.jets(node, X, d)[3] is not None or not hessians.any()
    for j in range(X.shape[1]):
        pinned = node
        for index in range(d + 1, X.shape[0] + 1):
            pinned = ex.substitute(pinned, index, X[index - 1, j])
        ref = _outcome(ex.eval2, pinned, X[:d, j])
        if ref[0] == "raised":
            assert _outcome(ex.raise_undefined, reasons[j]) == ref, node
            continue
        assert reasons[j] == 0 and _same_float(vals[j], ref[1].value), node
        assert np.array_equal(grads[j], ref[1].grad, equal_nan=True), node
        assert np.array_equal(hessians[j], ref[1].hess,
                              equal_nan=True), node


def test_stacked_jets_match_one_column_on_random_trees(rng):
    d = 3
    X = np.column_stack([rng.uniform(-2, 2, size=(d + 1, 8)),
                         rng.choice([0.0, 1.0, -1.0], size=(d + 1, 8)),
                         [np.nan, np.inf, -0.0, 1e-200]])
    for _ in range(300):
        node = _random_tree(rng, d)
        # every row differentiated, and the parameter row t left out
        _assert_jets_match_eval2(node, X, d + 1)
        _assert_jets_match_eval2(node, X, d)


@pytest.mark.parametrize("text,points,messages", [
    ("sqrt(x(1))/x(2)", [(-1.0, 0.0)], ["division by zero"]),
    ("x(2)/sqrt(x(1))", [(-1.0, 0.0)], ["sqrt of a negative number"]),
    ("(x(1)^400)^-1", [(10.0, 0.0), (0.0, 0.0)],
     ["power outside the floating-point range",
      "zero raised to a negative power"]),
    ("(x(1) - 1)^-1 + sqrt(x(1) - 2)", [(1.0, 0.0)],
     ["zero raised to a negative power"]),
])
def test_competing_reasons_follow_the_evaluation_order(text, points,
                                                       messages):
    """Where two rules fail in one expression, the reason is the one met
    first: a binary node's left operand; a quotient's denominator, then
    division by zero, then its numerator; a power's base, then zero to a
    negative power, then the range; a function's argument, then the
    function."""
    node = ex.parse(text, d=2)
    X = np.array(points, dtype=float).T
    assert _assert_stacked_matches(node, X) == set(messages)
    for point, message in zip(points, messages):
        with pytest.raises(ex.DomainError) as err:
            ex.eval_value(node, point)
        assert str(err.value) == message


@pytest.mark.parametrize("text,point", [
    ("x(1)^400", 10.0), ("x(1)^-400", 0.01), ("(x(1)^-1)^3", 1e-300),
    ("2*x(1)^300 + 1", 1e10),
])
def test_power_overflow_is_a_domain_error(text, point):
    node = ex.parse(text, d=1)
    for fn in (ex.eval_value, ex.eval2):
        with pytest.raises(ex.DomainError) as err:
            fn(node, [point])
        assert str(err.value) == "power outside the floating-point range"
    assert ex.eval_values(node, np.array([[point, 1.0]]))[1].tolist() == [
        True, False]


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="the interpreter converts integers of any length")
@pytest.mark.parametrize("text,offset,what", [
    ("x(1)^" + "7" * 5000, 6, "an integer exponent"),
    ("x(1)^-" + "7" * 5000, 7, "an integer exponent"),
    ("x(" + "1" * 5000 + ")", 3, "a variable index"),
])
def test_integer_past_the_interpreter_limit_is_a_syntax_error(text, offset,
                                                             what):
    with pytest.raises(ex.ExprSyntaxError) as err:
        ex.parse(text, d=2)
    assert err.value.offset == offset
    assert str(err.value) == (f"syntax error at offset {offset}: expected "
                              f"{what} of fewer digits")
