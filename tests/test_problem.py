import contextlib
import io
import math
import re

import numpy as np
import pytest

import conecert as cc
from conecert import expr as ex
from conecert import firstorder as fo
from conecert import problem as pb
from conecert import registry
from conecert.geometry import PointContext
from conecert.problem import (ProblemFormatError, ToleranceSet, activity,
                              evaluate_objective, load_problem_text)
from conftest import random_expression


def test_evaluate_dem():
    P, x, _ = registry.get("dem")
    F, act = evaluate_objective(P, x)
    assert F == pytest.approx(-3.0)
    assert {s.index for s in act} == {1, 2, 3}


def test_evaluate_madsen():
    P, x, _ = registry.get("madsen")
    F, act = evaluate_objective(P, x)
    assert F == pytest.approx(1.0 - 1.0)
    assert {s.index for s in act} == {1, 2}


def test_evaluate_single_scenario():
    P = load_problem_text('[problem] dim=1\n[scenario] f="x(1)"\n')
    F, act = evaluate_objective(P, (7.0,))
    assert F == 7.0
    assert [(s.index, s.sign) for s in act] == [(1, 1)]


def test_active_set_monotone_in_eps(rng):
    P, x, _ = registry.get("dem")
    for _ in range(50):
        pt = rng.uniform(-2, 2, size=2)
        small = P.with_tolerances(ToleranceSet(eps_active=1e-10))
        large = P.with_tolerances(ToleranceSet(eps_active=1e-2))
        _, act_small = evaluate_objective(small, pt)
        _, act_large = evaluate_objective(large, pt)
        keys_small = {(s.index, s.sign) for s in act_small}
        keys_large = {(s.index, s.sign) for s in act_large}
        assert keys_small <= keys_large


def test_feasibility_sdp_candidate():
    P, x, _ = registry.get("sdp-example")
    rep = cc.check_feasible(P, x)
    assert rep.feasible
    act = activity(P, x)
    sigma = act.blocks[0].eigenvalues
    np.testing.assert_allclose(sorted(sigma), [-1.0, 0.0, 0.0], atol=1e-10)


def test_feasibility_bazaraa_active():
    P, x, _ = registry.get("bazaraa45")
    rep = cc.check_feasible(P, x)
    assert rep.feasible
    act = activity(P, x)
    assert act.blocks[0].active == [0, 1]


def test_feasibility_bound_violation():
    P = load_problem_text(
        '[problem] dim=1\n[scenario] f="x(1)"\n[set] lb="0"\n')
    rep = cc.check_feasible(P, (-1.0,))
    assert not rep.feasible
    assert rep.max_violation == pytest.approx(1.0)


def test_subdifferential_generators_dem():
    P, x, _ = registry.get("dem")
    _, act = evaluate_objective(P, x)
    gens = cc.ScenarioJets(P, x).gradients(act)
    got = {tuple(np.round(g, 9)) for g in gens}
    assert got == {(5.0, 1.0), (-5.0, 1.0), (0.0, -2.0)}


def test_subdifferential_generators_madsen():
    P, x, _ = registry.get("madsen")
    _, act = evaluate_objective(P, x)
    gens = cc.ScenarioJets(P, x).gradients(act)
    got = {tuple(np.round(g, 9)) for g in gens}
    assert got == {(1.0, 2.0), (1.0, 0.0)}


def test_chebyshev_sign_flip():
    C = load_problem_text(
        '[problem] dim=2 kind=chebyshev\n'
        '[scenario] f="x(1) + x(2)" psi=1\n')
    x = (0.0, 0.0)  # deviation -1 < 0
    _, act = evaluate_objective(C, x)
    assert [(s.index, s.sign) for s in act] == [(1, -1)]
    gens = cc.ScenarioJets(C, x).gradients(act)
    np.testing.assert_allclose(gens[0], [-1.0, -1.0])


def test_chebyshev_zero_tie_gets_both_signs():
    C = load_problem_text(
        '[problem] dim=1 kind=chebyshev\n'
        '[scenario] f="x(1)" psi=0\n')
    _, act = evaluate_objective(C, (0.0,))
    assert [(s.index, s.sign) for s in act] == [(1, 1), (1, -1)]
    gens = cc.ScenarioJets(C, (0.0,)).gradients(act)
    np.testing.assert_allclose(gens, [[1.0], [-1.0]])


def test_squared_generators_scale_by_deviation(rng):
    for _ in range(30):
        f1 = random_expression(rng, d=2)
        f2 = random_expression(rng, d=2)
        C = cc.Problem(d=2, kind="chebyshev",
                       scenarios=(f1, f2),
                       psi=(float(rng.uniform(-1, 1)),
                            float(rng.uniform(-1, 1))))
        x = rng.uniform(-1, 1, size=2)
        try:
            F, act = evaluate_objective(C, x)
            signed = cc.ScenarioJets(C, x).gradients(act)
            squared = cc.ScenarioJets(C, x).gradients(act, squared=True)
        except cc.DomainError:
            continue
        if F <= 1e-9:
            for g in squared:
                np.testing.assert_allclose(g, 0.0, atol=1e-8)
            continue
        for s, q in zip(signed, squared):
            np.testing.assert_allclose(q, F * s, rtol=1e-12, atol=1e-12)


def test_squared_generators_fixed():
    C = load_problem_text(
        '[problem] dim=2 kind=chebyshev\n'
        '[scenario] f="x(1)" psi=-2\n')
    x = (0.0, 0.0)  # deviation +2, F = 2, signed gen (1, 0)
    _, act = evaluate_objective(C, x)
    sq = cc.ScenarioJets(C, x).gradients(act, squared=True)
    np.testing.assert_allclose(sq[0], [2.0, 0.0])


def test_directional_derivative_matches_fd(rng):
    P, x, _ = registry.get("dem")
    x = np.asarray(x, dtype=float)
    _, act = evaluate_objective(P, x)
    gens = cc.ScenarioJets(P, x).gradients(act)
    for _ in range(20):
        h = rng.standard_normal(2)
        h /= np.linalg.norm(h)
        predicted = max(float(g @ h) for g in gens)
        quotients = []
        for tau in (1e-3, 1e-4, 1e-5):
            F1, _ = evaluate_objective(P, x + tau * h)
            quotients.append((F1 - evaluate_objective(P, x)[0]) / tau)
        assert quotients[-1] == pytest.approx(predicted, abs=1e-3)


def test_problem_format_errors_report_location():
    with pytest.raises(ProblemFormatError) as err:
        load_problem_text("[problem] dim=2\n[scenario] psi=1\n")
    assert "scenario" in str(err.value)
    with pytest.raises(ProblemFormatError) as err:
        load_problem_text("[problem] dim=2\n[scenario] f=\"x(1)+\"\n")
    assert "line 2" in str(err.value)
    with pytest.raises(ProblemFormatError):
        load_problem_text("x = 1\n")
    with pytest.raises(ProblemFormatError):
        load_problem_text("[problem] dim=2\n[weird] a=1\n")


@pytest.mark.parametrize("value", ["1_0", "1_000.5", "\u0663", "\u0663.5",
                                   "\uff11"])
def test_numbers_outside_expressions_are_ascii_without_separators(value):
    """float() reads '_' separators and non-ASCII digits and spaces, which
    the expression grammar rejects; so do psi, the [set] numbers and the
    [semiinf] grid ends, naming their section and line."""
    head = '[problem] dim=1 kind=chebyshev\n[scenario] f="x(1)" psi=0.5\n'
    for text, section in (
            (f'[scenario] f="x(1)" psi={value}\n', "scenario"),
            (f'[set] lb="{value}"\n', "set"),
            (f'[set] ub="{value}"\n', "set"),
            (f'[set] eq="x(1) ={value}"\n', "set"),
            (f'[semiinf] g="x(1)*t" grid={value}:20:3\n', "semiinf"),
            (f'[semiinf] g="x(1)*t" grid=-1:{value}:3\n', "semiinf")):
        with pytest.raises(ProblemFormatError) as err:
            load_problem_text(head + text)
        assert str(err.value) == (
            f"not a number: {value!r} in [{section}] (line 3)")
    # ASCII spellings still read as float() reads them
    P = load_problem_text(head + '[scenario] f="x(1)" psi=+1E1\n'
                          '[set] lb=" -10." ub="inf"\n')
    assert P.psi == (0.5, 10.0) and P.set_A.lb == (-10.0,)


def test_problem_format_semiinf_grid():
    P = load_problem_text(
        '[problem] dim=1\n[scenario] f="x(1)"\n'
        '[semiinf] g="x(1)*t - 1" grid=0:1:5\n')
    blk = P.blocks[0]
    np.testing.assert_allclose(blk.grid, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_semiinf_grid_is_one_array_and_activity_matches_the_loop(rng):
    """A semi-infinite block keeps its grid as one read-only array, built
    once, and takes its active points with one flatnonzero: the list the
    loop over the values gave, a NaN value never active."""
    P = load_problem_text('[problem] dim=2\n[scenario] f="x(1)"\n'
                          '[semiinf] g="x(1)*t + x(2)" grid=-1:1:401\n')
    blk, tol = P.blocks[0], ToleranceSet()
    assert blk._points is blk._points and not blk._points.flags.writeable
    assert blk._points.tolist() == list(blk.grid)
    for x in [(0.0, 0.0), (1.0, -1.0), (math.nan, 0.0), (math.inf, 0.0),
              (-1e-9, 5e-9), *rng.uniform(-1, 1, size=(20, 2))]:
        values = blk.jets(np.array(x)).tolist()
        assert blk.activity(np.array(x), tol, 0).active == [
            i for i, v in enumerate(values)
            if abs(v) <= tol.eps_active or v > 0], x
    rows = [400, 0, 7]
    assert blk.jets(np.array([1.0, 2.0]), rows).tolist() == [
        blk.grid[i] + 2.0 for i in rows]


def test_problem_rejects_rank_deficient_equalities():
    with pytest.raises(ProblemFormatError):
        load_problem_text(
            '[problem] dim=2\n[scenario] f="x(1)"\n'
            '[set] eq="x(1) + x(2) = 0" eq="2*x(1) + 2*x(2) = 0"\n')


def test_problem_text_roundtrip():
    for name, dim in (("dem", None), ("madsen", None), ("bazaraa45", None),
                      ("counterexample-3-2", None), ("soc-example", None),
                      ("sdp-example", None)):
        P, x, _ = registry.get(name, dim=dim)
        text = cc.problem_to_text(P)
        Q = load_problem_text(text)
        assert Q.d == P.d and Q.kind == P.kind
        assert len(Q.scenarios) == len(P.scenarios)
        assert len(Q.blocks) == len(P.blocks)
        # identical objective values at random probes
        rng = np.random.default_rng(3)
        for _ in range(10):
            pt = np.asarray(x) + rng.uniform(-0.05, 0.05, size=P.d)
            try:
                FP, _ = evaluate_objective(P, pt)
                FQ, _ = evaluate_objective(Q, pt)
            except cc.DomainError:
                continue
            assert FP == pytest.approx(FQ, rel=1e-12, abs=1e-12)


def test_chebyshev_requires_targets():
    with pytest.raises(ProblemFormatError):
        load_problem_text(
            '[problem] dim=1 kind=chebyshev\n[scenario] f="x(1)"\n')
    with pytest.raises(ProblemFormatError):
        load_problem_text(
            '[problem] dim=1\n[scenario] f="x(1)" psi=1\n')


def test_chebyshev_rejects_targets_that_are_not_finite():
    """A NaN target once read as objective value nan, or was passed over
    when a finite target came first; each spelling is now an input
    error naming the line."""
    for value in ("nan", "inf", "-inf", "+inf", "1e400"):
        for first, second in ((value, "0.5"), ("0.5", value)):
            with pytest.raises(ProblemFormatError, match="finite") as err:
                load_problem_text(
                    '[problem] dim=1 kind=chebyshev\n'
                    f'[scenario] f="x(1)" psi={first}\n'
                    f'[scenario] f="x(1)" psi={second}\n')
            assert f"line {2 if first == value else 3}" in str(err.value)


def test_plain_vs_squared_verdicts_agree(rng):
    # engineered Chebyshev instances with positive deviation at the probe
    for trial in range(25):
        d = 2
        m = int(rng.integers(2, 5))
        scenarios = []
        psi = []
        x0 = rng.uniform(-1, 1, size=d)
        for _ in range(m):
            coeffs = rng.integers(-2, 3, size=d).astype(float)
            body = " + ".join(f"{c}*x({i + 1})" for i, c in enumerate(coeffs))
            f = cc.parse(body if body else "0*x(1)", d)
            value = float(ex_val(f, x0))
            # deviation +/-1 at x0 so every scenario is active with F = 1
            sign = 1 if rng.random() < 0.5 else -1
            psi.append(value - sign * 1.0)
            scenarios.append(f)
        C = cc.Problem(d=d, kind="chebyshev", scenarios=tuple(scenarios),
                       psi=tuple(psi))
        ctx = PointContext(C, x0)
        nec_plain = fo.necessary_check(ctx)
        nec_squared = fo.necessary_check(ctx, squared=True)
        assert nec_plain.zero_in_D == nec_squared.zero_in_D
        suf_plain = fo.sufficient_check(ctx)
        suf_squared = fo.sufficient_check(ctx, squared=True)
        assert suf_plain.zero_in_int_D == suf_squared.zero_in_int_D


def ex_val(f, x):
    from conecert.expr import eval_value
    return eval_value(f, x)


def test_semi_infinite_nan_anywhere_on_the_grid_is_a_violation():
    """exp(1000 t) - exp(1000 t) is -1 + 0 at t = 0 and inf - inf past
    t = 0.71; the maximum over the grid skipped that NaN."""
    P = load_problem_text('[problem] dim=1\n[scenario] f="x(1)"\n'
                          '[semiinf] g="exp(x(1)*t) - exp(x(1)*t) - 1" '
                          'grid=0:1:11\n')
    report = cc.check_feasible(P, [1000.0])
    assert not report.feasible and np.isnan(report.max_violation)
    feasible, undefined = cc.problem.feasibility(P, np.array([[1000.0, 1.0]]))
    assert feasible.tolist() == [False, True]
    assert not undefined.any()
    assert cc.check_feasible(P, [1.0]).feasible


def test_semi_infinite_gradients_are_in_x_alone():
    """t is a row that is not differentiated, so a kink in t at a grid
    point is harmless; the gradient is the x part of the gradient in
    (x, t) wherever that exists."""
    P = load_problem_text(
        '[problem] dim=2\n[scenario] f="x(1)"\n'
        '[semiinf] g="x(2) - 1 - abs(t) + x(1)*t^2 - sqrt(t + 1)*x(2)" '
        'grid=-1:1:5\n')
    blk, x = P.blocks[0], np.array([0.3, -0.7])
    _, grads, _ = blk.jets(x, derivatives=True)
    for t, got in zip(blk.grid, grads):
        if t in (0.0, -1.0):   # abs or sqrt has no derivative in t there
            with pytest.raises(cc.DomainError):
                cc.eval2(blk.g, np.append(x, t))
        else:
            want = cc.eval2(blk.g, np.append(x, t)).grad[:2]
            assert got.tolist() == want.tolist()
        assert got.tolist() == [t * t, 1 - np.sqrt(t + 1)]


@pytest.mark.parametrize("eq,message", [
    ("x(1)^2 + x(2) = 0", "eq rows must be affine"),
    ("x(1)^4 - 1.3333333333333333*x(1)^3 + x(2) = 0",
     "eq rows must be affine"),
    ("1/x(1) + x(2) = 0", "eq rows must be affine"),
    # zero Hessian and equal gradients at 0 and at the point of ones
    ("5*x(1)^3 - 7.5*x(1)^4 + 3*x(1)^5 + x(2) = 0",
     "eq rows must be affine"),
    ("x(1)*x(2) - x(2)*x(1) + x(2) = 0", "eq rows must be affine"),
    ("x(2)/(x(1) - x(1) + 2) = 0", "eq rows must be affine"),
    ("sin(x(1)) + x(2) = 0", "eq rows must be affine"),
    ("x(2) + 1/(1 - 1) = 0", "eq rows must be affine"),
    ("x(2) + 1 = 0", "write constants on the right-hand side of eq"),
    ("0*x(2) = 1", "eq row has no variables"),
])
def test_eq_rows_are_read_off_two_points(eq, message):
    """An eq= row is affine by its structure: x enters through sums,
    differences, negations, products with one factor in x and quotients
    by a denominator free of x, never through a power or a function, and
    the row is defined.  Its derivatives read at points took x(1)^4 -
    4/3 x(1)^3 + x(2) (Hessian 0 at 0) and 5 x(1)^3 - 7.5 x(1)^4 +
    3 x(1)^5 + x(2) (Hessian 0 and the same gradient at 0 and at the point
    of ones) for x(2)."""
    head = '[problem] dim=2\n[scenario] f="x(2)"\n[set] eq='
    with pytest.raises(ProblemFormatError) as err:
        load_problem_text(head + f'"{eq}"\n')
    assert message in str(err.value)
    P = load_problem_text(head + '"2*x(1) - x(2) = 3"\n')
    assert (P.set_A.E, P.set_A.e) == (((2.0, -1.0),), (3.0,))
    P = load_problem_text(
        head + '"-(x(1)*2^2)/(4*cos(0)) + 0.5*x(2)*3 - x(2)/2 = 0"\n')
    assert P.set_A.E == ((-1.0, 1.0),)


@pytest.mark.parametrize("text,at", [
    ('"x(2) - 1 - abs(t) + x(1)*t^2 - sqrt(t + 1)*x(2)" grid=-1:1:5',
     (0.3, -0.7)),
    ('"x(2) - abs(t)" grid=-1:1:3', (0.0, 0.0)),
    ('"-x(1)*sqrt(t + 1) - x(2) - t - 1" grid=-1:1:3', (0.0, 0.0)),
    ('"exp(x(1)*t)/(x(2) - t) + abs(x(1) - t)^3*cos(t)" grid=-2:2:9',
     (0.25, 3.0)),
])
def test_semi_infinite_stacked_derivatives_match_one_point(text, at):
    """The gradients and Hessians of one stacked evaluation equal, bit for
    bit, eval2 of g with t pinned at each grid point."""
    P = load_problem_text('[problem] dim=2\n[scenario] f="x(1)"\n'
                          f'[semiinf] g={text}\n')
    blk, x = P.blocks[0], np.array(at)
    indices = range(len(blk.grid))
    for j, g, H in zip(indices,
                       *blk.jets(x, indices, derivatives=True)[1:]):
        want = ex.eval2(ex.substitute(blk.g, 3, blk.grid[j]), x)
        assert g.tobytes() == want.grad.tobytes()
        assert H.tobytes() == want.hess.tobytes()


def _scan_kv(text, section, line):
    """The character scanner ``_split_kv`` replaced, frozen as the
    reference for its regular expression."""
    pairs = []
    i, n = 0, len(text)
    while i < n:
        if text[i].isspace():
            i += 1
            continue
        j = i
        while j < n and (text[j].isalnum() or text[j] in "_(),"):
            j += 1
        key = text[i:j]
        if not key or j >= n or text[j] != "=":
            raise ProblemFormatError(f"expected key=value, got {text[i:]!r}",
                                     section, line)
        j += 1
        if j < n and text[j] == '"':
            k = text.find('"', j + 1)
            if k < 0:
                raise ProblemFormatError("unterminated quoted value",
                                         section, line)
            value = text[j + 1:k]
            i = k + 1
        else:
            k = j
            while k < n and not text[k].isspace():
                k += 1
            value = text[j:k]
            i = k
        pairs.append((key, value, line))
    return pairs


def _split_outcome(split, text):
    try:
        return split(text, "s", 7)
    except ProblemFormatError as err:
        return str(err)


def test_split_kv_matches_the_character_scanner(rng):
    from conecert.problem import _split_kv
    from conecert.registry import _FIXED, _linf_entry
    texts = [line.split("]", 1)[-1]
             for entry in [*_FIXED.values(), _linf_entry(3)]
             for line in entry.text.splitlines()]
    # whitespace beyond ASCII (NBSP, U+2028, tab), non-ASCII letters and
    # digits, quotes and the key punctuation
    alphabet = list('ab1_(),="  \t') + [" ", " ", "²", "٣", "é"]
    texts += ["".join(rng.choice(alphabet, size=int(rng.integers(0, 12))))
              for _ in range(5000)]
    for text in texts:
        assert (_split_outcome(_split_kv, text)
                == _split_outcome(_scan_kv, text)), text


# ---------------------------------------------------------------------------
# the loader before its per-line passes were trimmed, frozen as the
# reference for them: it must read every text to the same Problem, or fail
# with the same error
# ---------------------------------------------------------------------------


_FROZEN_KV = re.compile(r'\s*(?:([\w(),]+)=(?:"([^"]*)(")?|(\S*))|(\S.*))',
                        re.S)
_FROZEN_FREE_LITERAL = re.compile(
    r"(?<![\w.])((?:[0-9]+\.[0-9]*|\.[0-9]+)"
    r"(?:[eE][+-]?[0-9]+)?|[0-9]+[eE][+-]?[0-9]+)")


def _frozen_split_kv(text, section, line):
    pairs = []
    for m in _FROZEN_KV.finditer(text):
        key, quoted, closed, bare, rest = m.groups()
        if rest is not None:
            raise ProblemFormatError(f"expected key=value, got {rest!r}",
                                     section, line)
        if quoted is not None and closed is None:
            raise ProblemFormatError("unterminated quoted value",
                                     section, line)
        pairs.append((key, bare if quoted is None else quoted, line))
    return pairs


def _frozen_parse_sections(text):
    sections = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        if stripped.startswith("["):
            end = stripped.find("]")
            if end < 0:
                raise ProblemFormatError("unterminated section header",
                                         line=lineno)
            name = stripped[1:end].strip()
            current = {"name": name, "line": lineno, "pairs": []}
            sections.append(current)
            rest = stripped[end + 1:]
            current["pairs"].extend(_frozen_split_kv(rest, name, lineno))
        else:
            if current is None:
                raise ProblemFormatError("content before first section",
                                         line=lineno)
            current["pairs"].extend(
                _frozen_split_kv(stripped, current["name"], lineno))
    return sections


def _frozen_parse_number(value, section, line):
    # numbers are ASCII, without '_' digit separators: a rule newer than
    # the frozen passes, added here so that they still give the loader's
    # outcome
    if not value.isascii() or "_" in value:
        raise ProblemFormatError(f"not a number: {value!r}", section, line)
    v = value.strip().lower()
    if v in ("inf", "+inf"):
        return math.inf
    if v == "-inf":
        return -math.inf
    try:
        return float(value)
    except ValueError:
        raise ProblemFormatError(f"not a number: {value!r}", section, line)


def _frozen_scenario_entry(sec):
    name, f_txt, target = sec["name"], None, None
    for k, v, ln in sec["pairs"]:
        if k == "f":
            f_txt = (v, ln)
        elif k == "psi":
            target = _frozen_parse_number(v, name, ln)
            # the format admits only a finite target (docs/problem-format.md)
            if not math.isfinite(target):
                raise ProblemFormatError(f"psi must be finite, got {v!r}",
                                         name, ln)
        else:
            raise ProblemFormatError(f"unknown key {k!r}", name, ln)
    if f_txt is None:
        raise ProblemFormatError("scenario needs f=...", name, sec["line"])
    return f_txt, target


def _frozen_parse_families(texts, d, params=()):
    shapes = {}
    for i, text in enumerate(texts):
        parts = _FROZEN_FREE_LITERAL.split(text)
        members, literals = shapes.setdefault(tuple(parts[::2]), ([], []))
        members.append(i)
        literals.append([float(v) for v in parts[1::2]])
    families = []
    for pieces, (members, literals) in shapes.items():
        columns = np.array(literals).reshape(len(members), len(pieces) - 1)
        try:
            tokens = ex._tokenize(pieces[0])
            for slot, piece in enumerate(pieces[1:]):
                tokens[-1:] = [("lit", slot, 0)] + ex._tokenize(piece)
            template = ex._parse_tokens(tokens, d, params,
                                        [ex.Column(c) for c in columns.T])
        except ex.ExprError:
            families += [ex.Family(ex.parse(texts[i], d, params),
                                   np.array([i])) for i in members]
            continue
        families.append(ex.Family(template, np.array(members)))
    return families


class _FrozenScenarios(pb._Scenarios):
    def __init__(self, families):
        self.families = tuple(families)
        self._where = {}
        for fam in self.families:
            for k, i in enumerate(fam.members.tolist()):
                self._where[i] = (fam, k)
        self._trees = [None] * len(self._where)

    def __getitem__(self, i):
        i = range(len(self._trees))[i]
        if self._trees[i] is None:
            fam, k = self._where[i]
            self._trees[i] = fam.tree(k)
        return self._trees[i]


def _frozen_load(text):
    """``load_problem_text`` as it read files through the frozen passes
    (the block sections and [set] read their numbers with
    ``_frozen_parse_number``, patched in by the caller)."""
    sections = _frozen_parse_sections(text)
    if not sections or sections[0]["name"] != "problem":
        raise ProblemFormatError("file must start with a [problem] section",
                                 line=1)
    head = dict((k, (v, ln)) for k, v, ln in sections[0]["pairs"])
    if "dim" not in head:
        raise ProblemFormatError("missing dim", "problem", sections[0]["line"])
    dim_value, dim_line = head["dim"]
    d = pb._parse_count("dim", dim_value, pb.MAX_DIM, "problem", dim_line)
    kind = head.get("kind", ("minimax", 0))[0]
    texts, psi, blocks = [], [], []
    bounds = {"lb": [-math.inf] * d, "ub": [math.inf] * d}
    eq_rows, eq_rhs = [], []
    try:
        for sec in sections[1:]:
            name, line, pairs = sec["name"], sec["line"], sec["pairs"]
            if name == "scenario":
                f_txt, target = _frozen_scenario_entry(sec)
                texts.append(f_txt)
                psi.append(target)
            elif name == "set":
                pb._read_set(pairs, d, bounds, eq_rows, eq_rhs)
            elif name in pb._SECTION_BLOCKS:
                blocks.append(
                    pb._SECTION_BLOCKS[name].from_section(pairs, d, line))
            else:
                raise ProblemFormatError(f"unknown section [{name}]",
                                         name, line)
        families = _frozen_parse_families([t for t, _ in texts], d)
    except Exception:
        for f_txt, f_line in texts:
            pb._parse_expr(f_txt, d, "scenario", f_line)
        raise
    if not psi:
        raise ProblemFormatError("no [scenario] sections", "problem", 1)
    if kind == "chebyshev":
        if any(t is None for t in psi):
            raise ProblemFormatError("chebyshev scenarios all need psi=...",
                                     "scenario", 1)
        psi_t = tuple(psi)
    else:
        if any(t is not None for t in psi):
            raise ProblemFormatError("psi given but kind is not chebyshev",
                                     "scenario", 1)
        psi_t = ()
    try:
        return pb.Problem(
            d=d, kind=kind, scenarios=_FrozenScenarios(families), psi=psi_t,
            blocks=tuple(blocks),
            set_A=pb.PolyhedralSet(tuple(bounds["lb"]), tuple(bounds["ub"]),
                                   tuple(eq_rows), tuple(eq_rhs)))
    except ValueError as err:
        raise ProblemFormatError(str(err), "problem", 1)


def _template_parts(template):
    """A family template with each Column replaced by a numbered marker,
    and the bytes of each Column's values in marker order."""
    columns = []

    def mark(node):
        if isinstance(node, ex.Column):
            columns.append((node.value.dtype, node.value.tobytes()))
            return ex.Var(-len(columns))
        return node
    return template.map_nodes(mark), columns


def _load_outcome(load, text):
    try:
        P = load(text)
    except Exception as err:   # noqa: BLE001 - the error is the outcome
        return f"{type(err).__name__}: {err}"
    fams = P.scenarios.families
    return (P.d, P.kind, np.array(P.psi, dtype=float).tobytes(), P.blocks,
            P.set_A, [(tree, tree.text()) for tree in
                      map(P.scenarios.__getitem__, range(len(P.scenarios)))],
            [(_template_parts(f.template), f.members.tolist()) for f in fams])


def _cheb_fit_text(points=400, n=4):
    """A discretised Chebyshev fit of t^n, one scenario per grid point."""
    lines = [f"[problem] dim={n} kind=chebyshev"]
    for t in np.cos(np.pi * np.arange(points) / (points - 1)).tolist():
        terms = ["x(1)"]
        for j in range(1, n):
            a = t ** j
            terms.append(f"{'-' if a < 0 else '+'} {abs(a)!r}*x({j + 1})")
        lines.append(f'[scenario] f="{" ".join(terms)}" psi={t ** n!r}')
    return "\n".join(lines) + "\n"


def _minimax_fit_text(points=300):
    """A minimax file of one shape of scenario, one line per point."""
    lines = ["[problem] dim=2 kind=minimax"]
    for t in np.linspace(0.1, 0.9, points).tolist():
        lines.append(f'[scenario] f="x(1) - {t!r}*x(2)"')
    return "\n".join(lines) + "\n"


def _late_lines(lines):
    """The [scenario] lines past the first ``_TEMPLATE_AT`` + 1 of their
    family, which its line template reads once it has compiled."""
    counts, late = {}, []
    for i, line in enumerate(lines):
        if line.startswith("[scenario]") and '"' in line:
            pieces = tuple(ex._FREE_LITERAL.split(line.split('"')[1])[::2])
            counts[pieces] = counts.get(pieces, 0) + 1
            if counts[pieces] > pb._TEMPLATE_AT + 1:
                late.append(i)
    return late


def _mutate_late(rng, lines, i):
    """One seeded edit of line i, a line a template reads: a continuation
    line carrying psi=, a trailing comment, a '\\r\\n' ending, a psi or an
    f literal out of the float range, the keys swapped, a key twice, an
    unknown key, or a psi on a line that has none."""
    line = lines[i]
    head, sep, psi = line.rpartition(" psi=")
    kind = int(rng.integers(0, 9))
    if kind == 0:
        lines.insert(i + 1, str(rng.choice(["psi=0.25", "  psi=-1.5e-3",
                                            "psi=1.0e999 # late"])))
    elif kind == 1:
        line += str(rng.choice([" # a note", " # 1.5 and 2.5", "#", "\t#x"]))
    elif kind == 2:
        lines[:] = [ln + "\r" for ln in lines]
        line += "\r"
    elif kind == 3 and sep:
        line = head + sep + str(rng.choice(["1.0e999", "-1.0e999", "1e999"]))
    elif kind == 4:
        parts = ex._FREE_LITERAL.split(line.split('"')[1])
        if len(parts) > 1:
            k = 2 * int(rng.integers(0, len(parts) // 2)) + 1
            parts[k] = str(rng.choice(["9.9e999", "1.5e-999"]))
            line = line.replace(line.split('"')[1], "".join(parts))
    elif kind == 5 and sep:
        line = f"[scenario] psi={psi} " + head.split("] ", 1)[1]
    elif kind == 6:
        f_pair = line.split("] ", 1)[1].split(" psi=")[0]
        line = str(rng.choice([line + f" {f_pair}", f"{line}{sep}{psi}"]))
    elif kind == 7:
        line += str(rng.choice([" g=1", ' h="x(1)"']))
    else:
        line += str(rng.choice([" psi=0.5", " psi=-0.0"])) * (not sep)
    lines[i] = line


def _mutate(rng, text, late=False):
    """One seeded edit of one line: a dropped quote, a '#' inside a value
    (and another in a trailing comment), another psi, a literal glued to
    an identifier, '..5', an Arabic-Indic digit, a no-break space, a line
    separator or a U+001F padding; with ``late``, an edit of a line a
    line template reads (``_mutate_late``)."""
    lines = text.split("\n")
    if late:
        late_lines = _late_lines(lines)
        _mutate_late(rng, lines,
                     late_lines[int(rng.integers(0, len(late_lines)))])
        return "\n".join(lines)
    i = int(rng.integers(0, len(lines)))
    line = lines[i]
    kind = int(rng.integers(0, 9))
    quotes = [k for k, c in enumerate(line) if c == '"']
    pos = int(rng.integers(0, len(line) + 1))
    if kind == 0 and quotes:
        k = quotes[int(rng.integers(0, len(quotes)))]
        line = line[:k] + line[k + 1:]
    elif kind == 1 and len(quotes) >= 2:
        k = int(rng.integers(quotes[0] + 1, quotes[1] + 1))
        line = line[:k] + "#" + line[k:] + str(rng.choice(["", " # #"]))
    elif kind == 2:
        psi = str(rng.choice(["inf", "+inf", "-inf", "nan", "INF", " +Inf",
                              "\x1finf", "1e999", "1_0", "\u0663.5", "",
                              "0x1"]))
        head, sep, _ = line.partition(" psi=")
        line = (head if sep else line) + f' psi="{psi}"'
    elif kind == 3:
        line = line[:pos] + str(rng.choice(["a1.5", "x(1)1.5", "1.5e"]))\
            + line[pos:]
    elif kind == 4:
        line = line[:pos] + "..5" + line[pos:]
    elif kind == 5:
        digits = [k for k, c in enumerate(line) if c.isdigit()]
        if digits:
            k = digits[int(rng.integers(0, len(digits)))]
            line = line[:k] + chr(0x660 + int(line[k])) + line[k + 1:]
    elif kind == 6:
        spaces = [k for k, c in enumerate(line) if c == " "]
        if spaces:
            k = spaces[int(rng.integers(0, len(spaces)))]
            line = line[:k] + "\u00a0" + line[k + 1:]
    elif kind == 7:
        line = line[:pos] + "\u2028" + line[pos:]
    else:
        line = line[:pos] + "\x1f" + line[pos:]
    lines[i] = line
    return "\n".join(lines)


def test_loader_matches_the_frozen_parser(rng, monkeypatch):
    """Every registry text, a 400-line Chebyshev file, a 300-line minimax
    file and seeded mutations of them, some after a line template has
    compiled, load to the same Problem as through the frozen passes, or
    fail with the same error, section and line."""
    from conecert.registry import _FIXED, _linf_entry
    base = [e.text for e in [*_FIXED.values(), _linf_entry(3)]]
    base.append(_cheb_fit_text())
    texts = list(base)
    # one to three edits of a registry text, one edit of the long file
    for _ in range(400):
        text = base[int(rng.integers(0, len(base) - 1))]
        for _ in range(int(rng.integers(1, 4))):
            text = _mutate(rng, text)
        texts.append(text)
    for _ in range(40):
        texts.append(_mutate(rng, base[-1]))
    # one to three edits of lines past a compiled line template, in the
    # Chebyshev file, in a fit of t^3 (whose psi changes sign) and in a
    # minimax file of one shape, with a psi= on one line of it
    odd, minimax = _cheb_fit_text(n=3), _minimax_fit_text()
    lines = minimax.split("\n")
    lines[250] += " psi=0.5"
    texts += [odd, "\n".join(lines)]
    for _ in range(120):
        text = (base[-1], odd, minimax)[int(rng.integers(0, 3))]
        for _ in range(int(rng.integers(1, 4))):
            text = _mutate(rng, text, late=True)
        texts.append(text)
    errors = 0
    for text in texts:
        got = _load_outcome(load_problem_text, text)
        with monkeypatch.context() as m:
            m.setattr(pb, "_parse_number", _frozen_parse_number)
            want = _load_outcome(_frozen_load, text)
        assert got == want, text
        errors += isinstance(got, str)
    # the mutations reach both outcomes
    assert 50 < errors < len(texts) - 50
    for value in ["inf", " +INF ", "-inf\u2028", "\x1finf", "\x1f-inf",
                  "nan", "1_0", "\u0663.5", "infinity", "", "1e999", "--1"]:
        got, want = (_split_outcome(parse, value)
                     for parse in (pb._parse_number, _frozen_parse_number))
        assert (np.float64(got).tobytes() == np.float64(want).tobytes()
                if isinstance(want, float) else got == want), value


def test_a_long_fit_reads_its_lines_by_template(monkeypatch):
    """Each family of a 2,001-line fit splits its lines into pairs until
    its line template compiles; the template reads the rest."""
    calls = []
    real = pb._split_kv
    monkeypatch.setattr(pb, "_split_kv",
                        lambda *args: calls.append(args) or real(*args))
    P = load_problem_text(_cheb_fit_text(points=2001, n=8))
    assert len(P.scenarios) == 2001 and len(P.scenarios.families) == 2
    assert len(calls) <= 2 * pb._TEMPLATE_AT + 2


def _fit_lines(points=300):
    """The lines of a Chebyshev fit and the index of a line past its first
    family's template."""
    lines = _cheb_fit_text(points=points).split("\n")
    return lines, _late_lines(lines)[0]


def test_line_template_hazards():
    """The cases a line template must leave to the pairs: each loads as
    the frozen passes load it, or fails as they fail."""
    lines, i = _fit_lines()
    head, _, psi = lines[i].rpartition(" psi=")
    f_pair = head.split("] ", 1)[1]
    edits = {
        # a continuation line adds its pairs to the section of the hit
        # before it; here its psi replaces the line's own
        "continued": lines[:i + 1] + ["  psi=0.125"] + lines[i + 1:],
        "comment": lines[:i] + [lines[i] + " # t = 0.5"] + lines[i + 1:],
        "crlf": [ln + "\r" for ln in lines],
        "psi first": lines[:i] + [f"[scenario] psi={psi} {f_pair}"]
        + lines[i + 1:],
        "psi out of range": lines[:i] + [head + " psi=1.0e999"]
        + lines[i + 1:],
        # the first bad scenario in file order raises, before or after
        # the one whose psi is out of range
        "bad f first": lines[:2] + ['[scenario] f="x(1) +" psi=0.5']
        + lines[3:i] + [head + " psi=1.0e999"] + lines[i + 1:],
        "bad f after": lines[:i] + [head + " psi=1.0e999"] + lines[i + 1:-3]
        + ['[scenario] f="x(1) +" psi=0.5'] + lines[-2:],
    }
    outcomes = {}
    for name, edited in edits.items():
        text = "\n".join(edited)
        outcomes[name] = _load_outcome(load_problem_text, text)
        assert outcomes[name] == _load_outcome(_frozen_load, text), name
    assert outcomes["continued"][2] != _load_outcome(
        load_problem_text, "\n".join(lines))[2]
    assert outcomes["psi out of range"] == (
        "ProblemFormatError: psi must be finite, got '1.0e999' in "
        f"[scenario] (line {i + 1})")
    assert outcomes["bad f first"].endswith("in [scenario] (line 3)")
    assert outcomes["bad f after"] == outcomes["psi out of range"]
    for name in ("comment", "crlf", "psi first"):
        assert not isinstance(outcomes[name], str), name
    # psi before f on every line, equal to f's literal up to the line that
    # compiles a template, and another value after it: no template takes
    # the first literal for f's
    lines = ["[problem] dim=2 kind=chebyshev"] + [
        f'[scenario] psi={v!r} f="x(1) + {v if k <= pb._TEMPLATE_AT else 0.5}'
        f'*x(2)"' for k, v in enumerate(np.linspace(0.1, 0.9, 300).tolist())]
    text = "\n".join(lines)
    P = load_problem_text(text)
    assert _load_outcome(lambda t: P, text) == _load_outcome(_frozen_load,
                                                             text)


def test_free_literal_split_matches_the_frozen_pattern(rng):
    alphabet = list("0123456789..eE+-x()a_ *") + ["\u0663", "\u00b2",
                                                  "\u00e9", "\u00a0"]
    lengths = rng.integers(0, 17, size=100_000)
    chars = "".join([alphabet[k] for k in
                     rng.integers(0, len(alphabet), size=int(lengths.sum()))])
    ends = np.cumsum(lengths).tolist()
    for start, end in zip([0] + ends, ends):
        text = chars[start:end]
        assert (ex._FREE_LITERAL.split(text)
                == _FROZEN_FREE_LITERAL.split(text)), text


def test_block_sections_read_what_they_print():
    text = ('[problem] dim=2\n[scenario] f="x(1)^2 + x(2)"\n'
            '[nlp_ineq] g="x(1) - 1" g="-x(2)"\n[nlp_eq] b="x(1) - x(2)"\n'
            '[soc] g1="2" g2="x(1)" g3="x(2)"\n'
            '[sdp] size=2 entry(1,1)="x(1) - 3" entry(1,2)="x(2)" '
            'entry(2,2)="-1"\n'
            '[semiinf] g="t*x(1) - 1" grid=0.0:1.0:3\n')
    P = load_problem_text(text)
    assert [blk.kind for blk in P.blocks] == [
        "nlp_ineq", "nlp_eq", "soc", "sdp", "semi_infinite"]
    assert cc.problem_to_text(load_problem_text(cc.problem_to_text(P))) \
        == cc.problem_to_text(P)
    assert load_problem_text(cc.problem_to_text(P)).blocks == P.blocks


def test_scenario_errors_keep_file_order():
    bad_scen = '[scenario] f="x(1)^"\n'
    bad_block = '[nlp_ineq] h="x(1)"\n'
    with pytest.raises(ProblemFormatError) as err:
        load_problem_text('[problem] dim=1\n' + bad_scen + bad_block)
    assert (err.value.section, err.value.line) == ("scenario", 2)
    with pytest.raises(ProblemFormatError) as err:
        load_problem_text('[problem] dim=1\n' + bad_block + bad_scen)
    assert (err.value.section, err.value.line) == ("nlp_ineq", 2)
    # two bad scenario texts: the first one raises
    with pytest.raises(ProblemFormatError) as err:
        load_problem_text('[problem] dim=1\n[scenario] f="x(2)"\n' + bad_scen)
    assert (err.value.section, err.value.line) == ("scenario", 2)


BLOCK_KINDS = ('[problem] dim=2\n[scenario] f="x(1)"\n'
               '[nlp_ineq] g="x(1)^2 - x(2)" g="sin(x(1)*x(2))" g="x(2)"\n'
               '[nlp_eq] b="x(1)*x(2)^2" b="cos(x(2))" b="exp(x(1))"\n'
               '[semiinf] g="x(1)^2*t + sin(x(2))*t^3 - exp(t)" '
               'grid=-1:1:7\n')


def _jets_cases():
    """(problem, point, block) for every block of the registry problems
    and of a file with scalar blocks, a [semiinf] one among them."""
    for name in registry.NAMES:
        P, x, _ = registry.get(name, 3 if name == "linf" else None)
        for blk in P.blocks:
            yield P, np.asarray(x, dtype=float), blk
    P = load_problem_text(BLOCK_KINDS)
    for blk in P.blocks:
        yield P, np.array([0.3, -0.7]), blk


def test_jets_equal_one_evaluation_per_component():
    """``jets`` gives, bit for bit, each component's ``eval_value`` and,
    with derivatives, its ``eval2`` value, gradient and Hessian, over all
    rows, a subset of rows in reverse order and no rows.  A semi-infinite
    block's components are g at its grid points, t pinned."""
    kinds = set()
    for P, x, blk in _jets_cases():
        kinds.add(blk.kind)
        comps = (list(blk.components) if blk.kind != "semi_infinite" else
                 [ex.substitute(blk.g, P.d + 1, t) for t in blk.grid])
        n = len(comps)
        for rows in (None, list(range(n - 1, -1, -2)), []):
            picked = comps if rows is None else [comps[i] for i in rows]
            want = np.array([ex.eval_value(c, x) for c in picked])
            assert blk.jets(x, rows).tobytes() == want.tobytes()
            vals, grads, hessians = blk.jets(x, rows, derivatives=True)
            duals = [ex.eval2(c, x) for c in picked]
            assert vals.tobytes() == want.tobytes()
            assert grads.shape == (len(picked), P.d)
            assert hessians.shape == (len(picked), P.d, P.d)
            for g, H, D in zip(grads, hessians, duals):
                assert g.tobytes() == D.grad.tobytes()
                assert H.tobytes() == D.hess.tobytes()
        if blk.kind == "sdp":
            M = [[ex.eval_value(e, x) for e in row] for row in blk.G0]
            assert blk.matrices(blk.jets(x)).tobytes() == np.array(
                M).tobytes()
    assert kinds == {"nlp_ineq", "nlp_eq", "soc", "sdp", "semi_infinite"}


def test_soc_activity_reads_every_value_before_a_derivative():
    """At x = 0, g1 = abs(x(1)) has a value and no derivative, and
    g2 = sqrt(x(1) - 1) has no value: the block's activity raises g2's
    DomainError, since it reads every value before the Jacobian; a walk
    that took the derivatives first would raise g1's."""
    P = load_problem_text('[problem] dim=1\n[scenario] f="x(1)"\n'
                          '[soc] g1="abs(x(1))" g2="sqrt(x(1) - 1)"\n')
    blk, x = P.blocks[0], np.zeros(1)
    with pytest.raises(cc.DomainError, match="^sqrt of a negative number$"):
        blk.activity(x, P.tolerances, 0)
    with pytest.raises(cc.DomainError, match="^abs has no derivative at 0$"):
        blk.jets(x, derivatives=True)


# ---------------------------------------------------------------------------
# the scenario table: one stacked pass per family, each tree's own bits
# ---------------------------------------------------------------------------

# members whose Hessians are not 0, so that a Hessian stack spans several
# slabs once SLAB_FLOATS is shrunk
_CURVED = "".join(f'[scenario] f="sin({0.1 * k!r}*x(1))*x(2)^2 - {k!r}*x(3)"\n'
                  for k in range(1, 41))


def _table_cases():
    """(problem, point, scenarios asked for): every scenario of each
    registry problem at its candidate; of the 2,001-point fit of t^8 at
    its optimum, the active ones and every 40th; every curved member."""
    for name in registry.NAMES:
        P, x, _ = registry.get(name, 3 if name == "linf" else None)
        yield P, np.asarray(x, dtype=float), range(1, len(P.scenarios) + 1)
    n = 8
    P = load_problem_text(_cheb_fit_text(points=2001, n=n))
    x = -np.polynomial.chebyshev.cheb2poly([0] * n + [1])[:n] / 2.0 ** (n - 1)
    _, act = evaluate_objective(P, x)
    assert len(act) == n + 1
    yield P, x, [s.index for s in act] + list(range(1, 2002, 40))
    P = load_problem_text("[problem] dim=3\n" + _CURVED)
    yield P, np.array([0.3, -0.7, 2.0]), range(40, 0, -1)


@pytest.mark.parametrize("slab", [None, 1])
def test_scenario_table_is_each_tree_evaluated_alone(monkeypatch, slab):
    """``ScenarioJets`` gives each scenario's value, gradient and, at
    order 2, Hessian bit for bit as ``eval_jets`` of its own tree, from
    one stacked pass per family over the members asked for; a Hessian it
    gives as None (an affine scenario) is 0 there.  A second ask runs no
    pass, and one Hessian slab per member changes no bit."""
    if slab:
        monkeypatch.setattr(pb, "SLAB_FLOATS", slab)
    passes, real = [], ex.jets

    def jets(e, X, d, order=2):
        passes.append(order)
        return real(e, X, d, order)
    monkeypatch.setattr(ex, "jets", jets)
    for P, x, asked in _table_cases():
        d, asked = P.d, list(asked)
        families = {int(P.scenarios._family[i - 1]) for i in asked}
        table = pb.ScenarioJets(P, x)
        for order in (1, 2):
            del passes[:]
            rows = table.rows(asked, order)
            assert table.rows(asked, order) == rows
            chunks = (len(set(asked)) if slab == 1 and order == 2
                      else len(families))
            assert passes == [order] * chunks
            for i, (value, reason, grad, hess) in zip(asked, rows):
                vals, reasons, g, H = ex.eval_jets(P.scenarios[i - 1], x, d)
                assert reason == reasons == 0
                assert np.float64(value).tobytes() == vals.tobytes()
                assert grad.tobytes() == g.tobytes()
                if order == 1:
                    assert hess is None
                else:
                    assert (np.zeros((d, d)) if hess is None
                            else hess).tobytes() == H.tobytes()


def test_a_first_order_check_builds_no_hessian(monkeypatch):
    """The default check of linf at d = 200 differentiates its 400 active
    scenarios once, to order 1, and builds no d x d Hessian: every jet
    pass is of order 1 or 0 (values alone) and gives no Hessian, and no
    ``eval2`` runs.  Before, each scenario's gradient came from an
    ``eval2`` that built a 200 x 200 Hessian, twice per scenario in the
    witness's residual."""
    from conecert import cli
    seen, real = [], ex.jets

    def jets(e, X, d, order=2):
        out = real(e, X, d, order)
        seen.append((d, order, out[3] is not None))
        return out
    monkeypatch.setattr(ex, "jets", jets)
    monkeypatch.setattr(ex, "eval2", lambda *args: pytest.fail("eval2 ran"))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["check", "--registry", "linf", "--dim", "200",
                         "--json"]) == 0
    differentiated = [s for s in seen if s[0]]
    assert len(differentiated) == 400
    assert {s[1:] for s in differentiated} == {(1, False)}
