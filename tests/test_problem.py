import numpy as np
import pytest

import conecert as cc
from conecert import firstorder as fo
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
    gens = cc.subdifferential_generators(P, x, act)
    got = {tuple(np.round(g, 9)) for g in gens}
    assert got == {(5.0, 1.0), (-5.0, 1.0), (0.0, -2.0)}


def test_subdifferential_generators_madsen():
    P, x, _ = registry.get("madsen")
    _, act = evaluate_objective(P, x)
    gens = cc.subdifferential_generators(P, x, act)
    got = {tuple(np.round(g, 9)) for g in gens}
    assert got == {(1.0, 2.0), (1.0, 0.0)}


def test_chebyshev_sign_flip():
    C = load_problem_text(
        '[problem] dim=2 kind=chebyshev\n'
        '[scenario] f="x(1) + x(2)" psi=1\n')
    x = (0.0, 0.0)  # deviation -1 < 0
    _, act = evaluate_objective(C, x)
    assert [(s.index, s.sign) for s in act] == [(1, -1)]
    gens = cc.subdifferential_generators(C, x, act)
    np.testing.assert_allclose(gens[0], [-1.0, -1.0])


def test_chebyshev_zero_tie_gets_both_signs():
    C = load_problem_text(
        '[problem] dim=1 kind=chebyshev\n'
        '[scenario] f="x(1)" psi=0\n')
    _, act = evaluate_objective(C, (0.0,))
    assert [(s.index, s.sign) for s in act] == [(1, 1), (1, -1)]
    gens = cc.subdifferential_generators(C, (0.0,), act)
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
            signed = cc.subdifferential_generators(C, x, act)
            squared = cc.squared_generators(C, x, act)
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
    sq = cc.squared_generators(C, x, act)
    np.testing.assert_allclose(sq[0], [2.0, 0.0])


def test_directional_derivative_matches_fd(rng):
    P, x, _ = registry.get("dem")
    x = np.asarray(x, dtype=float)
    _, act = evaluate_objective(P, x)
    gens = cc.subdifferential_generators(P, x, act)
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


def test_problem_format_semiinf_grid():
    P = load_problem_text(
        '[problem] dim=1\n[scenario] f="x(1)"\n'
        '[semiinf] g="x(1)*t - 1" grid=0:1:5\n')
    blk = P.blocks[0]
    np.testing.assert_allclose(blk.grid, [0.0, 0.25, 0.5, 0.75, 1.0])


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
    """t is pinned and terms in t alone are folded before differentiating,
    so a kink in t at a grid point is harmless; the gradient is the x part
    of the gradient in (x, t) wherever that exists."""
    P = load_problem_text(
        '[problem] dim=2\n[scenario] f="x(1)"\n'
        '[semiinf] g="x(2) - 1 - abs(t) + x(1)*t^2 - sqrt(t + 1)*x(2)" '
        'grid=-1:1:5\n')
    blk, x = P.blocks[0], np.array([0.3, -0.7])
    for j, t in enumerate(blk.grid):
        got = blk._grad(x, j)
        if t in (0.0, -1.0):   # abs or sqrt has no derivative in t there
            with pytest.raises(cc.DomainError):
                cc.eval2(blk.g, np.append(x, t))
        else:
            want = cc.eval2(blk.g, np.append(x, t)).grad[:2]
            assert got.tolist() == want.tolist()
        assert got.tolist() == [t * t, 1 - np.sqrt(t + 1)]


def test_fold_constants_keeps_undefined_subtrees():
    ex = cc.expr
    g = ex.substitute(ex.parse("x(1) - abs(t) + sqrt(t - 1)*x(1)", 1, ("t",)),
                      2, 0.0)
    folded = ex.fold_constants(g)
    assert folded == ex.Add(ex.Sub(ex.Var(1), ex.Const(0.0)),
                            ex.Mul(ex.Func("sqrt", ex.Const(-1.0)),
                                   ex.Var(1)))
    assert ex.to_string(g) == "x(1) - abs(0.0) + sqrt(0.0 - 1.0)*x(1)"


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
