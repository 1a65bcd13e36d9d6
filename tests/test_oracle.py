import math

import numpy as np
import pytest

import conecert as cc
from conecert import oracle, registry
from conecert.linkernel import lp_membership
from conecert.problem import load_problem_text
from conftest import random_expression, random_generator_family


def test_growth_dem_not_refuted():
    P, x, _ = registry.get("dem")
    probe = oracle.growth_probe(P, x, order=1)
    assert not probe.refuted
    assert probe.constant > 0


def test_growth_refutes_linear():
    P = load_problem_text('[problem] dim=1\n[scenario] f="x(1)"\n')
    probe = oracle.growth_probe(P, (0.0,), order=1)
    assert probe.refuted


def test_growth_probe_draws_the_documented_stream():
    """The stream is default_rng(seed + 17): every normal in one draw, then
    one uniform radius per non-null normal.  On f = x(1) at 0 the first
    negative normal refutes, at -radius * r_i."""
    P = load_problem_text('[problem] dim=1\n[scenario] f="x(1)"\n')
    n = 50
    firsts = set()
    for seed in range(6):
        rng = np.random.default_rng(seed + 17)
        u = rng.standard_normal((n, 1))[:, 0]
        r = rng.random(n)
        i = int(np.flatnonzero(u < 0)[0])
        firsts.add(i)
        probe = oracle.growth_probe(P, (0.0,), n_samples=n, seed=seed)
        assert probe.refuted and probe.constant is None
        assert probe.n_feasible == i + 1
        assert probe.worst_point == [-0.1 * r[i]]
    assert len(firsts) > 1


def test_growth_linf_constant():
    for d in (2, 3):
        P, x, _ = registry.get("linf", dim=d)
        probe = oracle.growth_probe(P, x, order=1)
        assert not probe.refuted
        assert probe.constant >= 1.0 / math.sqrt(d) - 1e-9


def test_growth_too_few_feasible():
    # equality-only feasible set of measure zero inside the blocks
    P = load_problem_text(
        '[problem] dim=2\n[scenario] f="x(1)"\n'
        '[nlp_eq] b="x(1) - x(2)^3"\n')
    with pytest.raises(oracle.TooFewFeasibleSamples):
        oracle.growth_probe(P, (0.0, 0.0), n_samples=200)


def test_growth_respects_affine_equalities():
    # sampling happens inside the equality subspace of the polyhedral set
    P = load_problem_text(
        '[problem] dim=2\n[scenario] f="x(1)^2 + x(2)^2"\n'
        '[set] eq="x(1) - x(2) = 0"\n')
    probe = oracle.growth_probe(P, (0.0, 0.0), order=2)
    assert not probe.refuted
    assert probe.n_feasible >= 50


def test_membership_bruteforce_simple():
    assert oracle.hull_membership_bruteforce((0, 0), [(1, 0), (-1, 0)])
    assert not oracle.hull_membership_bruteforce((0, 0), [(1, 1)])


def test_membership_bruteforce_dem():
    hull = [(5, 1), (-5, 1), (0, -2)]
    assert oracle.hull_membership_bruteforce((0, 0), hull)
    assert (lp_membership(np.zeros(2), hull) is not None)


def test_membership_bruteforce_cone_needed():
    hull = [(1.0, 1.0)]
    cone = [(-1.0, 0.0), (0.0, -1.0)]
    assert oracle.hull_membership_bruteforce((0.0, 0.0), hull, cone)
    assert not oracle.hull_membership_bruteforce((0.0, 0.0), hull)


def test_membership_oracle_vs_lp(rng):
    for _ in range(200):
        d = int(rng.integers(1, 4))
        hull, cone = random_generator_family(rng, d, int(rng.integers(1, 7)))
        lp = lp_membership(np.zeros(d), hull, cone) is not None
        brute = oracle.hull_membership_bruteforce(np.zeros(d), hull, cone)
        assert lp == brute


def test_fd_check_quadratic():
    node = cc.parse("x(1)^2 + x(2)^2 + x(1)*x(2) - 1", 2)
    g_err, h_err = oracle.fd_check(node, (0.3, -0.7))
    assert g_err < 1e-6 and h_err < 1e-4


def test_fd_check_trig():
    node = cc.parse("sin(x(1))*cos(x(2))", 2)
    g_err, h_err = oracle.fd_check(node, (0.2, 0.4))
    assert g_err < 1e-6 and h_err < 1e-4


def test_fd_check_random(rng):
    checked = 0
    while checked < 100:
        node = random_expression(rng, d=2)
        x = rng.uniform(-1, 1, size=2)
        try:
            dual = cc.eval2(node, x)
        except cc.DomainError:
            continue
        if np.max(np.abs(dual.hess)) > 1e3:
            continue
        g_err, h_err = oracle.fd_check(node, x)
        assert g_err < 1e-6 and h_err < 1e-4
        checked += 1
