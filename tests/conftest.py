import sys
from pathlib import Path

import numpy as np
import pytest

from conecert import expr as ex


def random_expression(rng, d, depth=3):
    """Random smooth expression over x(1)..x(d), safe to evaluate near
    moderate points (no division, no sqrt/abs kinks)."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return ex.Var(int(rng.integers(1, d + 1)))
        return ex.Const(float(np.round(rng.uniform(-2, 2), 3)))
    choice = rng.integers(0, 6)
    if choice == 0:
        return ex.Add(random_expression(rng, d, depth - 1),
                      random_expression(rng, d, depth - 1))
    if choice == 1:
        return ex.Sub(random_expression(rng, d, depth - 1),
                      random_expression(rng, d, depth - 1))
    if choice == 2:
        return ex.Mul(random_expression(rng, d, depth - 1),
                      random_expression(rng, d, depth - 1))
    if choice == 3:
        return ex.Pow(random_expression(rng, d, depth - 1),
                      int(rng.integers(1, 4)))
    if choice == 4:
        return ex.Func(str(rng.choice(["sin", "cos"])),
                       random_expression(rng, d, depth - 1))
    arg = random_expression(rng, d, depth - 1)
    # the parser folds a negated literal into the constant, so mirror that
    return ex.Const(-arg.value) if isinstance(arg, ex.Const) else ex.Neg(arg)


def random_generator_family(rng, d, n_total):
    """Integer-coordinate hull/cone families for membership agreement tests."""
    n_hull = int(rng.integers(1, n_total + 1))
    n_cone = n_total - n_hull
    hull = [rng.integers(-3, 4, size=d).astype(float) for _ in range(n_hull)]
    cone = [rng.integers(-3, 4, size=d).astype(float) for _ in range(n_cone)]
    cone = [v for v in cone if np.linalg.norm(v) > 0]
    return hull, cone


def perfbench_workloads():
    """The benchmark's workload module, which generates its input files."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return workloads


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
