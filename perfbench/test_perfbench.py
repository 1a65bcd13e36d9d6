"""Checks of the benchmark's own parts: the alternance generator against
its closed form, the reference table's shape, the span tracer and the
host clock.

Run with ``python3 -m pytest perfbench``; nothing here imports conecert.
"""

import json
import math
import re
import signal
import statistics
import time
import types
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial import chebyshev, polynomial

import hostclock
import workloads
from tracer import SpanTracer, Target

EPS_ACTIVE = 1e-8   # conecert's default activity tolerance


@pytest.mark.parametrize("seed", [0, 1, 17])
@pytest.mark.parametrize("size", workloads.ALTERNANCE_SIZES)
def test_alternance_instance_matches_closed_form(size, seed):
    n, m, n_jitter = size
    inst = workloads.chebyshev_instance(n, m, n_jitter, (seed, 0))
    grid = inst.grid
    assert len(grid) == n * m + 1 + n_jitter
    err = polynomial.polyval(grid, inst.candidate) - grid ** n
    closed = -chebyshev.Chebyshev.basis(n)(grid) / 2.0 ** (n - 1)
    np.testing.assert_allclose(err, closed, rtol=0, atol=1e-13)
    F = float(np.max(np.abs(err)))
    assert F == pytest.approx(inst.objective, rel=1e-12)
    assert inst.objective == 2.0 ** (1 - n)
    active = [(k + 1, int(np.sign(e))) for k, e in enumerate(err)
              if F - abs(e) <= EPS_ACTIVE]
    assert tuple(active) == inst.active
    assert len(active) == n + 1
    signs = [s for _, s in active]
    assert all(a == -b for a, b in zip(signs, signs[1:]))
    np.testing.assert_allclose(
        grid[[k - 1 for k, _ in active]],
        np.sort(np.cos(np.pi * np.arange(n + 1) / n)), atol=1e-15)
    # every other point stays clear of the activity tolerance
    rest = np.delete(np.abs(err), [k - 1 for k, _ in active])
    assert F - rest.max() > 50 * EPS_ACTIVE


def test_alternance_seed_moves_only_the_jitter():
    a = workloads.chebyshev_instance(6, 160, 240, (1, 0))
    b = workloads.chebyshev_instance(6, 160, 240, (2, 0))
    c = workloads.chebyshev_instance(6, 160, 240, (1, 0))
    assert not np.array_equal(a.grid, b.grid)
    assert np.array_equal(a.grid, c.grid)
    assert np.array_equal(a.candidate, b.candidate)


_TERM = re.compile(r"([+-]) ([0-9.e+-]+)\*x\((\d+)\)")


def test_problem_text_encodes_the_fit():
    inst = workloads.chebyshev_instance(6, 160, 240, (3, 0))
    lines = workloads.problem_text(inst).splitlines()
    assert lines[0] == "[problem] dim=6 kind=chebyshev"
    assert len(lines) == 1 + len(inst.grid)
    for t, line in zip(inst.grid, lines[1:]):
        body, psi = re.fullmatch(r'\[scenario\] f="(.*)" psi=(\S+)',
                                 line).groups()
        assert body.startswith("x(1)")
        coef = np.zeros(6)
        coef[0] = 1.0
        for sign, value, index in _TERM.findall(body):
            coef[int(index) - 1] = float(value) * (1 if sign == "+" else -1)
        np.testing.assert_allclose(coef, t ** np.arange(6), rtol=1e-15)
        assert float(psi) == t ** 6


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_case_has_a_reference(name):
    cases = workloads.WORKLOADS[name](5)
    assert len({c.label for c in cases}) == len(cases)
    assert sum(c.largest for c in cases) == 1
    fields = set(workloads.Ref.__dataclass_fields__) - {"basis", "pins"}
    for case in cases:
        assert case.ref.basis
        assert set(case.ref.pins) <= fields
        assert case.load_problem is not None or case.files


def test_published_determinants_in_table():
    refs = {c.label: c.ref for c in workloads.registry_cases(0)}
    assert refs["dem --flavor generalised"].cadre_dets == (10, -10, 10)
    assert refs["bazaraa45 --flavor generalised"].cadre_dets == \
        (-3, 456, -36)
    assert refs["sdp-example --flavor generalised"].cadre_dets == \
        (-12, 15, -24, 6)
    for d in range(3, 7):
        assert refs[f"linf-d{d} --flavor generalised"].cadre_p == 2


def test_observe_and_mismatches():
    ref = workloads.Ref("t", exit_code=0, cadre_p=2, cadre_dets=(1, -1))
    report = {"necessary": {"zero_in_D": True,
                            "cadre": {"p": 2, "determinants": [1, -1]}},
              "sufficient": {"zero_in_int_D": True}}
    assert workloads.mismatches(ref, workloads.observe(report, 0)) == []
    report["necessary"]["cadre"]["determinants"] = [1, -1.001]
    bad = workloads.mismatches(ref, workloads.observe(report, 3))
    assert [b.split(":")[0] for b in bad] == ["exit_code", "cadre_dets"]


def test_benchmark_json_names_the_workloads():
    spec = json.loads((Path(__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert "setup_s" in [m["name"] for m in spec["end_to_end"]]


def _toy_module():
    mod = types.ModuleType("toy")

    def fact(k):
        return 1 if k <= 1 else k * mod.fact(k - 1)

    def outer(k):
        return mod.fact(k) + mod.fact(2)

    mod.fact, mod.outer = fact, outer
    other = types.ModuleType("toy_user")
    other.fact = fact        # bound by name in a second namespace
    return mod, other


def test_tracer_records_outermost_spans_with_parents():
    mod, other = _toy_module()
    tracer = SpanTracer()
    tracer.install([Target(mod, "fact", "toy.fact",
                           lambda r: [("toy.fact.total", r)]),
                    Target(mod, "outer", "toy.outer")], [mod, other])
    assert other.fact is mod.fact
    tracer.check_id = 1
    assert mod.outer(5) == 122
    tracer.check_id = 2
    assert other.fact(3) == 6
    tracer.check_id = -1
    assert mod.fact(4) == 24          # outside a check: not recorded
    tracer.uninstall()
    assert not hasattr(mod.fact, "__wrapped__")
    assert not hasattr(other.fact, "__wrapped__")

    names = [tracer.names[i] for i in tracer.name_id]
    assert names == ["toy.outer", "toy.fact", "toy.fact", "toy.fact"]
    assert list(tracer.parent) == [-1, 0, 0, -1]
    assert list(tracer.check) == [1, 1, 1, 2]
    one = tracer.summary([1])
    assert one["toy.fact.calls"] == 2       # recursion is not counted
    assert one["toy.outer.calls"] == 1
    assert one["toy.fact.total"] == 122
    assert 0 <= one["toy.outer.self_s"] <= one["toy.outer.s"]
    assert math.isclose(one["toy.outer.s"] - one["toy.outer.self_s"],
                        one["toy.fact.s"], rel_tol=1e-9, abs_tol=1e-12)
    both = tracer.summary([1, 2])
    assert both["toy.fact.calls"] == 3
    assert both["toy.fact.total"] == 128


def _spin(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass
    return "done"


def test_host_clock_samples_inside_a_step_and_restores_the_timer():
    clock = hostclock.HostClock()
    result, wall, ref = clock.time(lambda: _spin(0.5))
    assert result == "done"
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    assert len(clock._samples) >= hostclock.MIN_INSIDE
    # the spin ends 0.5 s after it starts, samples included; their time
    # is taken out of the step's
    assert clock._sampling_s > 0
    assert wall + clock._sampling_s == pytest.approx(0.5, abs=0.05)
    assert ref == pytest.approx(
        wall / statistics.geometric_mean(clock._samples), rel=1e-12)
    assert clock.slowness == [pytest.approx(wall / ref, rel=1e-12)]


def test_host_clock_brackets_a_short_step_and_survives_a_raise():
    clock = hostclock.HostClock()
    before = list(clock._before)
    _, wall, ref = clock.time(lambda: 1 + 1)
    assert clock._samples == []
    assert wall / ref == pytest.approx(
        statistics.geometric_mean(before + clock._before), rel=1e-12)
    with pytest.raises(ZeroDivisionError):
        clock.time(lambda: _spin(0.15) and 1 / 0)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
