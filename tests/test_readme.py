"""The README's Python examples run as written and give the results their
comments state."""

import contextlib
import io
import re
from pathlib import Path

import numpy as np
import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_blocks():
    return re.findall(r"^```python\n(.*?)^```", README.read_text("utf-8"),
                      flags=re.M | re.S)


def test_readme_examples_run_in_order():
    blocks = _python_blocks()
    assert len(blocks) >= 3
    ns = {"__name__": "readme"}
    with contextlib.redirect_stdout(io.StringIO()):
        for block in blocks:
            exec(compile(block, str(README), "exec"), ns)
    # the library example on the dem problem
    np.testing.assert_allclose(ns["nec"].cadre.determinants,
                               [10.0, -10.0, 10.0], atol=1e-9)
    assert ns["suf"].margin == 1.0 and ns["suf"].radius > 0
    np.testing.assert_allclose(ns["full"].determinants, [10.0, -10.0, 10.0],
                               atol=1e-9)
    assert ns["pen"].zero_in_subdiff is True and ns["so2"].refuted is False
    assert ns["pen"].c_min == 0.0
    # the stacked evaluation example
    assert ns["vals"][0] == 1.0
    assert ns["bad"].tolist() == [False, True, True]
    # the scenario family example
    assert [f.members.tolist() for f in ns["fams"]] == [[0, 1]]
    assert ns["trees"][:2] == [None, None]
    assert ns["trees"][2] == ns["ex"].parse("x(1) - 0.25*x(2)", 2)
    assert ns["fams"][0].tree(1) == ns["ex"].parse("x(1) + 0.25*x(2)", 2)


def test_readme_multiplier_example():
    ns = {"__name__": "readme"}
    with contextlib.redirect_stdout(io.StringIO()):
        for block in _python_blocks():
            exec(compile(block, str(README), "exec"), ns)
    assert ns["blk"].kind == "nlp_ineq"
    assert ns["dual"] == pytest.approx({0: 152.0, 1: 12.0})
    assert ns["again"].to_json() == ns["w"].to_json()
    assert ns["B"].shape == (2, 2)
    assert (ns["H"] == ns["B"]).all()
    assert float(np.linalg.norm(ns["grad"])) == ns["w"].stationarity_residual


def test_readme_jets_example():
    """The [sdp] block's jets at the sdp-example candidate: six entries,
    their 6 x 3 Jacobian, G0(x) = diag(0, -1, 0) and symmetric gradients,
    bit for bit those of one eval_value and eval2 per entry."""
    from conecert import expr as ex
    ns = {"__name__": "readme"}
    with contextlib.redirect_stdout(io.StringIO()):
        for block in _python_blocks():
            exec(compile(block, str(README), "exec"), ns)
    sdp, x = ns["sdp"], np.asarray(ns["x"], dtype=float)
    assert sdp.kind == "sdp" and len(sdp.components) == 6
    assert ns["G_jac"].shape == (6, 3) and ns["G_hess"].shape == (6, 3, 3)
    np.testing.assert_allclose(ns["G_x"], np.diag([0.0, -1.0, 0.0]),
                               atol=1e-12)
    assert (ns["dG"] == ns["dG"].transpose(1, 0, 2)).all()
    for i in range(3):
        for j in range(3):
            entry = sdp.G0[i][j]
            assert ns["G_x"][i, j] == ex.eval_value(entry, x)
            assert (ns["dG"][i, j] == ex.eval2(entry, x).grad).all()
