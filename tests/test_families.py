"""Scenario families: texts of one shape parsed once, trees built on
demand, the objective evaluated one family at a time.  Every member's tree
must equal its own parse, and every family value must equal the one-point
evaluation of that tree bit for bit."""

import gc
import weakref

import numpy as np
import pytest

from conecert import expr as ex
from conecert import problem as pb
from conecert import registry
from conecert.problem import (Problem, evaluate_objective, load_problem_text,
                              objective_values, problem_to_text)
from conftest import perfbench_workloads

# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def _chebyshev_text(n=8, points=2001):
    """The fit of t^n by a polynomial of degree < n on a cosine grid, written
    as a discretised Chebyshev problem writes it: one scenario per grid point,
    signed decimal coefficients."""
    lines = [f"[problem] dim={n} kind=chebyshev"]
    for t in np.cos(np.pi * np.arange(points) / (points - 1)).tolist():
        terms = ["x(1)"]
        for j in range(1, n):
            a = t ** j
            terms.append(f"{'-' if a < 0 else '+'} {abs(a)!r}*x({j + 1})")
        lines.append(f'[scenario] f="{" ".join(terms)}" psi={t ** n!r}')
    return "\n".join(lines) + "\n"


def _scenario_texts(text):
    return [line.split('"')[1] for line in text.splitlines()
            if line.startswith("[scenario]")]


def _mixed_texts(rng, count=60):
    """Scenarios of a few shapes with '^', sin and sqrt, and literals written
    in several ways; some are undefined at some points (sqrt of a negative
    number, a zero divisor)."""
    shapes = [
        "x(1)^2*{} + sin({}*x(2)) - sqrt({} + x(1)^2)",
        "-{}*x(1)^3 + x(2)/({} + x(1)^2) + {}",
        "sqrt(x(1) - {}) + cos(x(2))^2*{} - -{}",
        "{}/(x(1) - {}) - exp(-{}*x(2))",
    ]
    formats = [repr, lambda v: f"{v:.3e}", lambda v: f"{v:.4f}",
               lambda v: f"{v:.2E}"]
    out = []
    for k in range(count):
        vals = (np.abs(rng.normal(size=3)) + 0.1).tolist()
        fmt = formats[k % len(formats)]
        out.append(shapes[k % len(shapes)].format(*map(fmt, vals)))
    return out


# literals of every spelling, signs folded once, twice and through
# parentheses, digits-only numbers that stay in the shape, indices and
# exponents of several digits, identifiers with digits, every function
_CORPUS = [
    ".5*x(1)", "5.*x(1)", "1e5*x(1)", "2.5E-3*x(1)", "-0.0*x(1)", "-0.0",
    "- -0.5*x(1)", "-2.5 + x(1)", "-(0.5)*x(2)", "-.5^2*x(1)", "-(-(1.5))",
    "2*x(1)", "3*x(1)", "2.0*x(1)", "x(12)", "x(1)^3", "x(12)^10*0.5",
    "a1*0.5 + x(1)", "x(1)*a1 - 1e-3*a1", "sin(0.5*x(1))", "cos(x(1))^2*2.5",
    "sqrt(1.5 + x(2)^2)", "exp(-1.5*x(1))", "abs(x(1) - 0.25)",
    "x(1)/0.5", "1.5/x(2)", "x(1)*1e-300*1e300", "1e400*x(1)", "0.1+0.2",
    "x(1) + 0.5", "x(1)+0.5", "  x(1)  +  0.5 ", "x(1) + 0.25",
    "x(1)^-2*0.5", "(x(1) + 0.5)^2 - -(x(2))", "1.5e+2 - x(3)*.25E1",
]


def _same_tree(a, b):
    """Structural equality, and the same printed literals, so that -0.0 and
    0.0 count as different."""
    return a == b and a.text() == b.text()


def _parse_families(texts, d, params=()):
    """``parse_families`` of a list of texts, grouped by one split each:
    (trees, families)."""
    return ex.parse_families(ex.skeletons(texts), d, params)


def _family_trees(texts, d, params=()):
    """Each text's tree: parsed alone, or built from its family."""
    trees, families = _parse_families(texts, d, params)
    for fam in families:
        for k, i in enumerate(fam.members.tolist()):
            assert trees[i] is None
            trees[i] = fam.tree(k)
    assert None not in trees
    return trees


# ---------------------------------------------------------------------------
# the family parse is exact
# ---------------------------------------------------------------------------


def test_family_trees_equal_their_own_parse():
    trees = _family_trees(_CORPUS, 12, params=("a1",))
    for text, tree in zip(_CORPUS, trees):
        assert _same_tree(tree, ex.parse(text, 12, ("a1",))), text


def test_family_trees_equal_their_own_parse_on_generated_texts(rng):
    cheb = _scenario_texts(_chebyshev_text(n=6, points=301))
    for texts, d in ((cheb, 6), (_mixed_texts(rng), 2)):
        for text, tree in zip(texts, _family_trees(texts, d)):
            assert _same_tree(tree, ex.parse(text, d)), text


def test_one_family_per_shape():
    texts = ["x(1) + 0.5", "2*x(1)", "x(1) + 1e-3", "3*x(1)", "-x(1) + 0.5",
             "x(1) + -0.5"]
    # a shape of two or more texts is a family, a shape of its own a tree
    trees, fams = _parse_families(texts, 1)
    assert [f.members.tolist() for f in fams] == [[0, 2]]
    assert [i for i, tree in enumerate(trees) if tree is not None] == [
        1, 3, 4, 5]
    # a table read from the texts gives every shape's family
    table = pb._FunctionTable.of_shapes(ex.skeletons(texts), 1)
    assert [f.members.tolist() for f in table.families] == [
        [0, 2], [1], [3], [4], [5]]
    # digits inside an identifier are not a literal
    _, fams = _parse_families(["a1e5 + 0.5", "a1e5 + 0.25"], 1, ("a1e5",))
    assert [f.members.tolist() for f in fams] == [[0, 1]]
    # the generated fits of t^n have one shape per sign pattern of t^k
    _, fams = _parse_families(_scenario_texts(_chebyshev_text()), 8)
    assert len(fams) == 2


@pytest.mark.parametrize("text", [
    "", "   ", "x(1) +", "x(1)^2.5", "x(1.5)", "x(1e0)", "x(1) + 1.5.5",
    "x.5e-3.5", "1.2.5e-3.5", "y + 0.5", "x(3) + 0.5", "sqrt 0.5",
    "0.5 $ x(1)", "2x", "x(1)^" + "7" * 5000,
])
def test_a_text_that_does_not_parse_raises_its_own_error(text):
    if len(text) > 4000 and not hasattr(__import__("sys"),
                                        "get_int_max_str_digits"):
        pytest.skip("the interpreter converts integers of any length")
    with pytest.raises(ex.ExprError) as want:
        ex.parse(text, 2)
    with pytest.raises(ex.ExprError) as got:
        _parse_families(["x(1) + 0.5", text, "x(2) + 0.25", text], 2)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


def test_load_keeps_every_error_in_file_order():
    bad_scenario_first = ('[problem] dim=2\n[scenario] f="x(1) + 0.5"\n'
                          '[scenario] f="x(1) + 0.5 *"\n[weird] a=1\n')
    with pytest.raises(pb.ProblemFormatError) as err:
        load_problem_text(bad_scenario_first)
    assert str(err.value) == (
        "bad expression 'x(1) + 0.5 *': syntax error at offset 13: expected "
        "a number, variable, or '(' in [scenario] (line 3)")
    section_first = ('[problem] dim=2\n[scenario] f="x(1) + 0.5"\n'
                     '[weird] a=1\n[scenario] f="x(1) + 0.5 *"\n')
    with pytest.raises(pb.ProblemFormatError) as err:
        load_problem_text(section_first)
    assert str(err.value) == "unknown section [weird] in [weird] (line 3)"
    malformed_first = ('[problem] dim=2\n[scenario] psi=1\n'
                       '[scenario] f="x(1) +"\n')
    with pytest.raises(pb.ProblemFormatError) as err:
        load_problem_text(malformed_first)
    assert str(err.value) == "scenario needs f=... in [scenario] (line 2)"


# ---------------------------------------------------------------------------
# family evaluation is bit-exact
# ---------------------------------------------------------------------------


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def _assert_family_values_exact(texts, d, X):
    trees = [ex.parse(t, d) for t in texts]
    for fam in _parse_families(texts, d)[1]:
        shape = (len(fam.members), X.shape[1])
        vals, bad = map(np.broadcast_to, ex.eval_values(fam.template, X),
                        (shape, shape))
        for k, i in enumerate(fam.members.tolist()):
            for j in range(X.shape[1]):
                try:
                    want = ex.eval_value(trees[i], X[:, j])
                except ex.DomainError:
                    assert bad[k, j], (texts[i], X[:, j])
                    continue
                assert not bad[k, j]
                assert _bits(vals[k, j]) == _bits(want), (texts[i], X[:, j])


def test_family_values_equal_eval_value_on_the_chebyshev_fit(rng):
    texts = _scenario_texts(_chebyshev_text())
    X = rng.normal(size=(8, 4))
    _assert_family_values_exact(texts, 8, X)


def test_family_values_equal_eval_value_on_mixed_shapes(rng):
    X = np.concatenate([rng.normal(size=(2, 12)) * 2,
                        [[1.0, 0.0, 3.0], [0.0, 1.0, -2.0]]], axis=1)
    _assert_family_values_exact(_mixed_texts(rng), 2, X)
    _assert_family_values_exact([t for t in _CORPUS if "a1" not in t], 12,
                                rng.normal(size=(12, 5)))


def _ref_evaluate_objective(P, trees, x):
    """The one-scenario-at-a-time objective that families replaced."""
    eps = P.tolerances.eps_active
    with np.errstate(over="ignore"):
        devs = [ex.eval_value(f, x) for f in trees]
    if P.kind == "chebyshev":
        devs = [v - t for v, t in zip(devs, P.psi)]
    if P.kind == "minimax":
        F = max(devs)
        return F, [(i + 1, 1, v) for i, v in enumerate(devs) if F - v <= eps]
    F = max(abs(v) for v in devs)
    act = []
    for i, v in enumerate(devs):
        if F - abs(v) > eps:
            continue
        if abs(v) <= eps:
            act += [(i + 1, 1, v), (i + 1, -1, v)]
        else:
            act.append((i + 1, 1 if v > 0 else -1, v))
    return F, act


def _problem_text(texts, kind, d=2):
    lines = [f"[problem] dim={d} kind={kind}"]
    for i, t in enumerate(texts):
        psi = f" psi={0.1 * i!r}" if kind == "chebyshev" else ""
        lines.append(f'[scenario] f="{t}"{psi}')
    return "\n".join(lines) + "\n"


def test_objective_equals_the_scenario_loop(rng):
    n = 8
    mono = np.polynomial.chebyshev.cheb2poly([0] * n + [1])
    best = -mono[:n] / 2.0 ** (n - 1)
    mixed = [t for t in _mixed_texts(rng)
             if not t.startswith("sqrt") and "/(x(1) -" not in t]
    cases = [(_chebyshev_text(), n, [best, best + 1e-9 * rng.normal(size=n),
                                     rng.normal(size=n)])]
    cases += [(_problem_text(mixed, kind), 2,
               [rng.normal(size=2) for _ in range(4)])
              for kind in ("minimax", "chebyshev")]
    # inf - inf: a NaN deviation, first and later in the list
    nan = "exp(500.0*x(1)) - exp(500.0*x(1))"
    for texts in ([nan, "x(1)", "-x(1)", "0.5*x(2)"],
                  ["x(1)", nan, "-x(1) + 1e-9", "x(1) - 0.0"]):
        cases += [(_problem_text(texts, kind), 2,
                   [np.array([3.0, 0.0]), np.array([0.0, 1.0])])
                  for kind in ("minimax", "chebyshev")]
    for text, d, points in cases:
        P = load_problem_text(text)
        trees = [ex.parse(t, d) for t in _scenario_texts(text)]
        for x in points:
            F, act = evaluate_objective(P, x)
            want_F, want_act = _ref_evaluate_objective(P, trees, x)
            assert _bits(F) == _bits(want_F)
            assert _bits([a.value for a in act]).tolist() == _bits(
                [v for _, _, v in want_act]).tolist()
            assert [(a.index, a.sign) for a in act] == [
                (i, sign) for i, sign, _ in want_act]
            assert all(type(a.value) is float for a in act)
            vals, undefined = objective_values(P, np.array(x)[:, None])
            assert _bits(vals[0]) == _bits(F) and not undefined[0]


@pytest.mark.parametrize("texts, message", [
    # scenarios 2 and 3 are undefined at 1 in both orders
    (["x(1)", "1.5/(x(1) - 1)", "sqrt(x(1) - 2.5)"], "division by zero"),
    (["x(1)", "sqrt(x(1) - 2.5)", "1.5/(x(1) - 1)"], "sqrt of a negative"),
    # two undefined members of one family, each with its own error
    (["x(1)", "sqrt(x(1) - 3.5)/(x(1) - 2.0)",
      "sqrt(x(1) - 3.5)/(x(1) - 1.0)"], "sqrt of a negative"),
    (["x(1)", "sqrt(x(1) - 3.5)/(x(1) - 1.0)",
      "sqrt(x(1) - 3.5)/(x(1) - 2.0)"], "division by zero"),
])
def test_the_lowest_undefined_scenario_raises_its_own_error(texts, message):
    P = load_problem_text(_problem_text(texts, "minimax", d=1))
    assert len(P.scenarios.families) == 3 - (texts[1][:4] == texts[2][:4])
    with pytest.raises(ex.DomainError, match=message):
        evaluate_objective(P, [1.0])


# ---------------------------------------------------------------------------
# trees on demand, nothing kept past the Problem
# ---------------------------------------------------------------------------


def test_problem_to_text_of_a_large_fit_is_unchanged():
    text = _chebyshev_text()
    P = load_problem_text(text)
    Q = Problem(d=8, kind="chebyshev",
                scenarios=tuple(ex.parse(t, 8) for t in _scenario_texts(text)),
                psi=P.psi)
    assert len(P.scenarios) == 2001 and len(Q.scenarios.families) == 2001
    assert problem_to_text(P) == problem_to_text(Q)


def test_only_the_scenarios_asked_for_are_built(monkeypatch):
    built = []
    real = ex.Family.tree
    monkeypatch.setattr(ex.Family, "tree",
                        lambda fam, k: built.append(k) or real(fam, k))
    P = load_problem_text(_chebyshev_text(n=6, points=301))
    mono = np.polynomial.chebyshev.cheb2poly([0] * 6 + [1])
    x = -mono[:6] / 2.0 ** 5
    F, act = evaluate_objective(P, x)
    assert built == [] and len(act) == 7
    # the gradients come from one stacked pass per family, no member's tree
    pb.ScenarioJets(P, x).gradients(act)
    assert built == []
    assert P.scenarios[act[0].index - 1] is P.scenarios[act[0].index - 1]
    assert built == [act[0].index - 1]


def test_a_problem_from_trees_has_one_family_per_tree():
    trees = (ex.parse("x(1) + 0.5", 1), ex.parse("x(1) + 0.25", 1))
    P = Problem(d=1, kind="minimax", scenarios=trees)
    assert [f.members.tolist() for f in P.scenarios.families] == [[0], [1]]
    assert P.scenarios[0] is trees[0] and P.scenarios[-1] is trees[1]
    assert list(P.scenarios) == list(trees)
    with pytest.raises(IndexError):
        P.scenarios[2]


def test_no_family_or_tree_outlives_its_problem():
    P = load_problem_text(_chebyshev_text(n=6, points=301))
    P.scenarios[3]
    refs = [weakref.ref(P.scenarios)] + [
        weakref.ref(f) for f in P.scenarios.families]
    del P
    gc.collect()
    assert all(r() is None for r in refs)
    # two loads of one text share nothing
    text = _chebyshev_text(n=6, points=31)
    A, B = load_problem_text(text), load_problem_text(text)
    assert not {id(f.template) for f in A.scenarios.families} & {
        id(f.template) for f in B.scenarios.families}


# ---------------------------------------------------------------------------
# line templates group [scenario] lines as one split per f text does
# ---------------------------------------------------------------------------


_SPLIT = ex._FREE_LITERAL.split


def _split_shapes(texts):
    """The grouping by one ``_FREE_LITERAL.split`` per text, kept as the
    reference: each skeleton mapped to its members and their literals, in
    the order of first members."""
    shapes = {}
    for i, text in enumerate(texts):
        parts = _SPLIT(text)
        members, literals = shapes.setdefault(tuple(parts[::2]), ([], []))
        members.append(i)
        literals += parts[1::2]
    return shapes


def _split_parse_families(texts, d, params=()):
    """``parse_families`` over the reference grouping."""
    families = []
    for pieces, (members, literals) in _split_shapes(texts).items():
        columns = np.fromiter(map(float, literals), float, len(literals))
        columns = columns.reshape(len(members), len(pieces) - 1)
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


def _layout(families):
    """Each family's members, its template with every ``Column`` read as 0,
    and the bytes of its columns, in tree order."""
    out = []
    for fam in families:
        columns = []
        skeleton = fam.template.map_nodes(
            lambda n: columns.append(n.value.tobytes()) or ex.Const(0.0)
            if isinstance(n, ex.Column) else n)
        out.append((fam.members.tolist(), skeleton, skeleton.text(),
                    columns))
    return out


def _line_shapes(texts, psis=None):
    """The line reader's grouping of a file of one [scenario] line per
    text, with psi=psis[i] when given: the f skeletons, each mapped to its
    members and their literals, and the psi values, as floats."""
    lines = ["[problem] dim=2"]
    for i, text in enumerate(texts):
        lines.append(f'[scenario] f="{text}"'
                     + (f" psi={psis[i]}" if psis else ""))
    shapes, psi = {}, []
    pb._parse_sections("\n".join(lines), shapes, psi)
    return shapes, [p if p is None else float(p) for p in psi]


def _assert_lines_group_as_the_split(texts, psis=None):
    shapes, targets = _line_shapes(texts, psis)
    assert list(shapes.items()) == list(_split_shapes(texts).items()), texts
    want = [float(p) for p in psis] if psis else [None] * len(texts)
    assert np.array(targets, dtype=float).tobytes() == np.array(
        want, dtype=float).tobytes()


class _CountingSplit:
    """``_FREE_LITERAL`` with a count of its splits."""

    def __init__(self):
        self.calls = 0

    def split(self, text):
        self.calls += 1
        return _SPLIT(text)


def test_line_templates_read_registry_and_alternance_files_as_the_split(
        monkeypatch):
    counter = _CountingSplit()
    monkeypatch.setattr(ex, "_FREE_LITERAL", counter)
    files = [entry.text for entry in list(registry._FIXED.values()) + [
        registry._linf_entry(d) for d in range(3, 7)]]
    workloads = perfbench_workloads()
    for seed in (1, 2, 3):
        files += [text for case in workloads.alternance_cases(seed)
                  for text in case.files.values()]
    lines = 0
    for text in files:
        d = int(text.split("dim=")[1].split()[0])
        texts = _scenario_texts(text)
        # the line reader alone, without the plain reader behind it
        P = pb._load(text, "<memory>", None, {})
        assert _layout(P.scenarios.families) == _layout(
            _split_parse_families(texts, d))
        psi = [float(line.rpartition("psi=")[2])
               for line in text.splitlines() if "psi=" in line]
        assert np.array(P.psi).tobytes() == np.array(psi).tobytes()
        lines += len(texts)
    # the split reads a text of each generated family's first members and
    # one line of each family that compiles its template
    assert lines > 9600 and counter.calls < 0.2 * lines


def test_line_templates_group_interleaved_shapes_as_the_split(rng):
    texts = _scenario_texts(_chebyshev_text(n=6, points=1201))
    shapes = list(_split_shapes(texts))
    assert len(shapes) == 2
    first = [t for t in texts if tuple(_SPLIT(t)[::2]) == shapes[0]]
    second = [t for t in texts if tuple(_SPLIT(t)[::2]) == shapes[1]]
    abab = [t for pair in zip(first, second) for t in pair]
    _assert_lines_group_as_the_split(abab)
    # runs of random lengths, so that a line often follows the other shape
    # with both templates compiled
    runs, a, b = [], iter(first * 2), iter(second * 2)
    for k in range(40):
        runs += [next(b if k % 2 else a) for _ in range(rng.integers(1, 80))]
    psis = [repr(v) for v in rng.normal(size=len(runs)).tolist()]
    _assert_lines_group_as_the_split(runs, psis)


# piece material with every class of character the split's look-behind
# reads, exponent letters and signs at piece ends and starts, and a
# non-ASCII digit
_PIECE_TOKENS = ("x(1)", "*", "+", "-", " ", "(", ")", "e", "E", "a1", "2",
                 ".", "e-", "E+", "1e-", "e2", "E+1", "2*", "٣", "_")
# free literals of every spelling, then strings that are none, or more
_LITERALS = ("0.5", "1.", ".5", "1e5", "2.5E-3", "1.5e+3", "7.e2")
_FILLS = _LITERALS + ("1.5e", "1e+", "9e9e9", "3..4", "12", "1.5.", ".5.",
                      "1e5.3", "0x1", "1_0.5", "e5", "", "-0.5", "1.5e-7x",
                      "5.e", "00.10", ".0e0")
# psi values of every spelling float reads, signed and not
_PSIS = tuple(sign + v for sign in ("", "-", "+")
              for v in _LITERALS + ("12", "0", "1e-400"))
# the ones a template's psi slot takes: a sign, digits and a '.'
_SLOT_PSIS = tuple(v for v in _PSIS
                   if "." in v and v.lstrip("+-")[:1].isdigit())


def test_template_hits_split_as_their_family_on_fuzzed_variants(
        monkeypatch):
    """Lines of random skeletons whose slots hold literals and strings
    that look like them, and psi values of every spelling.  Each line
    skeleton's template is compiled by its family's first members, and
    every variant follows a member, so that it is matched against the
    template first."""
    import random
    fuzz = random.Random(20261019)
    counter = _CountingSplit()
    monkeypatch.setattr(ex, "_FREE_LITERAL", counter)
    variants = lines = 0
    for _ in range(400):
        pieces = ["".join(fuzz.choices(_PIECE_TOKENS, k=fuzz.randrange(4)))
                  for _ in range(fuzz.randrange(2, 6))]
        base = "".join(p + fuzz.choice(_LITERALS) for p in pieces[:-1])
        base += pieces[-1]
        pieces = _SPLIT(base)[::2]     # the skeleton the split gives it
        texts = [base] * pb._TEMPLATE_AT
        psis = [fuzz.choice(_SLOT_PSIS)] * pb._TEMPLATE_AT
        for _ in range(128):
            texts.append(base)
            texts.append("".join(p + fuzz.choice(_FILLS)
                                 for p in pieces[:-1]) + pieces[-1])
            psis += [fuzz.choice(_SLOT_PSIS), fuzz.choice(_PSIS)]
        variants += 128
        lines += len(texts)
        # one file in four is a minimax file, without psi
        if fuzz.random() < 0.75:
            _assert_lines_group_as_the_split(texts, psis)
        else:
            _assert_lines_group_as_the_split(texts)
    assert variants >= 50_000
    # thousands of lines were matched by a template, not split
    assert lines - counter.calls > 5_000, lines - counter.calls


# ``_FREE_LITERAL`` before its leading digits were factored out of its two
# alternatives, kept as the reference of its splits
_UNFACTORED_FREE_LITERAL = ex.re.compile(
    r"([0-9](?<![\w.][0-9])(?:[0-9]*\.[0-9]*" + ex._EXPONENT + r"?|[0-9]*"
    + ex._EXPONENT + r")|\.(?<![\w.]\.)[0-9]+" + ex._EXPONENT + r"?)")


def test_free_literals_split_as_the_unfactored_pattern_did():
    """200,000 fuzzed strings of number-like and operator tokens, and
    every line of a 2,001-point fit, split into the same pieces and
    literals."""
    import random
    fuzz = random.Random(20261021)
    tokens = _PIECE_TOKENS + _FILLS + ("0", "9", "e+", "E-", "..", "x1.5")
    texts = ["".join(fuzz.choices(tokens, k=fuzz.randrange(1, 9)))
             for _ in range(200_000)]
    texts += _chebyshev_text().splitlines()
    for text in texts:
        assert _SPLIT(text) == _UNFACTORED_FREE_LITERAL.split(text), text


def test_a_skeleton_ending_in_an_exponent_sign_gets_no_template():
    # after "1e-" a literal must start with '.': "1e-5." would split as
    # the literal "1e-5" and a piece "."
    assert ex._template(("x(1)*1e-", "*x(2)")) is None
    assert ex._template(("x(1)*1E+", "")) is None
    assert ex._template(("x(1)*e", " - ", "")) is not None
    texts = ["x(1)*1e-.5*x(2)"] * pb._TEMPLATE_AT + ["x(1)*1e-5.*x(2)"]
    _assert_lines_group_as_the_split(texts)
    assert len(_line_shapes(texts)[0]) == 2


def test_families_below_the_template_size_compile_nothing(monkeypatch):
    compiled = []
    real = ex.re.compile
    monkeypatch.setattr(ex.re, "compile",
                        lambda *args: compiled.append(args) or real(*args))
    n = pb._TEMPLATE_AT
    # 50 shapes of n - 1 members, in runs and interleaved
    values = np.random.default_rng(0).random(50 * (n - 1)).tolist()
    runs = [f"x(1)^{s + 2} + {v!r}*x(2)"
            for s in range(50) for v in values[s * (n - 1):(s + 1) * (n - 1)]]
    load_problem_text(_problem_text(runs, "minimax"))
    load_problem_text(_problem_text([runs[s * (n - 1) + k] for k in range(
        n - 1) for s in range(50)], "chebyshev"))
    assert compiled == []
    load_problem_text(_problem_text(runs + ["x(1)^2 + 0.5*x(2)"], "minimax"))
    assert len(compiled) == 1
