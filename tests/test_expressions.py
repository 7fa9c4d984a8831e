import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bilevelpen import expressions as ex
from bilevelpen.model import field_from_expression


def ev(text, y, x):
    return ex.compile_evaluator(ex.parse(text))(np.asarray(y, float), np.asarray(x, float))


def test_basic_arithmetic():
    assert ev("1 + 2*3", [], [0.0]) == 7.0
    assert ev("(1 + 2)*3", [], [0.0]) == 9.0
    assert ev("2^3", [], [0.0]) == 8.0
    assert ev("-x[0] + y[0]", [2.0], [5.0]) == -3.0
    assert ev("x[0]/4", [], [2.0]) == 0.5
    assert ev("3.5e-1 + 1", [], [0.0]) == pytest.approx(1.35)


def test_registry_style_expressions():
    y, x = [0.5], [0.25, 0.75, 0.0, 0.0]
    w = 1 + 4 * 0.5 * 0.5
    assert ev("(1 + 4*y[0]*(1 - y[0])) * (1 + x[0] + x[1])", y, x) == pytest.approx(w * 2.0)
    assert ev("(x[0] + x[1] - 1)^2", y, x) == pytest.approx(0.0)


def test_vectorized_evaluation():
    fn = ex.compile_evaluator(ex.parse("x[0]^2 + x[1]"))
    X = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_allclose(fn(np.zeros(0), X), [3.0, 13.0])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_constants_follow_numpy_arithmetic():
    # Python floats raised ZeroDivisionError and OverflowError here
    assert np.isnan(ev("2 + x[0] + (1 - 1)/(1 - 1)", [], [0.0]))
    assert ev("2 + x[0] + 10^400", [], [0.0]) == np.inf
    assert ev("-(2^2000)", [], [0.0]) == -np.inf
    np.testing.assert_array_equal(ev("x[0] + 1/0", [], [[0.0], [1.0]]), [np.inf, np.inf])



def test_constant_folding_is_quiet():
    # folding printed numpy's RuntimeWarning, which -W error raised
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        whole = ex.compile_evaluator(ex.parse("(1 - 1)/(1 - 1) + 10^400"))
        part = ex.compile_evaluator(ex.parse("2 + x[0] + (1 - 1)/(1 - 1)"))
    assert np.isnan(whole.value) and part.value is None

def plain_value(node, y, x):
    """node's value by plain recursion over the AST, from np.float64 constants."""
    kind = node[0]
    if kind == "const":
        return np.float64(node[1])
    if kind == "y":
        return y[node[1]]
    if kind == "x":
        return x[..., node[1]]
    a = plain_value(node[1], y, x)
    if kind == "neg":
        return -a
    if kind == "pow":
        return a ** node[2]
    b = plain_value(node[2], y, x)
    if kind == "add":
        return a + b
    if kind == "sub":
        return a - b
    return a * b if kind == "mul" else a / b


@st.composite
def folding_cases(draw):
    """(node, y, x, Y, X): an AST whose constants include signed zeros,
    infinities, 1/0 and 10^400, a leader and a follower point, and a batch
    of three follower points with a leader point per row."""
    dim_y, dim_x = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    leaves = st.one_of(
        st.sampled_from([("const", v) for v in (0.0, -0.0, 0.5, 2.0, math.inf)]
                        + [ex.parse("1/0"), ex.parse("10^400")]),
        st.integers(0, dim_y - 1).map(lambda i: ("y", i)),
        st.integers(0, dim_x - 1).map(lambda j: ("x", j)))
    node = draw(st.recursive(leaves, lambda kids: st.one_of(
        st.tuples(st.sampled_from(["add", "sub", "mul", "div"]), kids, kids),
        st.tuples(st.just("neg"), kids),
        st.tuples(st.just("pow"), kids, st.integers(0, 3))), max_leaves=12))
    values = st.sampled_from([0.0, -0.0, 0.5, -1.0, 2.0, 1e300])

    def points(*shape):
        return np.array(draw(st.lists(values, min_size=math.prod(shape),
                                      max_size=math.prod(shape)))).reshape(shape)
    return node, points(dim_y), points(dim_x), points(3, dim_y), points(3, dim_x)


def same_bits(got, want):
    return (type(got) is type(want) and np.shape(got) == np.shape(want)
            and np.asarray(got).tobytes() == np.asarray(want).tobytes())


@settings(max_examples=200, deadline=None)
@given(folding_cases())
def test_folding_changes_no_bit(case):
    # what reads no variable left to vary is evaluated at compile time, from
    # the np.float64 constants a call would use; folded as Python floats,
    # 1/0 and 10^400 would raise and every folded value would change type
    node, y, x, Y, X = case
    with np.errstate(all="ignore"):
        for term in [node] + [ex.diff_x(node, j) for j in range(x.size)]:
            fn = ex.compile_evaluator(term)
            for at in [(y, x), (y, X), (Y.T, X)]:  # a point, a batch, a y per row
                assert same_bits(fn(*at), plain_value(term, *at))
            fixed = ex.compile_evaluator(term, x)  # the follower point fixed
            assert same_bits(fixed(y, None), plain_value(term, y, x))
            assert (fixed.value is None) == ex.uses_y(term)


def to_text(node):
    """Expression text that parses back to node, but that a constant -0.0 is
    written (-0.0) and parses as a negation."""
    kind = node[0]
    if kind == "const":
        v = node[1]
        return "1e400" if v == math.inf else f"(-{-v!r})" if math.copysign(1, v) < 0 else repr(v)
    if kind in ("y", "x"):
        return f"{kind}[{node[1]}]"
    if kind == "neg":
        return f"(-{to_text(node[1])})"
    if kind == "pow":
        return f"({to_text(node[1])})^{node[2]}"
    op = {"add": "+", "sub": "-", "mul": "*", "div": "/"}[kind]
    return f"({to_text(node[1])} {op} {to_text(node[2])})"


def warned(fn, *args):
    """fn(*args), or the exception it raised, and the warnings it gave, in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = fn(*args)
        except Exception as exc:
            out = (type(exc), str(exc))
    return out, [(w.category, str(w.message)) for w in caught]


class NumpyPoint(np.ndarray):
    """A float64 point that the float trees leave alone, so coefficients take
    the numpy target, as for every point before they had a float target."""


def one_point(node, x):
    return node, np.array([0.5]), np.array(x), np.zeros((3, 1)), np.zeros((3, len(x)))


# a finite value that hides an overflow: in a divisor, and in the base of ^0
@example(one_point(("div", ("const", 2.0), ("mul", ("x", 0), ("x", 0))), [1e300]))
@example(one_point(("pow", ("mul", ("x", 0), ("x", 1)), 0), [1e300, -1e300]))
@settings(max_examples=300, deadline=None)
@given(folding_cases())
def test_fields_keep_the_bits_and_warnings_of_the_numpy_target(case):
    # one point runs on Python floats, and keeps every bit and RuntimeWarning of
    # the numpy target: 1e300 overflows, 1/0 and 10^400 fold to inf, and a bare
    # x[j]^2 or x[j]^3 is numpy's 0-d array power; a seeded point of random
    # coordinates also tells pow from numpy's power and from x[j]*x[j]
    node, y, x, _, _ = case
    text = to_text(node)
    with np.errstate(all="ignore"):  # the convexity test at build evaluates the Hessian
        field = field_from_expression(text, y.size, x.size)
    node = ex.parse(text)
    value_fn = ex.compile_evaluator(node)
    grad_fns = [ex.compile_evaluator(ex.diff_x(node, j)) for j in range(x.size)]
    rng = np.random.default_rng(len(text))
    for y, x in [(y, x), (rng.uniform(-3, 3, y.size), rng.uniform(-3, 3, x.size))]:
        value, value_warnings = warned(field.evaluate, y, x)
        want = warned(lambda: float(value_fn(y, x)))
        assert type(value) is float and same_bits(value, want[0]) and value_warnings == want[1]
        grad, grad_warnings = warned(field.gradient_x, y, x)
        want = warned(lambda: np.array([g(y, x) for g in grad_fns], dtype=float))
        assert grad.dtype == np.float64 and grad.shape == (x.size,)
        assert same_bits(grad, want[0]) and grad_warnings == want[1]
        if field.coefficients is not None:
            got = warned(field.coefficients, y)
            want = warned(field.coefficients, y.view(NumpyPoint))
            assert got[1] == want[1]
            for a, b in zip(got[0], want[0]):
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


def test_bare_powers_keep_the_bits_of_numpy_0d_arrays():
    # the numpy target reads a bare x[j] as a 0-d array: its ^2 is x[j]*x[j],
    # which differs from pow in 83 of 100,000 values, and its ^3 numpy's
    # power, which differs from pow in about 3% of them; y[0]^k is pow
    rng = np.random.default_rng(5)
    points = rng.uniform(-3.0, 3.0, (20000, 2))
    for text in ["x[0]^0", "x[0]^1", "x[0]^2", "x[0]^3", "x[0]^4", "y[0]^2", "y[0]^3",
                 "(x[0] + y[0])^3 - x[0]^2*y[0]"]:
        field = field_from_expression(text, 1, 1)
        fn = ex.compile_evaluator(ex.parse(text))
        got = [field.evaluate(y, x) for y, x in zip(points[:, :1], points[:, 1:])]
        want = [float(fn(y, x)) for y, x in zip(points[:, :1], points[:, 1:])]
        assert np.array(got).tobytes() == np.array(want).tobytes(), text


def test_points_of_any_sequence_agree_and_wrong_shapes_raise():
    text = "(1 + 4*y[0]*(1 - y[0])) * (1 + x[0] + x[1]) + x[2]^3 / (2 + y[1]^2)"
    field = field_from_expression(text, 2, 3)
    y, x = np.array([0.3, -1.5]), np.array([0.25, 1.0, -0.7])
    for form in (list, tuple, np.array):
        assert same_bits(field.evaluate(form(y), form(x)), field.evaluate(y, x))
        assert same_bits(field.gradient_x(form(y), form(x)), field.gradient_x(y, x))
    assert same_bits(field.evaluate([0, 1], (1, 0, 2)), field.evaluate([0.0, 1.0], [1.0, 0.0, 2.0]))
    # the numpy trees broadcast these, or read the first entries of a longer x
    shapes = [(y, x[:2]), (y[:1], x), (y, np.append(x, 5.0)), (y, np.stack([x, x])),
              (y.reshape(1, 2), x), ([], x), (y, []), (y, [[0.25, 1.0, -0.7]]), (0.3, x),
              (np.append(y, 7.0), x)]
    message = re.escape("a point takes y of shape (2,) and x of shape (3,), got ")
    for args in shapes:
        for fn in (field.evaluate, field.gradient_x):
            with pytest.raises(ValueError, match=message):
                fn(*args)


def test_batches_of_a_wrong_shape_raise():
    f = field_from_expression("(1 + 4*y[0]*(1 - y[0])) * (1 + x[0] + x[1])", 1, 4)
    X = np.full((2, 4), 0.5)
    want = f.batch([0.3], X)
    np.testing.assert_array_equal(f.batch(np.full((2, 1), 0.3), X), want)
    np.testing.assert_array_equal(f.batch(np.empty(1), np.empty((0, 4))), [])
    message = re.escape("batch takes y of shape (1,) or (N, 1) and X of shape (N, 4), got ")
    # the first once read 5.52 at each row, from the first four columns
    for y, bad in [([0.3], np.ones((2, 6))), ([0.3], np.ones(4)), ([0.3], np.ones((2, 2))),
                   ([0.3, 7.0], X), (np.full((3, 1), 0.3), X), (np.full((2, 2), 0.3), X),
                   (0.3, X), ([0.3], np.ones((2, 4, 1))), ([0.3], 5.0)]:
        with pytest.raises(ValueError, match=message):
            f.batch(y, bad)
    # a field without evaluate_batch makes the same test before any evaluate
    plain = dataclasses.replace(f, evaluate_batch=None)
    np.testing.assert_array_equal(plain.batch([0.3], X), want)
    with pytest.raises(ValueError, match=message):
        plain.batch([0.3], np.ones((2, 6)))


@pytest.mark.parametrize("bad", [
    "x[0] +", "1 + * 2", "x[", "x[0.5]", "z[0]", "x[0]^x[1]",
    "x[0]^(-1)", "x[0]^1.5", "(1 + 2", "2 @ 3", "x[0]^1e400", "x[1e400]",
])
def test_syntax_errors(bad):
    with pytest.raises(ex.ExpressionError):
        ex.parse(bad)


@pytest.mark.parametrize("bad,message", [
    ("1.2.3 + x[0]", "bad number literal '1.2.3'"),
    ("x[0)", "expected ']', got ')'"),
    ("1 2", "trailing input at token"),
])
def test_syntax_errors_name_the_fault(bad, message):
    with pytest.raises(ex.ExpressionError, match=re.escape(message)):
        ex.parse(bad)


def test_index_range_check():
    node = ex.parse("x[3] + y[1]")
    with pytest.raises(ex.ExpressionError):
        ex.check_indices(node, dim_y=1, dim_x=2)
    ex.check_indices(node, dim_y=2, dim_x=4)
    # both indices are out of range: the error names the first in text order
    with pytest.raises(ex.ExpressionError, match=r"^x\[7\] out of range for dim_x=2$"):
        ex.check_indices(ex.parse("x[7] + y[5]"), dim_y=1, dim_x=2)


@pytest.mark.parametrize("text,expected", [
    ("3", 0),
    ("y[0] + 2", 0),
    ("x[0] + y[0]", 1),
    ("x[0]*x[1]", 2),
    ("(x[0] + x[1] - 1)^2", 2),
    ("x[0]^3", 3),
    ("x[0] / (1 + x[1])", None),
    ("x[0] / 2", 1),
    ("y[0]*x[0]^2", 2),
])
def test_degree_in_x(text, expected):
    assert ex.degree_in_x(ex.parse(text)) == expected


@pytest.mark.parametrize("text", [
    "x[0]^2 + 3*x[1]",
    "(x[0] + x[1] - 1)^2",
    "(1 + 4*y[0]*(1 - y[0])) * (1 + x[0] + x[1])",
    "x[0]*x[1] - x[0]^3 + y[0]/2",
    "x[0] / (2 + x[1]^2)",
])
def test_symbolic_gradient_matches_finite_differences(text):
    node = ex.parse(text)
    fn = ex.compile_evaluator(node)
    grads = [ex.compile_evaluator(ex.diff_x(node, j)) for j in range(2)]
    rng = np.random.default_rng(42)
    for _ in range(20):
        y = rng.uniform(0.1, 0.9, size=1)
        x = rng.uniform(0.1, 0.9, size=2)
        for j in range(2):
            e = np.zeros(2)
            e[j] = 1e-6
            fd = (fn(y, x + e) - fn(y, x - e)) / 2e-6
            assert grads[j](y, x) == pytest.approx(fd, rel=1e-5, abs=1e-7)


@given(st.floats(min_value=-3, max_value=3), st.floats(min_value=-3, max_value=3))
def test_polynomial_identity(a, b):
    # (a + b)^2 == a^2 + 2ab + b^2 evaluated through the parser
    lhs = ev("(x[0] + x[1])^2", [], [a, b])
    rhs = ev("x[0]^2 + 2*x[0]*x[1] + x[1]^2", [], [a, b])
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestDepthBound:
    """Every recursive pass takes about one frame per level (the parser two
    per parenthesis), so MAX_DEPTH keeps them all below Python's default
    recursion limit."""

    @pytest.mark.parametrize("text", [
        "1 + " + " + ".join(["x[0]"] * 400),
        "(" * 700 + "1 + x[0]" + ")" * 700,
        "x[0]" + "^1" * 1000,
        "-" * 1000 + "x[0]",
    ], ids=["sum-400", "parentheses-700", "exponents-1000", "signs-1000"])
    def test_deep_expressions_are_expression_errors(self, text):
        with pytest.raises(ex.ExpressionError, match=f"nests deeper than {ex.MAX_DEPTH}"):
            ex.parse(text)

    def test_deep_derivative_is_an_expression_error(self):
        # d/dx[0] of a square adds two levels to a sum just inside the bound
        node = ex.parse("(" + " + ".join(["x[0]"] * 299) + ")^2")
        assert ex.depth(node) <= ex.MAX_DEPTH
        with pytest.raises(ex.ExpressionError, match=r"derivative in x\[0\] nests deeper"):
            ex.diff_x(node, 0)

    def test_deepest_expressions_run_every_pass(self):
        # 200 parentheses once ended in RecursionError
        texts = ["(" * 200 + "1 + x[0]" + ")" * 200,
                 "(" * (ex.MAX_DEPTH - 1) + "1 + x[0]" + ")" * (ex.MAX_DEPTH - 1),
                 "1 + " + " + ".join(["0.5*x[1]"] * (ex.MAX_DEPTH - 3))]
        for text in texts:
            node = ex.parse(text)
            assert ex.depth(node) <= ex.MAX_DEPTH
            ex.check_indices(node, 1, 2)
            assert not ex.uses_y(node)
            assert ex.degree_in_x(node) == 1
            grads = [ex.compile_evaluator(ex.diff_x(node, j)) for j in range(2)]
            value = ex.compile_evaluator(node)(np.zeros(1), np.ones((3, 2)))
            assert np.all(value > 1) and grads[0](np.zeros(1), np.ones(2)) >= 0
