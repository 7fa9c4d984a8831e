import numpy as np
import pytest
from hypothesis import given, strategies as st

from bilevelpen import expressions as ex


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


@pytest.mark.parametrize("bad", [
    "x[0] +", "1 + * 2", "x[", "x[0.5]", "z[0]", "x[0]^x[1]",
    "x[0]^(-1)", "x[0]^1.5", "(1 + 2", "2 @ 3", "x[0]^1e400", "x[1e400]",
])
def test_syntax_errors(bad):
    with pytest.raises(ex.ExpressionError):
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
