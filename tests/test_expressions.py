"""Separable test functions: values, derivatives, traces, derivative bounds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdekit.errors import ParameterError
from pdekit.expressions import (
    Factor,
    ProductExpression,
    SumExpression,
    builtin_expression,
    cos_factor,
    derivative_sup_bound,
    exp_sin_factor,
    one_factor,
    poly_factor,
    sin_factor,
)
from pdekit.fdm import periodic_grid


def central_second(f, x, h=1e-4):
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)


def test_factor_values_and_derivatives():
    xs = np.linspace(-0.9, 0.9, 7)
    for fac, f in [
        (sin_factor(2.0), lambda x: np.sin(2.0 * x)),
        (cos_factor(0.5), lambda x: np.cos(0.5 * x)),
        (exp_sin_factor(math.pi), lambda x: np.exp(np.sin(math.pi * x))),
        (poly_factor([0.5, -2.0, 1.0]), lambda x: 0.5 * x * x - 2.0 * x + 1.0),
        (one_factor(), lambda x: np.ones_like(x)),
    ]:
        assert np.allclose(fac.value(xs), f(xs), atol=1e-14)
        want1 = (f(xs + 1e-5) - f(xs - 1e-5)) / 2e-5
        assert np.allclose(fac.d1(xs), want1, atol=1e-6 * max(1.0, np.abs(want1).max()))
        want2 = central_second(f, xs)
        assert np.allclose(fac.d2(xs), want2, atol=1e-5 * max(1.0, np.abs(want2).max()))


def test_product_expression_derivatives(rng):
    expr = ProductExpression([exp_sin_factor(1.0), sin_factor(2.0)])
    gx = rng.uniform(-0.8, 0.8, size=4)
    gy = rng.uniform(-0.8, 0.8, size=3)
    X, Y = np.meshgrid(gx, gy, indexing="ij")
    u = lambda x, y: np.exp(np.sin(x)) * np.sin(2.0 * y)
    assert np.allclose(expr.value((gx, gy)), u(X, Y), atol=1e-14)
    h = 1e-4
    dxx = (u(X + h, Y) - 2 * u(X, Y) + u(X - h, Y)) / h**2
    assert np.allclose(expr.second_derivative(0, (gx, gy)), dxx, atol=1e-5)
    dxy = (u(X + h, Y + h) - u(X + h, Y - h) - u(X - h, Y + h) + u(X - h, Y - h)) / (4 * h * h)
    assert np.allclose(expr.mixed_derivative(0, 1, (gx, gy)), dxy, atol=1e-5)
    assert np.allclose(expr.mixed_derivative(1, 0, (gx, gy)), dxy, atol=1e-5)
    assert np.allclose(expr.mixed_derivative(0, 0, (gx, gy)),
                       expr.second_derivative(0, (gx, gy)), atol=1e-14)


def test_elliptic_image_combines_terms(rng):
    expr = ProductExpression([sin_factor(1.0), cos_factor(1.0)])
    A = np.array([[2.0, 0.3], [0.1, 1.5]])
    gx = rng.uniform(-0.9, 0.9, size=5)
    gy = rng.uniform(-0.9, 0.9, size=5)
    want = (A[0, 0] * expr.second_derivative(0, (gx, gy))
            + A[1, 1] * expr.second_derivative(1, (gx, gy))
            + (A[0, 1] + A[1, 0]) * expr.mixed_derivative(0, 1, (gx, gy)))
    assert np.allclose(expr.elliptic_image(A, (gx, gy)), want, atol=1e-12)
    with pytest.raises(ParameterError):
        expr.elliptic_image(np.eye(3), (gx, gy))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_meshgrid_arrays_are_evaluated_as_given(d, rng):
    # lines span the tensor grid; the meshgrid of those lines gives the same bits
    expr = builtin_expression("exp-sin", d)
    A = np.diag(rng.uniform(0.5, 2.0, size=d))
    lines = [rng.uniform(-1.0, 1.0, size=3 + j) for j in range(d)]
    X = np.meshgrid(*lines, indexing="ij")
    for evaluate in (expr.value, lambda g: expr.elliptic_image(A, g)):
        on_lines, on_mesh = evaluate(lines), evaluate(X)
        assert on_mesh.shape == tuple(3 + j for j in range(d))
        assert on_lines.tobytes() == on_mesh.tobytes()
    # points scattered off any grid are evaluated pointwise
    pts = rng.uniform(-1.0, 1.0, size=(d, 7, 1))
    want = np.prod([np.exp(np.sin(x)) for x in pts], axis=0)
    assert np.allclose(expr.value(list(pts)), want, rtol=1e-15, atol=0)


FAMILIES = ("exp-sin-pi", "exp-sin", "sin-pi", "sin", "cos", "cubic", "one", "poly", "factors")


def family(name, d, rng):
    """A builtin family, a random cubic on every axis, or a random factor per axis."""
    if name == "poly":
        return ProductExpression([poly_factor(rng.normal(size=4))] * d)
    if name == "factors":
        a = rng.uniform(0.5, 3.0)
        pool = [sin_factor(a), cos_factor(a), exp_sin_factor(a), one_factor(),
                poly_factor(rng.normal(size=3))]
        return ProductExpression([pool[i] for i in rng.integers(len(pool), size=d)])
    return builtin_expression(name, d)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.integers(1, 4), st.sampled_from(FAMILIES), st.integers(1, 4),
       st.integers(0, 2 ** 32 - 1))
def test_lines_views_and_meshgrids_give_the_same_bytes(d, name, n, seed):
    # each factor runs once on its line and the product broadcasts: the bits of the
    # pointwise product on a full meshgrid, in a new writable array of the grid's shape
    rng = np.random.default_rng(seed)
    expr = family(name, d, rng)
    A = rng.uniform(-0.3, 0.3, size=(d, d)) + np.diag(rng.uniform(0.5, 2.0, size=d))
    line = np.pi * np.arange(2 * n) / n
    own = [rng.uniform(-1.0, 1.0, size=int(rng.integers(1, 6))) for _ in range(d)]
    shape = tuple(x.size for x in own)
    own_views = [np.broadcast_to(x, shape)
                 for x in np.meshgrid(*own, indexing="ij", sparse=True)]
    cases = [([line] * d, periodic_grid(n, d), np.meshgrid(*[line] * d, indexing="ij")),
             (own, own_views, np.meshgrid(*own, indexing="ij"))]
    for evaluate in (expr.value, lambda g: expr.elliptic_image(A, g)):
        for lines, views, copies in cases:
            want = evaluate(copies)
            for got in (evaluate(lines), evaluate(views), want):
                assert got.shape == copies[0].shape and got.flags.writeable
                assert got.tobytes() == want.tobytes()


def test_a_scalar_factor_keeps_the_grid_shape():
    two = Factor("2", lambda x: 2.0, lambda x: 0.0, lambda x: 0.0)
    expr = ProductExpression([two, sin_factor(1.0)])
    x, y = np.linspace(0, 1, 3), np.linspace(0, 1, 4)
    got = expr.value((x, y))
    assert got.shape == (3, 4) and got.flags.writeable
    assert got.tobytes() == expr.value(np.meshgrid(x, y, indexing="ij")).tobytes()


def test_boundary_trace_drops_an_axis():
    expr = ProductExpression([sin_factor(1.0), exp_sin_factor(1.0)])
    scale, rest = expr.boundary_trace(0, 1.0)
    assert scale == pytest.approx(np.sin(1.0))
    ys = np.linspace(-1.0, 1.0, 9)
    assert rest.d == 1
    assert np.allclose(scale * rest.value((ys,)), np.sin(1.0) * np.exp(np.sin(ys)),
                       atol=1e-14)
    # d = 1 trace is a plain number with no remaining expression
    scale1, rest1 = ProductExpression([cos_factor(2.0)]).boundary_trace(0, -1.0)
    assert scale1 == pytest.approx(np.cos(-2.0))
    assert rest1 is None


def test_sum_expression(rng):
    a = ProductExpression([sin_factor(1.0), sin_factor(1.0)])
    b = ProductExpression([cos_factor(2.0), one_factor()])
    s = SumExpression([a, b])
    gx = rng.uniform(-1.0, 1.0, size=4)
    gy = rng.uniform(-1.0, 1.0, size=4)
    assert np.allclose(s.value((gx, gy)), a.value((gx, gy)) + b.value((gx, gy)), atol=1e-14)
    A = np.eye(2)
    assert np.allclose(s.elliptic_image(A, (gx, gy)),
                       a.elliptic_image(A, (gx, gy)) + b.elliptic_image(A, (gx, gy)),
                       atol=1e-13)
    assert s.d == 2


def test_expression_guards():
    with pytest.raises(ParameterError):
        ProductExpression([])
    expr = ProductExpression([sin_factor(1.0), sin_factor(1.0)])
    with pytest.raises(ParameterError):
        expr.value((np.zeros(3),))


def test_builtin_expressions():
    for name in ("exp-sin-pi", "exp-sin", "sin-pi", "sin", "cos", "cubic", "one"):
        expr = builtin_expression(name, 2)
        assert expr.d == 2
    xs = np.array([0.25])
    assert builtin_expression("exp-sin-pi", 1).value((xs,))[0] == pytest.approx(
        np.exp(np.sin(np.pi * 0.25)))
    with pytest.raises(ParameterError):
        builtin_expression("tanh", 1)
    with pytest.raises(ParameterError):
        builtin_expression("sin", 0)


def test_derivative_sup_bound_low_orders():
    # m = 1: sup |a cos(ax) e^{sin(ax)}|; m = 2 checked against differences
    for a in (1.0, math.pi):
        sups = derivative_sup_bound(a, 2)
        xs = np.linspace(-1.0, 1.0, 20001)
        f = np.exp(np.sin(a * xs))
        d1 = np.gradient(f, xs)
        d2 = np.gradient(d1, xs)
        assert sups[0] == pytest.approx(np.abs(d1).max(), rel=1e-3)
        assert sups[1] == pytest.approx(np.abs(d2).max(), rel=1e-2)


def test_derivative_sup_bound_growth_anchors():
    # deep-order sups used for truncation-rule calibration
    hi = derivative_sup_bound(math.pi, 44)
    lo = derivative_sup_bound(1.0, 44)
    assert hi[-1] == pytest.approx(1.378e58, rel=0.05)
    assert lo[-1] == pytest.approx(8.617e35, rel=0.05)
    assert np.all(np.diff(np.log(hi[4:])) > 0)  # superexponential growth
    with pytest.raises(ParameterError):
        derivative_sup_bound(1.0, 0)
