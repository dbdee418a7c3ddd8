"""Closed-form test functions with exact derivatives.

The solvers are exercised against manufactured solutions built from a small
set of 1D factors (sines, cosines, exp of a sine, low-degree polynomials)
combined as products across axes and sums of such products.  Every factor
knows its first two derivatives, which is enough to form the image of any
pure second-order elliptic operator, and the exp-sine factor additionally
supports arbitrarily high derivative sup-bounds through an exact polynomial
recurrence (used to calibrate truncation-order choices).

No expression parser: problem specs name these forms directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

__all__ = [
    "Factor",
    "sin_factor",
    "cos_factor",
    "exp_sin_factor",
    "poly_factor",
    "one_factor",
    "ProductExpression",
    "SumExpression",
    "builtin_expression",
    "derivative_sup_bound",
]


@dataclass(frozen=True)
class Factor:
    """A 1D function with its first and second derivatives."""

    name: str
    value: callable
    d1: callable
    d2: callable


def sin_factor(freq: float = 1.0) -> Factor:
    a = float(freq)
    return Factor(
        name=f"sin({a:g}x)",
        value=lambda x: np.sin(a * x),
        d1=lambda x: a * np.cos(a * x),
        d2=lambda x: -a * a * np.sin(a * x),
    )


def cos_factor(freq: float = 1.0) -> Factor:
    a = float(freq)
    return Factor(
        name=f"cos({a:g}x)",
        value=lambda x: np.cos(a * x),
        d1=lambda x: -a * np.sin(a * x),
        d2=lambda x: -a * a * np.cos(a * x),
    )


def exp_sin_factor(freq: float = 1.0) -> Factor:
    a = float(freq)
    return Factor(
        name=f"exp(sin({a:g}x))",
        value=lambda x: np.exp(np.sin(a * x)),
        d1=lambda x: a * np.cos(a * x) * np.exp(np.sin(a * x)),
        d2=lambda x: a * a * (np.cos(a * x) ** 2 - np.sin(a * x)) * np.exp(np.sin(a * x)),
    )


def poly_factor(coeffs) -> Factor:
    c = np.asarray(coeffs, dtype=float)
    d1c = np.polyder(c)
    d2c = np.polyder(d1c)
    return Factor(
        name=f"poly({list(c)})",
        value=lambda x: np.polyval(c, x),
        d1=lambda x: np.polyval(d1c, x),
        d2=lambda x: np.polyval(d2c, x),
    )


def one_factor() -> Factor:
    return Factor(
        name="1",
        value=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        d1=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        d2=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    )


class ProductExpression:
    """u(x) = prod_j factor_j(x_j) over d axes.

    Its evaluations take one coordinate array per axis and return a new
    array of the grid's shape.  1D lines span a tensor grid, and so do
    meshgrid arrays whose array j has stride 0 off axis j (the read-only
    views fdm.periodic_grid returns): there each factor is evaluated once on
    its axis line and the product broadcasts, with the bits of the pointwise
    product.  Arrays of any other shape are evaluated pointwise as given.
    """

    def __init__(self, factors):
        self.factors = list(factors)
        if not self.factors:
            raise ParameterError("need at least one factor")

    @property
    def d(self) -> int:
        return len(self.factors)

    def _grids(self, grids):
        """(coordinates per axis, grid shape): axis lines shaped to broadcast, or the arrays."""
        if len(grids) != self.d:
            raise ParameterError(f"expected {self.d} coordinate arrays, got {len(grids)}")
        d = self.d
        arrays = [np.asarray(g, dtype=float) for g in grids]
        if all(a.ndim == 1 for a in arrays):
            lines = arrays
        elif all(a.ndim == d and a.shape == arrays[0].shape
                 and all(step == 0 for k, step in enumerate(a.strides) if k != j)
                 for j, a in enumerate(arrays)):
            lines = [a[(0,) * j + (slice(None),) + (0,) * (d - 1 - j)]
                     for j, a in enumerate(arrays)]
        else:
            return arrays, np.broadcast_shapes(*(a.shape for a in arrays))
        shaped = [x.reshape([-1 if k == j else 1 for k in range(d)]) for j, x in enumerate(lines)]
        return shaped, tuple(x.size for x in lines)

    def _eval(self, grids, which):
        """which maps axis -> 0, 1 or 2 (derivative order); absent axes use 0."""
        X, shape = self._grids(grids)
        out = 1.0
        for j, f in enumerate(self.factors):
            fn = (f.value, f.d1, f.d2)[which.get(j, 0)]
            out = out * fn(X[j])
        # a factor that returns a scalar leaves its axis out of the product
        return out if np.shape(out) == shape else np.broadcast_to(out, shape).copy()

    def value(self, grids):
        return self._eval(grids, {})

    def second_derivative(self, axis: int, grids):
        return self._eval(grids, {axis: 2})

    def mixed_derivative(self, ax1: int, ax2: int, grids):
        if ax1 == ax2:
            return self.second_derivative(ax1, grids)
        return self._eval(grids, {ax1: 1, ax2: 1})

    def elliptic_image(self, A, grids):
        """f = sum_{j1,j2} A_{j1,j2} d^2 u / dx_j1 dx_j2 on the grid."""
        A = np.asarray(A)
        if A.shape != (self.d, self.d):
            raise ParameterError(f"coefficient matrix shape {A.shape} != ({self.d}, {self.d})")
        out = 0.0
        for j1 in range(self.d):
            for j2 in range(self.d):
                if A[j1, j2] != 0:
                    out = out + A[j1, j2] * self.mixed_derivative(j1, j2, grids)
        return out

    def boundary_trace(self, axis: int, x_value: float):
        """The (d-1)-dimensional restriction u(..., x_axis = x_value, ...).

        Returns (scale, ProductExpression over the remaining axes); for d=1
        the expression part is None and scale is the boundary value itself.
        """
        scale = float(self.factors[axis].value(np.array(x_value)))
        rest = [f for j, f in enumerate(self.factors) if j != axis]
        if not rest:
            return scale, None
        return scale, ProductExpression(rest)


class SumExpression:
    """A sum of product expressions over the same axes."""

    def __init__(self, terms):
        self.terms = list(terms)
        if not self.terms:
            raise ParameterError("need at least one term")
        d = self.terms[0].d
        if any(t.d != d for t in self.terms):
            raise ParameterError("terms must share dimensionality")

    @property
    def d(self) -> int:
        return self.terms[0].d

    def value(self, grids):
        return sum(t.value(grids) for t in self.terms)

    def elliptic_image(self, A, grids):
        return sum(t.elliptic_image(A, grids) for t in self.terms)


_BUILTINS = {
    "exp-sin-pi": lambda d: ProductExpression([exp_sin_factor(math.pi)] * d),
    "exp-sin": lambda d: ProductExpression([exp_sin_factor(1.0)] * d),
    "sin-pi": lambda d: ProductExpression([sin_factor(math.pi)] * d),
    "sin": lambda d: ProductExpression([sin_factor(1.0)] * d),
    "cos": lambda d: ProductExpression([cos_factor(1.0)] * d),
    "cubic": lambda d: ProductExpression([poly_factor([1.0, -0.5, -1.0, 0.25])] * d),
    "one": lambda d: ProductExpression([one_factor()] * d),
}


def builtin_expression(name: str, d: int) -> ProductExpression:
    """Look up a named test family at dimension d."""
    if name not in _BUILTINS:
        raise ParameterError(f"unknown expression {name!r}; available: {sorted(_BUILTINS)}")
    if d < 1:
        raise ParameterError(f"need d >= 1, got {d}")
    return _BUILTINS[name](d)


def derivative_sup_bound(freq: float, max_order: int, grid_points: int = 4001) -> np.ndarray:
    """sup_x |d^m/dx^m exp(sin(freq x))| on [-1, 1] for m = 1..max_order.

    Every derivative has the form P_m(s, c) * exp(s) with s = sin(freq x),
    c = cos(freq x) and P_m a polynomial; differentiate monomials exactly
    (s -> freq*c, c -> -freq*s, plus the chain term P*freq*c) and evaluate
    the sup on a fine grid.  Sups grow without bound in m for any freq, so
    callers choose a finite window and should check their use stays inside.
    """
    if max_order < 1:
        raise ParameterError(f"need max_order >= 1, got {max_order}")
    a = float(freq)
    xs = np.linspace(-1.0, 1.0, grid_points)
    s = np.sin(a * xs)
    c = np.cos(a * xs)
    u = np.exp(s)
    poly = {(0, 0): 1.0}  # monomial s^i c^j -> coefficient
    sups = np.zeros(max_order)
    for m in range(max_order):
        nxt = {}

        def add(key, val):
            nxt[key] = nxt.get(key, 0.0) + val

        for (i, j), v in poly.items():
            if i > 0:
                add((i - 1, j + 1), v * i * a)
            if j > 0:
                add((i + 1, j - 1), -v * j * a)
            add((i, j + 1), v * a)
        poly = {k: v for k, v in nxt.items() if v != 0.0}
        total = np.zeros_like(xs)
        for (i, j), v in poly.items():
            total += v * s ** i * c ** j
        sups[m] = np.abs(total * u).max()
    return sups
