"""Truncated Taylor arithmetic on normalized coefficients.

A series in dim variables truncated at order is one array c of shape
(n_alpha, ...): c[k] = d^alpha f / alpha! for the k-th multi-index of
grid.multi_indices(order, dim), graded, so the rows of degree d start at
C(d - 1 + dim, dim); each row broadcasts to the points' shape.  A series
known to be a polynomial of lower degree, such as an affine map's, may hold
only its rows through that degree: mul and the sum of powers read the rows
it leaves out as 0 and work on the rows it holds.  mul is the Cauchy
product; div and exp solve for one row at a time by recurrence
over the same index pairs, and exp_neg_recip, exp(-1/u) with its underflow
cutoff, is built from the two; substitute (the chain rule) sums powers of a
series (A. Griewank and A. Walther, Evaluating Derivatives, 2nd ed., SIAM
2008, ch. 13).  from_jet and to_jet convert from and to the Jet dict of
partials, d^alpha f = alpha! c_alpha; a series of one point, with no point
axis, has scalar rows.
"""

from __future__ import annotations

import functools
import math
from types import MappingProxyType

import numpy as np

from .exact import MOLL_CUTOFF
from .grid import Jet, multi_indices


@functools.cache
def index(order: int, dim: int) -> MappingProxyType:
    """The row of each multi-index, read-only; its len() is n_alpha."""
    return MappingProxyType({alpha: k for k, alpha
                             in enumerate(multi_indices(order, dim))})


def _factorial(alpha: tuple[int, ...]) -> int:
    return math.prod(map(math.factorial, alpha))


def _degree(rows: int, dim: int) -> int:
    """The degree through which a series of rows rows holds them."""
    degree = 0
    while math.comb(degree + dim, dim) < rows:
        degree += 1
    return degree


@functools.cache
def _products(order: int, dim: int, low_x: int, low_y: int, top_x: int,
              top_y: int):
    """(k, ((i, j), ...)) for each row k of a Cauchy product with a term:
    alpha_i + alpha_j = alpha_k, low_x <= |alpha_i| <= top_x and low_y <=
    |alpha_j| <= top_y, the rows each factor holds."""
    rows, terms = index(order, dim), {}
    for beta, i in rows.items():
        for gamma, j in rows.items():
            alpha = tuple(b + g for b, g in zip(beta, gamma))
            if (low_x <= sum(beta) <= top_x and low_y <= sum(gamma) <= top_y
                    and alpha in rows):
                terms.setdefault(rows[alpha], []).append((i, j))
    return tuple((k, tuple(terms[k])) for k in sorted(terms))


def from_jet(jet: Jet, order: int) -> np.ndarray:
    """The series of a Jet through order; a partial it leaves out is 0."""
    rows = index(order, len(next(iter(jet))))
    out = np.zeros((len(rows),) + np.broadcast_shapes(
        *(np.shape(jet[a]) for a in rows if a in jet)))
    for alpha, k in rows.items():
        if alpha in jet:
            np.divide(jet[alpha], _factorial(alpha), out=out[k, ...])
    return out


def to_jet(c: np.ndarray, order: int, dim: int) -> Jet:
    """The Jet of a series, each partial a row of c scaled in place."""
    for k, alpha in enumerate(index(order, dim)):
        if _factorial(alpha) != 1:
            c[k] *= _factorial(alpha)
    return dict(zip(index(order, dim), c))


def mul(x: np.ndarray, y: np.ndarray, order: int, dim: int,
        low: tuple[int, int] = (0, 0)) -> np.ndarray:
    """The Cauchy product xy, where x and y are 0 below the degrees low and
    hold their rows through their own degrees; xy is 0 below the sum of
    low and holds its rows through the sum of those degrees, to order."""
    top = (_degree(len(x), dim), _degree(len(y), dim))
    out = np.zeros((math.comb(min(order, sum(top)) + dim, dim),)
                   + np.broadcast_shapes(x.shape[1:], y.shape[1:]))
    for k, ((i, j), *terms) in _products(order, dim, *low, *top):
        np.multiply(x[i], y[j], out=out[k])
        for i, j in terms:
            out[k] += x[i] * y[j]
    return out


def div(a: np.ndarray, b: np.ndarray, order: int, dim: int) -> np.ndarray:
    """The quotient a/b where b_0 != 0: row k is (a_k - sum b_i c_j) / b_0
    over the product's pairs with |alpha_i| >= 1, each c_j a lower row, so
    no power of b_0 is formed."""
    out = np.zeros((len(b),) + np.broadcast_shapes(a.shape[1:], b.shape[1:]))
    out[0] = a[0] / b[0]
    for k, terms in _products(order, dim, 1, 0, order, order):
        out[k] = (a[k] - sum(b[i] * out[j] for i, j in terms)) / b[0]
    return out


def exp(v: np.ndarray, order: int, dim: int) -> np.ndarray:
    """exp of a series by the Euler identity |alpha| e_alpha = sum |beta|
    v_beta e_gamma over beta + gamma = alpha, |beta| >= 1, div's pairs."""
    degree = list(map(sum, index(order, dim)))
    out = np.zeros(v.shape)
    out[0] = np.exp(v[0])
    for k, terms in _products(order, dim, 1, 0, order, order):
        out[k] = sum(degree[i] * v[i] * out[j] for i, j in terms) / degree[k]
    return out


def exp_neg_recip(u: np.ndarray, order: int, dim: int) -> np.ndarray:
    """The series of exp(-1/u), every row 0 where u_0 <= MOLL_CUTOFF: there
    the value underflows and the powers of 1/u_0 would overflow."""
    live = u[0] > MOLL_CUTOFF
    recip = div(from_jet({(0,) * dim: -1.0}, order), np.where(live, u, 1.0),
                order, dim)
    return np.where(live, exp(recip, order, dim), 0.0)


def substitute(f_jet: Jet, delta, order: int, dim: int) -> Jet:
    """The Jet of f o (m_0 + delta) from f's Jet at the map's value m_0, in
    one variable per entry of delta, and delta, the series of the map less
    its value, one per variable, in dim variables."""
    return to_jet(_sum_of_powers(lambda beta: f_jet[beta] / _factorial(beta),
                                 f_jet[(0,) * len(delta)], delta, order, dim),
                  order, dim)


def _sum_of_powers(coeff, value, delta, order: int, dim: int) -> np.ndarray:
    """value plus coeff(beta) delta^beta over 1 <= |beta| <= order.  Each
    monomial is one of the degree below times a variable, and holds the rows
    mul gives it, the only ones added; only that degree is held, and one
    monomial of the top degree until it is added."""
    out = np.zeros((len(index(order, dim)),) + np.broadcast_shapes(
        np.shape(value), *(d.shape[1:] for d in delta)))
    out[0] = value
    layer = [((0,) * len(delta), None)]
    for degree in range(1, order + 1):
        start, grown = math.comb(degree - 1 + dim, dim), []
        for beta, power in layer:
            first = max((v for v, b in enumerate(beta) if b), default=0)
            for v in range(first, len(delta)):
                up = beta[:v] + (beta[v] + 1,) + beta[v + 1:]
                new = delta[v] if power is None else mul(
                    power, delta[v], order, dim, (degree - 1, 1))
                out[start:len(new)] += coeff(up) * new[start:]
                if degree < order:
                    grown.append((up, new))
        layer = grown
    return out
