"""Truncated Taylor arithmetic: products, quotients, exp and exp(-1/u)."""

from fractions import Fraction
import math

import numpy as np
from hypothesis import given, settings, strategies as st

from jetlab import taylor
from jetlab.exact import MOLL_CUTOFF
from jetlab.grid import multi_indices


def series(coeffs, order: int, dim: int, points: int) -> np.ndarray:
    """A (n_alpha, points) series from a flat list of coefficients."""
    n = len(taylor.index(order, dim))
    return np.array(coeffs[:n * points], dtype=np.float64).reshape(n, points)


def polynomial_product(x, y, order: int, dim: int) -> dict:
    """The truncated product of two coefficient lists, by monomials."""
    rows = list(multi_indices(order, dim))
    out = {alpha: 0 for alpha in rows}
    for beta, xb in zip(rows, x):
        for gamma, yg in zip(rows, y):
            alpha = tuple(b + g for b, g in zip(beta, gamma))
            if alpha in out:
                out[alpha] += xb * yg
    return out


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 6), st.integers(1, 2),
       st.lists(st.integers(-20, 20), min_size=2 * 28, max_size=2 * 28))
def test_mul_of_integer_polynomials_is_exact(order, dim, ints):
    n = len(taylor.index(order, dim))
    x, y = ints[:n], ints[28:28 + n]
    got = taylor.mul(np.array(x, dtype=np.float64)[:, None],
                     np.array(y, dtype=np.float64)[:, None], order, dim)
    want = polynomial_product(x, y, order, dim)
    assert got[:, 0].tolist() == [float(v) for v in want.values()]


unit = st.floats(-1.0, 1.0, allow_nan=False)
coefficients = st.lists(unit, min_size=3 * 28, max_size=3 * 28)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 6), st.integers(1, 2), coefficients, coefficients,
       st.lists(st.sampled_from([-1.0, 1.0]), min_size=3, max_size=3))
def test_div_is_the_inverse_of_mul(order, dim, a, b, signs):
    # b_0 lies in [1, 2] or [-2, -1], the other coefficients in [-1, 1]
    a, b = series(a, order, dim, 3), series(b, order, dim, 3)
    b[0] = np.array(signs) * (1.5 + 0.5 * b[0])
    q = taylor.div(a, b, order, dim)
    back = taylor.mul(q, b, order, dim)
    scale = len(b) * np.abs(b).max() * (1.0 + np.abs(q).max())
    assert np.abs(back - a).max() <= 1e-13 * scale


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 6), st.integers(1, 2), coefficients, coefficients)
def test_exp_of_a_sum_is_the_product_of_exps(order, dim, a, b):
    a, b = series(a, order, dim, 3), series(b, order, dim, 3)
    whole = taylor.exp(a + b, order, dim)
    parts = taylor.mul(taylor.exp(a, order, dim), taylor.exp(b, order, dim),
                       order, dim)
    assert np.abs(whole - parts).max() <= 1e-13 * np.abs(whole).max()


def exp_neg_recip_polynomials(top: int) -> list[dict[int, Fraction]]:
    """p_0 .. p_top, {power: coefficient}, with f^(k)(t) = f(t) p_k(1/t)
    for f(t) = exp(-1/t): p_0 = 1, p_(k+1)(u) = u^2 (p_k(u) - p_k'(u))."""
    polys = [{0: Fraction(1)}]
    for _ in range(top):
        p, nxt = polys[-1], {}
        for power, c in p.items():
            nxt[power + 2] = nxt.get(power + 2, 0) + c
            if power:
                nxt[power + 1] = nxt.get(power + 1, 0) - power * c
        polys.append(nxt)
    return polys


def test_exp_neg_recip_is_the_exact_derivatives_through_order_12():
    polys = exp_neg_recip_polynomials(12)
    for t in (Fraction(1), Fraction(1, 2), Fraction(1, 3)):
        u = 1 / t
        f = math.exp(-float(u))
        want = [f * float(sum(c * u**power for power, c in p.items()))
                for p in polys]
        t_series = taylor.from_jet({(0,): np.array([float(t)]),
                                    (1,): 1.0}, 12)
        got = taylor.to_jet(taylor.exp_neg_recip(t_series, 12, 1), 12, 1)
        # p_2(2) = 0, so the bound scales with the largest derivative
        scale = max(map(abs, want))
        for k, w in enumerate(want):
            assert abs(float(got[(k,)][0]) - w) <= 1e-13 * scale, (t, k)


def test_exp_neg_recip_is_0_at_and_below_the_cutoff():
    t = np.array([-1.0, 0.0, MOLL_CUTOFF, np.nextafter(MOLL_CUTOFF, 1.0)])
    got = taylor.exp_neg_recip(taylor.from_jet({(0,): t, (1,): 1.0}, 4),
                               4, 1)
    assert (got[:, :3] == 0.0).all()
    assert not np.signbit(got[:, :3]).any()
    assert (got[:, 3] != 0.0).any()


def test_a_series_with_no_point_axis_round_trips_through_the_jet():
    # x^2 at x = 3 in two variables: 9 + 6 dx + dx^2
    c = np.zeros(len(taylor.index(2, 2)))
    c[taylor.index(2, 2)[(0, 0)]] = 9.0
    c[taylor.index(2, 2)[(1, 0)]] = 6.0
    c[taylor.index(2, 2)[(2, 0)]] = 1.0
    jet = taylor.to_jet(c.copy(), 2, 2)
    assert jet[(2, 0)] == 2.0
    assert {a: float(v) for a, v in jet.items()} == {
        (0, 0): 9.0, (1, 0): 6.0, (0, 1): 0.0, (2, 0): 2.0, (1, 1): 0.0,
        (0, 2): 0.0}
    back = taylor.from_jet({(0, 0): 9.0, (1, 0): 6.0, (2, 0): 2.0}, 2)
    assert back.shape == (6,)
    assert back.tolist() == c.tolist()  # the rows of x^2, unscaled


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 5), st.integers(1, 2), st.integers(0, 5),
       st.integers(0, 5),
       st.lists(st.integers(-20, 20), min_size=2 * 21, max_size=2 * 21))
def test_a_series_holding_its_rows_through_its_degree_multiplies_exactly(
        order, dim, dx, dy, ints):
    # x of degree dx and y of degree dy, each holding only its rows through
    # that degree, multiply to the rows through dx + dy of the product of
    # the full series, where the rows they leave out are 0
    full = len(taylor.index(order, dim))
    x, y = (np.array(ints[s:s + math.comb(min(d, order) + dim, dim)],
                     dtype=np.float64)[:, None]
            for s, d in ((0, dx), (21, dy)))
    got = taylor.mul(x, y, order, dim)
    assert len(got) == math.comb(min(dx + dy, order) + dim, dim)
    padded = [np.concatenate((v, np.zeros((full - len(v), 1)))) for v in (x, y)]
    want = taylor.mul(*padded, order, dim)
    assert got[:, 0].tolist() == want[:len(got), 0].tolist()
    assert not want[len(got):].any()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 4), st.integers(0, 2**32 - 1))
def test_a_linear_map_chains_on_its_degree_1_rows_as_on_all(order, seed):
    # the chain rule through an affine map's series of rows 0..2 gives the
    # values of the same series padded with zero rows through order
    rng = np.random.default_rng(seed)
    f_jet = {alpha: rng.normal(size=8) for alpha in multi_indices(order, 2)}
    delta = np.zeros((2, len(taylor.index(min(order, 1), 2)), 1))
    delta[:, 1:] = rng.normal(size=(2, len(delta[0]) - 1, 1))
    full = np.zeros((2, len(taylor.index(order, 2)), 1))
    full[:, :delta.shape[1]] = delta
    got = taylor.substitute(f_jet, delta, order, 2)
    want = taylor.substitute(f_jet, full, order, 2)
    for alpha in multi_indices(order, 2):
        assert got[alpha].tolist() == want[alpha].tolist()
