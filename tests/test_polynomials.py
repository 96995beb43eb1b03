import random
from fractions import Fraction as Fr

import pytest

from posetpoly import polynomials
from posetpoly.polynomials import (
    UniPoly,
    binomial_poly,
    delta,
    delta_inverse,
    from_binomial_basis,
    lagrange_interpolate,
    nabla,
    nabla_inverse,
)

T = UniPoly.variable()


def random_poly(rng: random.Random, max_degree: int = 6) -> UniPoly:
    degree = rng.randint(0, max_degree)
    return UniPoly([Fr(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(degree + 1)])


# --- construction and ring arithmetic ---


def test_trailing_zeros_stripped():
    assert UniPoly([1, 2, 0, 0]).coeffs == (Fr(1), Fr(2))
    assert UniPoly([0, 0]).coeffs == ()
    assert not UniPoly()
    assert UniPoly().degree == -1


def test_additive_inverse_gives_zero():
    assert (T + (-T)).coeffs == ()


def test_product_of_one_minus_and_one_plus():
    one_minus = UniPoly([1, -1])
    one_plus = UniPoly([1, 1])
    assert one_minus * one_plus == UniPoly([1, 0, -1])


def test_eval_squares():
    assert (T * T)(3) == 9


def test_arithmetic_matches_pointwise_evaluation():
    rng = random.Random(90125)
    for _ in range(40):
        p, q = random_poly(rng), random_poly(rng)
        x = Fr(rng.randint(-9, 9), rng.randint(1, 4))
        assert (p + q)(x) == p(x) + q(x)
        assert (p * q)(x) == p(x) * q(x)
        assert (p - q) + q == p


def test_power_and_shift():
    p = UniPoly([1, 1])  # 1 + t
    assert p**3 == UniPoly([1, 3, 3, 1])
    assert T.shift(1) == UniPoly([1, 1])
    assert (T * T).shift(-1) == UniPoly([1, -2, 1])


def test_reflect():
    p = UniPoly([1, 2, 3])
    assert p.reflect() == UniPoly([1, -2, 3])
    assert p.reflect().reflect() == p


def test_derivative_and_integral():
    p = UniPoly([5, 0, 3])  # 5 + 3t^2
    assert p.derivative() == UniPoly([0, 6])
    assert p.integral() == UniPoly([0, 5, 0, 1])
    rng = random.Random(7)
    for _ in range(20):
        q = random_poly(rng)
        assert q.integral().derivative() == q
        assert q.integral()(0) == 0


def test_immutability():
    with pytest.raises(AttributeError):
        T.coeffs = ()  # type: ignore[misc]


# --- finite differences ---


def test_delta_of_t_is_one():
    assert delta(T) == UniPoly([1])


def test_delta_of_triangular_numbers():
    # t(t-1)/2 steps by t
    assert delta(UniPoly([0, Fr(-1, 2), Fr(1, 2)])) == T


def test_delta_of_constant_is_zero():
    assert delta(UniPoly([17])) == UniPoly()


def test_delta_inverse_of_one():
    assert delta_inverse(UniPoly([1])) == T


def test_delta_inverse_of_t():
    assert delta_inverse(T) == UniPoly([0, Fr(-1, 2), Fr(1, 2)])


def test_delta_inverse_of_t_squared():
    # t(t-1)(2t-1)/6
    expected = UniPoly([0, Fr(1, 6), Fr(-1, 2), Fr(1, 3)])
    assert delta_inverse(T * T) == expected


def test_nabla_of_t_is_one():
    assert nabla(T) == UniPoly([1])


def test_nabla_inverse_of_one():
    assert nabla_inverse(UniPoly([1])) == T


def test_nabla_inverse_of_t():
    # t(t+1)/2, and it indeed satisfies g(t) - g(t-1) = t
    g = nabla_inverse(T)
    assert g == UniPoly([0, Fr(1, 2), Fr(1, 2)])
    assert nabla(g) == T


def test_difference_inverses_round_trip():
    """delta_inverse and nabla_inverse are exact right inverses pinned at 0."""
    rng = random.Random(424242)
    for _ in range(40):
        p = random_poly(rng)
        g = delta_inverse(p)
        assert delta(g) == p
        assert g(0) == 0
        h = nabla_inverse(p)
        assert nabla(h) == p
        assert h(0) == 0


def test_nabla_inverse_is_partial_sum():
    # g(t) = sum_{j=1}^t p(j) at integer arguments
    rng = random.Random(11)
    for _ in range(10):
        p = random_poly(rng, max_degree=4)
        g = nabla_inverse(p)
        acc = Fr(0)
        for t in range(1, 8):
            acc += p(t)
            assert g(t) == acc


def test_binomial_poly():
    assert binomial_poly(0) == UniPoly([1])
    assert binomial_poly(1) == T
    assert binomial_poly(2) == UniPoly([0, Fr(-1, 2), Fr(1, 2)])
    for k in range(1, 6):
        assert delta(binomial_poly(k)) == binomial_poly(k - 1)
        assert binomial_poly(k)(0) == 0


# --- interpolation ---


def test_from_binomial_basis_matches_the_binomial_sum():
    rng = random.Random(7)
    for _ in range(50):
        coords = [rng.randint(-40, 40) for _ in range(rng.randint(1, 8))]
        expected = UniPoly()
        for k, c in enumerate(coords):
            expected = expected + c * binomial_poly(k)
        assert from_binomial_basis(coords) == expected


def test_from_binomial_basis_shares_equal_fractions_within_a_bound():
    first = from_binomial_basis((0, 0, 3))  # 3·C(t,2) = 3/2·t^2 - 3/2·t
    again = from_binomial_basis((0, 0, 3))
    assert first == again and first is not again
    assert first.coeffs[2] is again.coeffs[2]
    for odd in range(1, 2 * polynomials._SHARED_MAX + 20, 2):
        assert from_binomial_basis((0, 0, odd)).coeffs[2] == Fr(odd, 2)
    assert len(polynomials._SHARED_FRACTIONS) <= polynomials._SHARED_MAX


def test_lagrange_line():
    assert lagrange_interpolate([(0, 0), (1, 1)]) == T


def test_lagrange_parabola():
    assert lagrange_interpolate([(0, 0), (1, 1), (2, 4)]) == T * T


def test_lagrange_triangular_numbers():
    pts = [(0, 0), (1, 1), (2, 3), (3, 6)]
    assert lagrange_interpolate(pts) == UniPoly([0, Fr(1, 2), Fr(1, 2)])


def test_lagrange_duplicate_abscissa_rejected():
    with pytest.raises(ValueError):
        lagrange_interpolate([(0, 0), (0, 1)])


def test_lagrange_reproduces_random_polys():
    rng = random.Random(5150)
    for _ in range(15):
        p = random_poly(rng, max_degree=5)
        pts = [(Fr(x), p(x)) for x in range(p.degree + 2)]
        assert lagrange_interpolate(pts) == p


def _textbook_lagrange(points):
    """sum_i y_i · prod_{j != i} (t - x_j) / (x_i - x_j), term by term."""
    total = UniPoly()
    for i, (xi, yi) in enumerate(points):
        basis = UniPoly((yi,))
        for j, (xj, _) in enumerate(points):
            if j != i:
                basis = basis * UniPoly((-xj, 1)) * (1 / (xi - xj))
        total = total + basis
    return total


def test_lagrange_matches_textbook_sum():
    rng = random.Random(7321)
    for _ in range(200):
        count = rng.randint(0, 9)
        xs = set()
        while len(xs) < count:
            xs.add(Fr(rng.randint(-40, 40), rng.randint(1, 5)))
        pts = [(x, Fr(rng.randint(-60, 60), rng.randint(1, 7))) for x in xs]
        assert lagrange_interpolate(pts) == _textbook_lagrange(pts), pts


# --- rendering ---


def test_render_descending_powers():
    assert str(UniPoly([0, Fr(1, 2), Fr(1, 2)])) == "1/2·t^2 + 1/2·t"


def test_render_edge_cases():
    assert str(UniPoly()) == "0"
    assert str(UniPoly([0, -1])) == "-t"
    assert str(UniPoly([-3, 0, 1])) == "t^2 - 3"
    assert str(UniPoly([Fr(5, 3)])) == "5/3"
    assert UniPoly([0, 1]).render("λ") == "λ"
