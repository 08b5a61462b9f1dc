"""Valuations, polynomials over F_p and the reduction map."""

import random
from fractions import Fraction
from itertools import product

import pytest

from wildram.exactmath import (
    FpPolynomial,
    NEG_INFINITY,
    as_reduce,
    as_reduce_with_witness,
    format_rational,
    is_prime,
    least_nonresidue,
    parse_rational,
    prime_factors,
    vp,
)


def test_vp_worked_examples():
    assert vp(9408, 7) == 2  # 9408 = 96 * 98 = 96 * 2 * 7^2
    assert vp(96, 7) == 0
    assert vp(98, 7) == 2


def test_vp_errors():
    with pytest.raises(ValueError):
        vp(0, 7)
    with pytest.raises(ValueError):
        vp(10, 6)


def test_vp_additive_on_products():
    rng = random.Random(7)
    for _ in range(200):
        p = rng.choice((3, 5, 7, 13))
        a = rng.randint(1, 10**6)
        b = rng.randint(1, 10**6)
        assert vp(a * b, p) == vp(a, p) + vp(b, p)


def test_prime_helpers():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert prime_factors(9408) == (2, 3, 7)
    assert least_nonresidue(97) == 5
    assert least_nonresidue(7) == 3


def test_rational_round_trip():
    assert parse_rational("3/2") == Fraction(3, 2)
    assert parse_rational("7") == Fraction(7)
    assert format_rational(Fraction(3, 2)) == "3/2"
    assert format_rational(Fraction(14, 2)) == "7"
    with pytest.raises(ValueError):
        parse_rational("3/2/1")


def test_polynomial_basics():
    zero = FpPolynomial.zero(5)
    assert zero.is_zero and zero.degree == NEG_INFINITY
    g = FpPolynomial.from_terms(5, {3: 7, 0: 5})  # coefficients normalize mod 5
    assert g.coeffs == (0, 0, 0, 2)
    assert g.degree == 3
    h = FpPolynomial.monomial(5, 1, 1)
    assert str(g + h) == "2*x^3 + x"
    assert (g - g).is_zero
    assert (g * h).degree == 4
    assert (h * h * h).coeffs == (0, 0, 0, 1)
    assert g.pth_power() == FpPolynomial.from_terms(5, {15: 2})


def test_as_reduce_worked_examples():
    assert as_reduce(FpPolynomial.monomial(5, 1, 5)) == FpPolynomial.monomial(5, 1, 1)
    assert as_reduce(FpPolynomial.monomial(3, 1, 6)) == FpPolynomial.monomial(3, 1, 2)
    g = FpPolynomial.from_terms(3, {4: 1, 3: 1})
    assert as_reduce(g) == FpPolynomial.from_terms(3, {4: 1, 1: 1})


def test_as_reduce_exhaustive_minimality_oracle():
    # no shift by w^p - w lowers the degree of x^4 + x^3 below 4 (p = 3)
    g = FpPolynomial.from_terms(3, {4: 1, 3: 1})
    for coeffs in product(range(3), repeat=5):
        w = FpPolynomial(3, coeffs)
        shifted = g - (w.pth_power() - w)
        assert shifted.degree >= 4


def _random_poly(rng, p, max_degree=30, max_terms=5):
    support = rng.sample(range(max_degree + 1), k=rng.randint(1, max_terms))
    return FpPolynomial.from_terms(p, {d: rng.randint(1, p - 1) for d in support})


@pytest.mark.parametrize("p", [3, 5, 7])
def test_as_reduce_properties(p):
    rng = random.Random(p)
    for _ in range(100):
        g = _random_poly(rng, p)
        reduced, w = as_reduce_with_witness(g)
        # witness identity: g - (w^p - w) = reduced
        assert g - (w.pth_power() - w) == reduced
        # idempotent
        assert as_reduce(reduced) == reduced
        # output degree prime to p, or degree <= 0
        if not reduced.is_zero and reduced.degree > 0:
            assert reduced.degree % p != 0
        for d, _ in reduced.terms():
            assert d == 0 or d % p != 0
        # coset invariance under a random shift
        shift = _random_poly(rng, p, max_degree=10)
        assert as_reduce(g + shift.pth_power() - shift) == reduced


def test_as_reduce_cancellation():
    # x^4 + 2x^12 is a full w^p - w image shift away from zero (p = 3)
    g = FpPolynomial.from_terms(3, {4: 1, 12: 2})
    assert as_reduce(g).is_zero


def test_as_reduce_rejects_characteristic_two():
    with pytest.raises(ValueError):
        as_reduce(FpPolynomial.monomial(2, 1, 2))
