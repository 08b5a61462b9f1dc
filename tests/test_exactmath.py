"""Valuations, polynomials over F_p and the reduction map."""

import random
import sys
import time
from array import array
from fractions import Fraction
from itertools import product
from types import SimpleNamespace

import pytest

from wildram import exactmath
from wildram.exactmath import (
    _LANES,
    FpPolynomial,
    NEG_INFINITY,
    as_reduce,
    as_reduce_with_witness,
    format_rational,
    is_prime,
    least_nonresidue,
    mul_coeffs,
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


def test_parse_rational_reads_only_n_and_n_over_d():
    assert parse_rational(" -3/6 ") == Fraction(-1, 2)
    assert parse_rational("+4") == Fraction(4)
    assert parse_rational("0/5") == 0
    # exponents name huge numbers in a few characters; decimals, underscores,
    # non-ASCII digits and numerals past the int-string limit are refused too
    for text in ("1e100000", "1E5", "3/2e5", "1.5", ".5", "1_000", "3/-2", "3/0",
                 "\u0663", "", "/2", "9" * 5000):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="cannot parse rational value"):
            parse_rational(text)
        assert time.perf_counter() - start < 1


def test_polynomial_basics():
    zero = FpPolynomial.zero(5)
    assert zero.is_zero and zero.degree == NEG_INFINITY
    g = FpPolynomial.from_terms(5, {3: 7, 0: 5})  # coefficients normalize mod 5
    assert g.coeffs == (0, 0, 0, 2)
    assert g.degree == 3
    h = FpPolynomial.monomial(5, 1, 1)
    assert str(g + h) == "2*x^3 + x"
    assert (g + -g).is_zero
    assert g.pth_power() == FpPolynomial.from_terms(5, {15: 2})


def schoolbook(a, b, modulus):
    """The product oracle: every pair of terms, reduced as it goes."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % modulus
    return out


def slot_bytes(shortest, modulus):
    """Bytes of the exact slot bound, min(len a, len b) (modulus - 1)^2."""
    return ((shortest * (modulus - 1) ** 2).bit_length() + 7) // 8


# 16^k: at one coefficient the bound (16^k - 1)^2 fills k bytes to the top
# bit, and at 4 or more it needs k + 1, so each lane width (1, 2, 4, 8) is
# met at its upper edge, 3 rounds up to 4, 5 to 7 up to 8, and 9 and past
# are refused; 999999999989 is the largest prime below PRIME_LIMIT
MUL_MODULI = [2, 3, 13, 169, 257, 10007, 2**31 - 1] + [16**k for k in range(1, 10)] + [999999999989]
MUL_SHAPES = [(0, 0), (0, 3), (3, 0), (1, 1), (1, 9), (9, 1), (4, 17), (60, 7), (120, 120)]


def check_product(a, b, modulus):
    """mul_coeffs(a, b) is the schoolbook product, or a RuntimeError that
    names the slot width when no 8-byte lane holds the slot."""
    if a and b and slot_bytes(min(len(a), len(b)), modulus) > 8:
        width = slot_bytes(min(len(a), len(b)), modulus)
        with pytest.raises(RuntimeError, match=f"slot of {width} bytes"):
            mul_coeffs(a, b, modulus)
    else:
        assert mul_coeffs(a, b, modulus) == schoolbook(a, b, modulus)


@pytest.mark.parametrize("modulus", MUL_MODULI)
def test_mul_coeffs_matches_schoolbook(modulus):
    # 257 and 10007 need two bytes per coefficient, 2^31 - 1 four, and its
    # product slots eight or nine; 2^31 - 1, 16^8, 16^9 and 999999999989
    # reach slots past 8 bytes, which are refused
    rng = random.Random(modulus)
    for la, lb in MUL_SHAPES:
        for fill in ("random", "top"):
            def draw(n):
                if fill == "top":
                    return [modulus - 1] * n  # the slot bound is met exactly
                return [rng.randrange(modulus) for _ in range(n)]

            a, b = draw(la), draw(lb)
            check_product(a, b, modulus)
            check_product(a, a, modulus)
            check_product(tuple(a), tuple(b), modulus)


class BigEndianArray(array):
    """array as a big-endian host lays out its bytes: each lane byteswapped
    on the way out and on the way in."""

    def tobytes(self):
        lanes = array(self.typecode, self)
        lanes.byteswap()
        return lanes.tobytes()

    def frombytes(self, data):
        lanes = array(self.typecode)
        lanes.frombytes(data)
        lanes.byteswap()
        self.extend(lanes)


@pytest.mark.skipif(sys.byteorder == "big", reason="the host itself is big-endian")
def test_mul_coeffs_on_a_big_endian_host(monkeypatch):
    # the first coefficient lands in the top slot, so both sides and the
    # product are reversed, and the lanes still read back low degree first
    assert BigEndianArray("H", [1]).tobytes() == b"\x00\x01"
    monkeypatch.setattr(exactmath, "sys", SimpleNamespace(byteorder="big"))
    monkeypatch.setattr(exactmath, "array", BigEndianArray)
    rng, lanes = random.Random(8), set()
    for modulus in (2, 13, 169, 257, 10007, 16**3, 16**5, 2**31 - 1, 16**7, 16**8):
        for la, lb in MUL_SHAPES:
            a = [rng.randrange(modulus) for _ in range(la)]
            b = [modulus - 1] * lb  # the slot bound is met exactly
            for x, y in ((a, b), (b, b)):
                if x and y:
                    width = slot_bytes(min(len(x), len(y)), modulus)
                    if width > 8:
                        continue
                    lanes.add(_LANES[width][0])
                assert mul_coeffs(x, y, modulus) == schoolbook(x, y, modulus)
    assert lanes == {1, 2, 4, 8}


def test_mul_coeffs_moduli_reach_every_lane_edge():
    # 1, 4, 7 and 120 are the shorter sides of the schoolbook test's shapes
    widths = {slot_bytes(k, m) for m in MUL_MODULI for k in (1, 4, 7, 120)}
    assert set(range(1, 10)) <= widths and max(widths) > 9
    for k in range(1, 9):  # a bound of 8k bits: the top bit of a k-byte slot
        assert ((16**k - 1) ** 2).bit_length() == 8 * k
    # each exact width reads through the narrowest lane that holds it, and
    # each lane's typecode has that lane's item size
    assert {w: lane for w, (lane, _) in _LANES.items()} == {
        1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 6: 8, 7: 8, 8: 8,
    }
    for lane, code in _LANES.values():
        assert array(code).itemsize == lane


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
        shifted = g + -(w.pth_power() + -w)
        assert shifted.degree >= 4


def _random_poly(rng, p, max_degree=30, max_terms=5):
    support = rng.sample(range(max_degree + 1), k=rng.randint(1, max_terms))
    return FpPolynomial.from_terms(p, {d: rng.randint(1, p - 1) for d in support})


def max_first_reduction(g):
    """The reduction oracle: rescan for the largest reducible degree and
    rewrite it, until none is left."""
    p = g.p
    work = {d: c for d, c in g.terms()}
    shift = {}
    while True:
        reducible = [d for d in work if d >= p and d % p == 0]
        if not reducible:
            break
        d = max(reducible)
        c = work.pop(d)
        k = d // p
        shift[k] = (shift.get(k, 0) + c) % p
        nc = (work.get(k, 0) + c) % p
        if nc:
            work[k] = nc
        else:
            work.pop(k, None)
    return FpPolynomial.from_terms(p, work), FpPolynomial.from_terms(p, shift)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_as_reduce_matches_max_first_oracle(p):
    rng = random.Random(100 + p)
    for _ in range(200):
        density = rng.random()
        g = FpPolynomial(
            p, tuple(rng.randrange(p) if rng.random() < density else 0 for _ in range(rng.randint(0, 3 * p * p)))
        )
        assert as_reduce_with_witness(g) == max_first_reduction(g)
    dense = FpPolynomial(p, tuple(rng.randrange(1, p) for _ in range(2001)))
    assert as_reduce_with_witness(dense) == max_first_reduction(dense)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_as_reduce_properties(p):
    rng = random.Random(p)
    for _ in range(100):
        g = _random_poly(rng, p)
        reduced, w = as_reduce_with_witness(g)
        # witness identity: g - (w^p - w) = reduced
        assert g + -(w.pth_power() + -w) == reduced
        # idempotent
        assert as_reduce(reduced) == reduced
        # output degree prime to p, or degree <= 0
        if not reduced.is_zero and reduced.degree > 0:
            assert reduced.degree % p != 0
        for d, _ in reduced.terms():
            assert d == 0 or d % p != 0
        # coset invariance under a random shift
        shift = _random_poly(rng, p, max_degree=10)
        assert as_reduce(g + shift.pth_power() + -shift) == reduced


def popping_normalization(p, coeffs):
    """The normalization oracle: reduce mod p, then pop trailing zeros one
    at a time."""
    c = [x % p for x in coeffs]
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def test_trailing_zeros_are_cut_as_the_popping_loop_cuts_them():
    # x^780 + 2x^7 at p = 13: x^780 -> x^60 leaves 720 zeros above x^60 in
    # the sweep's working list, and the witness is w = x^60
    p = 13
    work, shift = [0] * 781, [0] * 61
    work[7], work[60], shift[60] = 2, 1, 1
    reduced, w = as_reduce_with_witness(FpPolynomial.from_terms(p, {780: 1, 7: 2}))
    assert (reduced.coeffs, w.coeffs) == (popping_normalization(p, work), popping_normalization(p, shift))
    assert (reduced.degree, w.degree) == (60, 60)
    rng = random.Random(13)
    for _ in range(300):
        p = rng.choice((3, 5, 13))
        coeffs = [rng.randrange(-2 * p, 2 * p) for _ in range(rng.randint(0, 8))]
        coeffs += [rng.choice((0, p, -p)) for _ in range(rng.randint(0, 30))]
        assert FpPolynomial(p, tuple(coeffs)).coeffs == popping_normalization(p, coeffs)


def test_as_reduce_cancellation():
    # x^4 + 2x^12 is a full w^p - w image shift away from zero (p = 3)
    g = FpPolynomial.from_terms(3, {4: 1, 12: 2})
    assert as_reduce(g).is_zero


def test_as_reduce_rejects_characteristic_two():
    with pytest.raises(ValueError):
        as_reduce(FpPolynomial.monomial(2, 1, 2))
