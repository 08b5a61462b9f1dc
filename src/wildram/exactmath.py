"""Exact arithmetic substrate shared by every other module.

Rationals are handled by ``fractions.Fraction`` from the standard library,
which already guarantees lowest-terms normal form, exact value equality and
unbounded integer parts.  This module adds the pieces the rest of the
package needs on top of that:

* p-adic valuation of nonzero integers,
* univariate polynomials over F_p as exact coefficient tuples, with sum,
  negation and the Frobenius image,
* the product of two coefficient sequences mod an integer by Kronecker
  substitution (``mul_coeffs``), the kernel of the tower oracle's shift
  and of the Witt carry,
* Artin-Schreier reduction of such polynomials, i.e. rewriting modulo the
  image of w -> w^p - w until every positive term degree is prime to p,
* the least unit of a given multiplicative order mod p^r, which fixes
  the primitive roots of psl2 and the tame actions of tails.

All values are immutable and all functions are pure.
"""

from __future__ import annotations

import re
import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import takewhile, zip_longest
from operator import not_

NEG_INFINITY = float("-inf")

# an optionally signed integer n, or n/d with d unsigned, in ASCII digits
# between optional whitespace
_RATIONAL = re.compile(r"\s*[+-]?[0-9]+(/[0-9]+)?\s*")


def is_prime(n: int) -> bool:
    """Trial-division primality test, adequate at desk scale."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


# is_prime is trial division: about 0.09 s at 10^12 on a 2-vCPU host, and
# 10^3 times longer at 10^18.  A larger p or ell is refused before it is
# tested.
PRIME_LIMIT = 10**12


@lru_cache(maxsize=256)
def _prime_verdict(n: int) -> bool:
    """is_prime(n), trial division run once per distinct n: every tower
    and every layer polynomial asks again about the same few p (a tower
    sweep builds thousands of values over three primes), and vp,
    least_nonresidue and psl2's class_order ask again about a p or ell
    already required.  A verdict is a boolean of n alone, and at most 256
    are kept."""
    return is_prime(n)


def require_odd_prime(n: int, name: str):
    """Raise ValueError, naming the parameter, unless n is an odd prime
    no larger than PRIME_LIMIT; a larger n is refused before it is tested."""
    if n > PRIME_LIMIT:
        raise ValueError(f"{name} = {n} exceeds the prime limit {PRIME_LIMIT}")
    if n == 2 or not _prime_verdict(n):
        raise ValueError(f"{name} = {n} must be an odd prime")


def prime_factors(n: int) -> tuple[int, ...]:
    """Distinct prime divisors of n >= 1, ascending, by trial division."""
    if n < 1:
        raise ValueError(f"prime_factors expects a positive integer, got {n}")
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return tuple(out)


def vp(n: int, p: int) -> int:
    """Exact exponent of the prime p in the nonzero integer n."""
    if not isinstance(p, int) or not _prime_verdict(p):
        raise ValueError(f"p = {p} is not prime")
    if n == 0:
        raise ValueError("the p-adic valuation of 0 is undefined")
    n = abs(n)
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def parse_rational(text: str) -> Fraction:
    """Parse an exact rational written as 'n/d' or 'n'.

    Only those forms: Fraction alone would also take decimals and exponents,
    and '1e100000' names a number of 100001 digits in eight characters.  A
    numeral past Python's integer-string limit is refused as well."""
    if _RATIONAL.fullmatch(text):
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):  # d = 0, or past the limit
            pass
    raise ValueError(f"cannot parse rational value {text!r}")


def format_rational(q: Fraction | int) -> str:
    """Serialize an exact rational as 'n/d', or 'n' when the value is integral."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


@lru_cache(maxsize=None)
def least_nonresidue(p: int) -> int:
    """Smallest quadratic nonresidue modulo an odd prime p."""
    if not _prime_verdict(p) or p == 2:
        raise ValueError(f"least_nonresidue needs an odd prime, got {p}")
    for n in range(2, p):
        if pow(n, (p - 1) // 2, p) == p - 1:
            return n
    raise RuntimeError(f"no nonresidue found mod {p}")  # unreachable for odd p


def smallest_unit_of_order(q: int, p: int, order: int) -> int:
    """The least unit mod q = p^r (p prime) of the given multiplicative order."""
    if order == 1:
        return 1
    euler = q // p * (p - 1)
    factors = prime_factors(euler)
    for u in range(2, q):
        if u % p == 0:
            continue
        k = euler
        for f in factors:
            while k % f == 0 and pow(u, k // f, q) == 1:
                k //= f
        if k == order:
            return u
    raise ValueError(f"no unit of order {order} mod {q}")


# Kronecker slots read as machine integers: an exact slot width of 1 to 8
# bytes -> (lane width, array typecode), the narrowest unsigned lane of 1, 2,
# 4 or 8 bytes that holds it.  Typecodes are picked by itemsize, since the
# sizes of the letters vary by platform.
_LANES = {
    w: min((array(code).itemsize, code) for code in "BHILQ" if array(code).itemsize >= w)
    for w in range(1, 9)
}


def mul_coeffs(a, b, modulus: int) -> list[int]:
    """Product of two coefficient sequences (low degree first, entries in
    [0, modulus)), reduced mod modulus; [] when either is empty.

    Kronecker substitution: each side becomes one integer with a slot of w
    bytes per coefficient, the integers are multiplied once (CPython's
    Karatsuba, or its squaring when b is a), and the slots of the product
    are read back.  An exact product coefficient is at most
    min(len a, len b) (modulus - 1)^2, so w bytes that hold this bound keep
    the slots from overlapping, and so does any wider slot.  The slot is
    widened to a machine lane of 1, 2, 4 or 8 bytes, and ``array`` packs
    and reads the lanes in C, in the host's byte order: on a big-endian
    host the first coefficient lands in the top slot, so both sides and the
    product are reversed, and the product reads back in order all the same.
    The tower oracle's shift step, the only caller a command line reaches,
    multiplies mod p^2 only when a first layer has a term at a multiple of
    p, and the tower size cap allows that only for p^2 <= 65536, so its
    slots take at most 6 bytes; a slot past 8 bytes raises RuntimeError.
    """
    if not a or not b:
        return []
    w = ((min(len(a), len(b)) * (modulus - 1) ** 2).bit_length() + 7) // 8
    if w > 8:
        raise RuntimeError(f"Kronecker slot of {w} bytes exceeds the 8-byte lanes")
    w, code = _LANES[w]
    big_a = int.from_bytes(array(code, a).tobytes(), sys.byteorder)
    big_b = big_a if b is a else int.from_bytes(array(code, b).tobytes(), sys.byteorder)
    out = array(code)
    out.frombytes((big_a * big_b).to_bytes((len(a) + len(b) - 1) * w, sys.byteorder))
    return [c % modulus for c in out]


@dataclass(frozen=True)
class FpPolynomial:
    """Univariate polynomial over F_p.

    Coefficients are stored low degree first with a nonzero leading entry;
    the zero polynomial is the empty tuple and its degree is the marker
    NEG_INFINITY.  The arithmetic is sum, negation and the Frobenius image
    g(x)^p = g(x^p); no product path multiplies two polynomials over F_p,
    and the oracle's shift and the Witt carry multiply coefficient lists
    mod p^2 by ``mul_coeffs``.
    """

    p: int
    coeffs: tuple[int, ...] = ()

    def __post_init__(self):
        if not _prime_verdict(self.p):
            raise ValueError(f"characteristic {self.p} is not prime")
        c = [x % self.p for x in self.coeffs]
        if c and not c[-1]:  # cut the trailing zeros off in one slice
            del c[len(c) - len(list(takewhile(not_, reversed(c)))) :]
        object.__setattr__(self, "coeffs", tuple(c))

    @classmethod
    @lru_cache(maxsize=None)
    def zero(cls, p: int) -> "FpPolynomial":
        """The zero polynomial over F_p, one shared immutable value per p:
        as_reduce_with_witness returns it as the witness of every input
        that is already reduced."""
        return cls(p, ())

    @classmethod
    def monomial(cls, p: int, coeff: int, degree: int) -> "FpPolynomial":
        if degree < 0:
            raise ValueError("monomial degree must be nonnegative")
        return cls(p, (0,) * degree + (coeff,))

    @classmethod
    def from_terms(cls, p: int, terms) -> "FpPolynomial":
        """Build from a {degree: coefficient} mapping."""
        if not terms:
            return cls.zero(p)
        top = max(terms)
        coeffs = [0] * (top + 1)
        for d, c in terms.items():
            if d < 0:
                raise ValueError("negative degree in term mapping")
            coeffs[d] = c
        return cls(p, tuple(coeffs))

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INFINITY

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def terms(self):
        """Yield (degree, coefficient) pairs, ascending, nonzero only."""
        for d, c in enumerate(self.coeffs):
            if c:
                yield d, c

    def __add__(self, other: "FpPolynomial") -> "FpPolynomial":
        if not isinstance(other, FpPolynomial) or other.p != self.p:
            raise ValueError("polynomials over different prime fields")
        pairs = zip_longest(self.coeffs, other.coeffs, fillvalue=0)
        return FpPolynomial(self.p, tuple([x + y for x, y in pairs]))  # reduced by the constructor

    def __neg__(self) -> "FpPolynomial":
        return FpPolynomial(self.p, tuple([-x for x in self.coeffs]))  # as in __add__

    def pth_power(self) -> "FpPolynomial":
        """Frobenius image g(x)^p = g(x^p); coefficients are fixed over F_p."""
        if self.is_zero:
            return self
        out = [0] * ((len(self.coeffs) - 1) * self.p + 1)
        for d, c in self.terms():
            out[d * self.p] = c
        return FpPolynomial(self.p, tuple(out))

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for d, c in sorted(self.terms(), reverse=True):
            if d == 0:
                parts.append(str(c))
            elif d == 1:
                parts.append("x" if c == 1 else f"{c}*x")
            else:
                parts.append(f"x^{d}" if c == 1 else f"{c}*x^{d}")
        return " + ".join(parts)


def as_reduce_with_witness(g: FpPolynomial) -> tuple[FpPolynomial, FpPolynomial]:
    """Canonical representative of g modulo the image of w -> w^p - w.

    Rewrites each term c*x^(kp) with k >= 1 as c*x^k; over F_p the p-th
    root of a coefficient is the coefficient itself.  Returns (reduced, w)
    with g - (w^p - w) = reduced.  Every positive term degree of the reduced
    polynomial is prime to p, so its degree is prime to p or it is constant.

    One descending sweep over the multiples of p does every rewrite, in the
    order that rewriting the largest reducible degree first would: a
    rewrite only lands at a lower degree, which the sweep has yet to reach.
    So the cost is linear in the degree, and each w coefficient is written
    once.
    """
    p = g.p
    if p == 2:
        raise ValueError("reduction is defined for odd characteristic")
    if not any(g.coeffs[p::p]):  # no term at a positive multiple of p: reduced
        return g, FpPolynomial.zero(p)
    work = list(g.coeffs)
    shift = [0] * (len(work) // p + 1)
    for d in range((len(work) - 1) // p * p, p - 1, -p):
        c = work[d]
        if c:
            work[d] = 0
            k = d // p
            shift[k] = c
            work[k] = (work[k] + c) % p
    return FpPolynomial(p, tuple(work)), FpPolynomial(p, tuple(shift))


def as_reduce(g: FpPolynomial) -> FpPolynomial:
    """Artin-Schreier reduction; see as_reduce_with_witness."""
    return as_reduce_with_witness(g)[0]
