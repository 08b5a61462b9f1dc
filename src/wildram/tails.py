"""Tail configurations and brute generation checks in small groups.

The contraction constraint for a three-point cover of the line with bad
reduction says the tail invariants satisfy

    1 = sum over new tails (sigma - 1) + sum over primitive tails (sigma),

with every sigma in the grid (1/m_G) Z, new tails at least 1 + 1/m_G and
primitive tails at least 1/m_G.  Each summand is at least 1/m_G, so a
configuration has at most m_G tails; the solver enumerates the whole
finite grid and is therefore complete.

The lower bound sigma >= p^(r-1) / m_G used by infer_inertia is stated in
the literature for m_G = 2; for any other m_G it is an extrapolation and
the result says so.

Small groups Z/p^r x| Z/m are realized on residue pairs, the tame factor
acting through the smallest unit of the requested order mod p^r (reported
for reproducibility), and generation questions are settled by exhaustive
closure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import gcd

from .exactmath import format_rational, require_odd_prime, smallest_unit_of_order, vp
from .groups import FiniteGroup, check_order

SEARCH_LIMIT = 2_000_000


@dataclass(frozen=True)
class TailDatum:
    kind: str  # "new" | "primitive"
    sigma: Fraction

    def __post_init__(self):
        if self.kind not in ("new", "primitive"):
            raise ValueError(f"unknown tail kind {self.kind!r}")
        object.__setattr__(self, "sigma", Fraction(self.sigma))

    def to_dict(self) -> dict:
        return {"kind": self.kind, "sigma": format_rational(self.sigma)}


@dataclass(frozen=True)
class TailConfig:
    """Multiset of tails satisfying the constraint sum exactly."""

    m_G: int
    tails: tuple[TailDatum, ...]

    def __post_init__(self):
        if self.m_G < 1:
            raise ValueError("m_G must be positive")
        tails = tuple(sorted(self.tails, key=lambda t: (t.kind, t.sigma)))
        object.__setattr__(self, "tails", tails)
        step = Fraction(1, self.m_G)
        total = Fraction(0)
        for t in tails:
            if (t.sigma / step).denominator != 1:
                raise ValueError(f"sigma {t.sigma} is not a multiple of 1/{self.m_G}")
            floor = 1 + step if t.kind == "new" else step
            if t.sigma < floor:
                raise ValueError(f"{t.kind} tail sigma {t.sigma} is below {floor}")
            total += t.sigma - 1 if t.kind == "new" else t.sigma
        if total != 1:
            raise ValueError(f"tail invariants sum to {total}, not 1")

    def to_dict(self) -> list[dict]:
        return [t.to_dict() for t in self.tails]


def solve_tail_configs(
    m_G: int,
    n_prim: int,
    n_new_min: int = 0,
    n_new_max: int | None = None,
    sigma_bound=None,
) -> list[TailConfig]:
    """All configurations with exactly n_prim primitive tails and a number
    of new tails in [n_new_min, n_new_max].  sigma_bound, when given, caps
    individual invariants (the equation already caps them at 2)."""
    if m_G < 1 or n_prim < 0 or n_new_min < 0 or (n_new_max is not None and n_new_max < 0):
        raise ValueError("counts must be nonnegative and m_G positive")
    step = Fraction(1, m_G)
    cap = Fraction(sigma_bound) if sigma_bound is not None else Fraction(2)
    new_hi = m_G if n_new_max is None else min(n_new_max, m_G)
    new_vals = []
    v = 1 + step
    while v <= cap and v - 1 <= 1:
        new_vals.append(v)
        v += step
    prim_vals = []
    v = step
    while v <= cap and v <= 1:
        prim_vals.append(v)
        v += step
    out = []
    for n_new in range(n_new_min, new_hi + 1):
        if n_prim + n_new > m_G:
            continue  # each term >= 1/m_G, so more tails cannot sum to 1
        # nondecreasing choices per kind avoid duplicate multisets
        for news in combinations_with_replacement(new_vals, n_new):
            partial = sum((s - 1 for s in news), Fraction(0))
            if partial > 1:
                continue
            for prims in combinations_with_replacement(prim_vals, n_prim):
                if partial + sum(prims, Fraction(0)) == 1:
                    tails = tuple(TailDatum("new", s) for s in news) + tuple(
                        TailDatum("primitive", s) for s in prims
                    )
                    out.append(TailConfig(m_G=m_G, tails=tails))
    return sorted(out, key=lambda c: [(t.kind, t.sigma) for t in c.tails])


@dataclass(frozen=True)
class InertiaInference:
    allowed_r: tuple[int, ...]
    abelian_possible: bool
    bound_extrapolated: bool  # True when m_G != 2

    def to_dict(self) -> dict:
        return {
            "allowed_r": list(self.allowed_r),
            "abelian_possible": self.abelian_possible,
            "bound_extrapolated": self.bound_extrapolated,
        }


def infer_inertia(sigma, p: int, m_G: int) -> InertiaInference:
    """Wild exponents r compatible with a tail invariant sigma.

    r is allowed when p^(r-1)/m_G <= sigma, i.e. p^(r-1) <= floor(sigma m_G),
    compared as integers.  A non-integral sigma rules out abelian inertia
    (an abelian filtration has integer jumps)."""
    sigma = Fraction(sigma)
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    require_odd_prime(p, "p")
    if m_G < 1:
        raise ValueError("m_G must be positive")
    bound = sigma.numerator * m_G // sigma.denominator
    allowed, power = [], 1  # power = p^(r-1) for the next r
    while power <= bound:
        allowed.append(len(allowed) + 1)
        power *= p
    return InertiaInference(
        allowed_r=tuple(allowed),
        abelian_possible=sigma.denominator == 1,
        bound_extrapolated=m_G != 2,
    )


# ---------------------------------------------------------------------------
# Small concrete groups


class SmallGroup(FiniteGroup):
    """Z/q x| Z/m on ids a + q*b, multiplied by
    (a1, b1)(a2, b2) = (a1 + u^b1 a2, b1 + b2) for the action unit u mod q."""

    def __init__(self, q: int, m: int, unit: int):
        n = q * m
        check_order(n)
        self.action_unit = unit
        self._q, self._m = q, m
        # (a, u^b, b) for id a + q*b
        self._parts = [(a, pow(unit, b, q), b) for b in range(m) for a in range(q)]
        super().__init__(n, 0)

    def mul(self, x: int, y: int) -> int:
        a1, w1, b1 = self._parts[x]
        a2, _, b2 = self._parts[y]
        q = self._q
        return (a1 + w1 * a2) % q + q * ((b1 + b2) % self._m)

    def products(self, xs, y: int) -> list[int]:
        q, m, parts = self._q, self._m, self._parts
        a2, _, b2 = parts[y]
        out = []
        for x in xs:
            a1, w1, b1 = parts[x]
            out.append((a1 + w1 * a2) % q + q * ((b1 + b2) % m))
        return out

    @classmethod
    def cyclic(cls, n: int) -> "SmallGroup":
        if n < 1:
            raise ValueError("cyclic group order must be positive")
        return cls(n, 1, 1)

    @classmethod
    def semidirect(cls, p: int, r: int, m: int, m_I: int | None = None) -> "SmallGroup":
        """Z/p^r x| Z/m, the factor Z/m acting by the smallest unit of
        order m_I mod p^r.  m_I defaults to gcd(m, p - 1), the most
        faithful action available."""
        require_odd_prime(p, "p")
        if r < 1 or m < 1 or gcd(m, p) != 1:
            raise ValueError("need r >= 1 and m >= 1 prime to p")
        if m_I is None:
            m_I = gcd(m, p - 1)
        if m % m_I != 0 or (p - 1) % m_I != 0:
            raise ValueError(f"m_I = {m_I} must divide gcd(m, p - 1)")
        q = p**r
        check_order(q * m)  # before the unit search, which scans up to q
        return cls(q, m, smallest_unit_of_order(q, p, m_I))


def generation_obstruction(r: int, m: int, vp_gen: int, p: int) -> bool:
    """True when Z/p^r x| Z/m cannot be generated by one wild element (order
    divisible by p, with p-valuation at most vp_gen) together with one
    prime-to-p element.  Decided by exhaustive search over the concrete
    group; <x, y> depends only on (<x>, <y>), so one generator per cyclic
    subgroup is tried.

    The wild generator must have order divisible by p: it stands for the
    image of an inertia generator whose index has positive p-valuation,
    and that p-part survives any prime-to-p quotient.  Dropping the
    divisibility requirement would let two order-2 elements slip in, and
    two reflections already generate every dihedral group.
    """
    if vp_gen < 0:
        raise ValueError("vp_gen must be nonnegative")
    group = SmallGroup.semidirect(p, r, m)
    wild = []
    tame = []
    for c in group.cyclic_subgroups():
        if c.size % p != 0:
            tame.append(c.generators[0])
        elif vp(c.size, p) <= vp_gen:
            wild.append(c.generators[0])
    for x in wild:
        for y in tame:
            if group.generates((x, y)):
                return False
    return True


def branch_cycle_feasible(group: SmallGroup, branch_orders) -> bool:
    """Whether elements of exactly the given orders with product one can
    generate the group.  With two branch orders this forces a cyclic group
    and both orders equal to the group order."""
    orders = list(branch_orders)
    if not orders:
        raise ValueError("need at least one branch order")
    n, mul, element_orders = group.n, group.mul, group.orders
    buckets = []
    for o in orders:
        bucket = [x for x in range(n) if element_orders[x] == o]
        if not bucket:
            return False
        buckets.append(bucket)
    work = 1
    for b in buckets[:-1]:
        work *= len(b)
    if work > SEARCH_LIMIT:
        raise ValueError(f"search space {work} exceeds the limit {SEARCH_LIMIT}")
    last_order = orders[-1]
    for head in product(*buckets[:-1]):
        acc = group.identity_id
        for g in head:
            acc = mul(acc, g)
        tail = group.inverses[acc]
        if element_orders[tail] != last_order:
            continue
        if group.generates(head + (tail,)):
            return True
    return False
