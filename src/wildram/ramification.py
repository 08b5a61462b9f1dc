"""Upper-numbering ramification data for inertia groups Z/p^r x| Z/m.

A totally ramified extension of a local field with such a Galois group and
cyclic wild part is determined by its r positive upper jumps
u_1 < ... < u_r.  This module decides which jump sequences can occur
(conditions (a)-(d) below), converts between upper and lower numbering
with the two piecewise-linear Herbrand maps, evaluates the ramification
divisor degree and the genus of a cover with those local invariants, and
enumerates admissible sequences exactly.  Conditions (a)-(d), the Herbrand
maps and the divisor degree are evaluated on the integers n_i = m u_i: the
numerator step decides (a), and one integer core, unmet_conditions, decides
(b)-(d) for every caller.  is_admissible wraps the two and builds condition
results and witness texts; the other callers ask the core only.  The
Herbrand maps have integer cores too, upper_numerators and
lower_numerators, which upper_from_lower and lower_from_upper wrap.

Enumeration is one walk over those integers, testing (a)-(d) at each step.
Floored by the numerators of an admissible base, the same walk visits only
the targets a deformation of the base can reach (componentwise at least the
base, with m u_1' = m u_1 (mod m)): n_1' steps by m from n_1, and each later
n_i' starts at max(p n_{i-1}', n_i).

A sequence is admissible for I = (p, r, m, m_I) when

  (a) every u_i lies in (1/m) N;
  (b) gcd(m, m u_1) = m / m_I;
  (c) p does not divide m u_1 and, for i > 1, either u_i = p u_{i-1} or
      both u_i > p u_{i-1} and p does not divide m u_i;
  (d) m u_i = m u_1 (mod m) for every i.

For lower jumps (h_1, ..., h_r) the group order along the filtration is
m p^r at 0 and p^(r-i+1) on (h_{i-1}, h_i], which forces the slopes of the
Herbrand map: u_1 = h_1 / m and u_i = u_{i-1} + (h_i - h_{i-1}) / (m p^(i-1)).

With deg(R) = m p^r - 1 + (p-1) m (u_1 + p u_2 + ... + p^(r-1) u_r), a
cover with group order N and these local invariants at one branch point
has genus 1 - N + N deg(R) / (2 m p^r).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import ge

from .exactmath import format_rational, parse_rational
from .psl2 import InertiaType, group_params, inertia_candidates


@dataclass(frozen=True)
class JumpSequence:
    """Strictly increasing positive exact rationals (u_1, ..., u_r)."""

    jumps: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.jumps:
            raise ValueError("a jump sequence has at least one jump")
        values = tuple([u if isinstance(u, Fraction) else Fraction(u) for u in self.jumps])
        if min([u.numerator for u in values]) <= 0:
            raise ValueError(f"jumps must be positive: {values}")
        for a, b in zip(values, values[1:]):
            if a.numerator * b.denominator >= b.numerator * a.denominator:
                raise ValueError(f"jumps must be strictly increasing: {values}")
        object.__setattr__(self, "jumps", values)

    @classmethod
    def of(cls, *values) -> "JumpSequence":
        return cls(tuple(Fraction(v) for v in values))

    @classmethod
    def from_strings(cls, texts) -> "JumpSequence":
        return cls(tuple(parse_rational(t) for t in texts))

    def __len__(self):
        return len(self.jumps)

    def __getitem__(self, i):
        return self.jumps[i]

    def __iter__(self):
        return iter(self.jumps)

    def to_strings(self) -> list[str]:
        return [format_rational(u) for u in self.jumps]

    def __str__(self):
        return "(" + ", ".join(self.to_strings()) + ")"


@dataclass(frozen=True)
class ConditionResult:
    name: str
    ok: bool | None  # None: not evaluated because (a) failed
    witness: str | None = None

    def to_dict(self) -> dict:
        status = "skipped" if self.ok is None else ("ok" if self.ok else "fail")
        out = {"condition": self.name, "status": status}
        if self.witness:
            out["witness"] = self.witness
        return out


@dataclass(frozen=True)
class AdmissibilityVerdict:
    admissible: bool
    conditions: tuple[ConditionResult, ...]

    @property
    def failed(self) -> str | None:
        for c in self.conditions:
            if c.ok is False:
                return c.name
        return None

    def to_dict(self) -> dict:
        return {
            "admissible": self.admissible,
            "failed": self.failed,
            "conditions": [c.to_dict() for c in self.conditions],
        }


def _numerators(inertia: InertiaType, seq: JumpSequence) -> list[int] | None:
    """The numerator step: the integers n_i = m u_i, or None when some u_i
    is off the grid (1/m) Z, which is condition (a).  A u in lowest terms
    lies on it exactly when its denominator divides m."""
    if len(seq) != inertia.r:
        raise ValueError(f"sequence length {len(seq)} does not match r = {inertia.r}")
    m = inertia.m
    n = []
    for u in seq:
        q, rem = divmod(m, u.denominator)
        if rem:
            return None
        n.append(u.numerator * q)
    return n


def unmet_conditions(inertia: InertiaType, n) -> list[tuple[str, int]]:
    """The integer core of conditions (b)-(d) on numerators n_i = m u_i:
    the conditions n fails, in order, each as (name, where), and an empty
    list when all three hold.  where is gcd(m, n_1) for (b); for (c) the
    index i of the first n_i that breaks the growth rule, 0 when p | n_1;
    for (d) the index of the first n_i off the class of n_1 mod m."""
    p, m = inertia.p, inertia.m
    unmet = []
    g = gcd(m, n[0])
    if g != m // inertia.m_I:
        unmet.append(("b", g))
    bad_c = 0 if n[0] % p == 0 else None
    bad_d = None
    base = n[0] % m
    for i in range(1, len(n)):
        grown = p * n[i - 1]
        if bad_c is None and n[i] != grown and (n[i] < grown or n[i] % p == 0):
            bad_c = i
        if bad_d is None and n[i] % m != base:
            bad_d = i
    if bad_c is not None:
        unmet.append(("c", bad_c))
    if bad_d is not None:
        unmet.append(("d", bad_d))
    return unmet


# ConditionResult and AdmissibilityVerdict are immutable, so every verdict
# shares these.
_PASSED = {name: ConditionResult(name, True) for name in "abcd"}
_SKIPPED = tuple(ConditionResult(name, None) for name in "bcd")
_ADMISSIBLE = AdmissibilityVerdict(True, tuple(_PASSED.values()))


def _witness(inertia: InertiaType, seq: JumpSequence, n: list[int], name: str, where: int) -> str:
    """The witness text of one unmet condition (see unmet_conditions)."""
    p, m = inertia.p, inertia.m
    if name == "b":
        return f"gcd({m}, {n[0]}) = {where} != {m // inertia.m_I}"
    if name == "d":
        return f"m*u_{where + 1} = {n[where]} != {n[0]} (mod {m})"
    if where == 0:
        return f"p | m*u_1 = {n[0]}"
    grown = p * n[where - 1]
    if n[where] < grown:
        return (
            f"u_{where + 1} = {format_rational(seq[where])} < "
            f"p*u_{where} = {format_rational(Fraction(grown, m))}"
        )
    return f"p | m*u_{where + 1} = {n[where]} while u_{where + 1} > p*u_{where}"


def is_admissible(inertia: InertiaType, seq: JumpSequence) -> AdmissibilityVerdict:
    """The verdict on conditions (a)-(d), with a witness for each unmet
    condition: the numerator step, then unmet_conditions."""
    n = _numerators(inertia, seq)
    if n is None:
        m = inertia.m
        bad = next(u for u in seq if m % u.denominator)
        witness = f"m*u = {format_rational(Fraction(m * bad.numerator, bad.denominator))}"
        return AdmissibilityVerdict(False, (ConditionResult("a", False, witness),) + _SKIPPED)
    unmet = dict(unmet_conditions(inertia, n))
    if not unmet:
        return _ADMISSIBLE
    conds = tuple(
        ConditionResult(name, False, _witness(inertia, seq, n, name, unmet[name]))
        if name in unmet
        else _PASSED[name]
        for name in "bcd"
    )
    return AdmissibilityVerdict(False, (_PASSED["a"],) + conds)


def admissible_numerators(inertia: InertiaType, seq: JumpSequence, what: str) -> list[int]:
    """The numerators n_i = m u_i of seq, which must be admissible; a
    ValueError naming ``what`` and the first unmet condition otherwise."""
    n = _numerators(inertia, seq)
    unmet = [("a", 0)] if n is None else unmet_conditions(inertia, n)
    if unmet:
        raise ValueError(
            f"{what} needs an admissible sequence; {seq} fails condition ({unmet[0][0]})"
        )
    return n


def compatible_numerators(
    inertia: InertiaType, n: list[int], target: JumpSequence
) -> list[int] | None:
    """The numerators m u_i' of target when it can replace the admissible
    sequence of numerators n (see deformation_compatible), else None."""
    if len(target) != len(n):
        raise ValueError("target sequence has the wrong length")
    n_target = _numerators(inertia, target)
    if n_target is None or unmet_conditions(inertia, n_target):
        return None
    if any(a > b for a, b in zip(n, n_target)):
        return None
    return n_target if (n[0] - n_target[0]) % inertia.m == 0 else None


def deformation_compatible(
    inertia: InertiaType, seq: JumpSequence, target: JumpSequence
) -> bool:
    """Whether target can replace seq: admissible, componentwise >= and
    m u_1 = m u_1' (mod m)."""
    n = admissible_numerators(inertia, seq, "deformation_compatible")
    return compatible_numerators(inertia, n, target) is not None


def divisor_degree(inertia: InertiaType, seq: JumpSequence) -> int:
    """deg(R) = m p^r - 1 + (p-1) m sum(p^(i-1) u_i), an exact integer."""
    n = admissible_numerators(inertia, seq, "divisor_degree")
    p, m, r = inertia.p, inertia.m, inertia.r
    return m * p**r - 1 + (p - 1) * sum(p**i * n_i for i, n_i in enumerate(n))


@dataclass(frozen=True)
class GenusResult:
    genus: int
    divisor_degree: int
    realizable: bool  # negative genus cannot come from a curve

    def to_dict(self) -> dict:
        return {
            "genus": self.genus,
            "divisor_degree": self.divisor_degree,
            "realizable": self.realizable,
        }


def genus(group_order: int, inertia: InertiaType, seq: JumpSequence) -> GenusResult:
    """Genus 1 - N + N deg(R) / (2 m p^r) of a one-branch-point cover.

    Negative output is data, not an error: it flags (I, jumps, N)
    combinations that no curve realizes.  A non-integral value is an
    incompatibility between the inertia shape and the group order and
    raises.
    """
    if group_order < 1:
        raise ValueError("group order must be positive")
    p, m, r = inertia.p, inertia.m, inertia.r
    if group_order % p**r != 0:
        raise ValueError(
            f"incompatible: p^r = {p**r} does not divide the group order {group_order}"
        )
    deg = divisor_degree(inertia, seq)
    value = 1 - group_order + Fraction(group_order * deg, 2 * m * p**r)
    if value.denominator != 1:
        raise ValueError(
            f"non-integral genus {value}: inertia {inertia.label()} is incompatible "
            f"with group order {group_order}"
        )
    g = int(value)
    return GenusResult(genus=g, divisor_degree=deg, realizable=g >= 0)


def upper_numerators(inertia: InertiaType, h) -> list[int]:
    """The Herbrand map on lower jumps h (positive integers) as the
    integers U_i = m p^(r-1) u_i.

    Slope is 1/m up to h_1 and 1/(m p^(i-1)) on (h_{i-1}, h_i], so
    U_1 = h_1 p^(r-1) and U_i = U_{i-1} + (h_i - h_{i-1}) p^(r-i).
    """
    p, r = inertia.p, inertia.r
    if len(h) != r:
        raise ValueError(f"expected {r} lower jumps, got {len(h)}")
    if min(h) <= 0:
        raise ValueError(f"lower jumps must be positive integers: {[Fraction(x) for x in h]}")
    if any(map(ge, h, h[1:])):
        raise ValueError(f"lower jumps must be strictly increasing: {[Fraction(x) for x in h]}")
    if h[0] % p == 0:
        raise ValueError(f"first lower jump {h[0]} must be prime to p")
    acc = h[0] * p ** (r - 1)
    out = [acc]
    for i in range(1, r):
        acc += (h[i] - h[i - 1]) * p ** (r - 1 - i)
        out.append(acc)
    return out


def upper_from_lower(inertia: InertiaType, lower) -> JumpSequence:
    """Apply the Herbrand map to lower jumps (positive integers): the
    sequence U_i / (m p^(r-1)) of upper_numerators."""
    values = [Fraction(h) for h in lower]
    # a wrong length is reported first, by upper_numerators
    if len(values) == inertia.r and any(v.denominator != 1 for v in values):
        raise ValueError(f"lower jumps must be positive integers: {values}")
    scale = inertia.m * inertia.p ** (inertia.r - 1)
    upper = upper_numerators(inertia, [v.numerator for v in values])
    return JumpSequence(tuple([Fraction(u, scale) for u in upper]))


def lower_numerators(inertia: InertiaType, n) -> list[int]:
    """The inverse Herbrand map on the numerators n_i = m u_i of an
    admissible sequence, which the caller has checked (admissible_numerators
    or unmet_conditions): the lower jumps h_1 = n_1 and
    h_i = h_{i-1} + p^(i-1) (n_i - n_{i-1}), positive integers, with
    upper_numerators(inertia, h) = [n_i p^(r-1)]."""
    p = inertia.p
    acc, scale = n[0], 1
    out = [acc]
    for i in range(1, len(n)):
        scale *= p
        acc += scale * (n[i] - n[i - 1])
        out.append(acc)
    return out


def lower_from_upper(inertia: InertiaType, seq: JumpSequence) -> JumpSequence:
    """Exact inverse of upper_from_lower; input must be admissible: the
    lower jumps of lower_numerators as a sequence of integers."""
    n = admissible_numerators(inertia, seq, "lower_from_upper")
    return JumpSequence(tuple(lower_numerators(inertia, n)))


def tame_base_change(
    inertia: InertiaType, seq: JumpSequence, new_m: int
) -> tuple[InertiaType, JumpSequence]:
    """Pull back along a tame cover of degree m/new_m totally ramified at
    the branch point: the tame part drops to new_m, the action order to its
    image, and every upper jump scales by m/new_m."""
    if new_m < 1 or inertia.m % new_m != 0:
        raise ValueError(f"new tame part {new_m} does not divide m = {inertia.m}")
    admissible_numerators(inertia, seq, "tame_base_change")
    d = inertia.m // new_m
    new_m_I = inertia.m_I // gcd(inertia.m_I, d)
    new_inertia = InertiaType(p=inertia.p, r=inertia.r, m=new_m, m_I=new_m_I)
    new_seq = JumpSequence(tuple(u * d for u in seq))
    verdict = is_admissible(new_inertia, new_seq)
    if not verdict.admissible:
        raise RuntimeError(
            f"tame base change produced an inadmissible sequence (condition {verdict.failed})"
        )
    return new_inertia, new_seq


def _admissible_walk(
    inertia: InertiaType, bound, floor: list[int] | None = None
) -> list[tuple[int, ...]]:
    """Numerator tuples (n_1, ..., n_r), n_i = m u_i, of every admissible
    sequence with u_r <= bound, in lexicographic order.

    With a floor (the numerators of an admissible base), only the targets
    that can replace it are walked: n_1 steps over floor_1, floor_1 + m,
    ..., and each later n_i starts at max(p n_{i-1}, floor_i).  Conditions
    (a)-(d) are tested at every step either way."""
    p, m, r, m_I = inertia.p, inertia.m, inertia.r, inertia.m_I
    top = int(m * Fraction(bound))  # n_r <= top
    step = m
    if floor is None:
        floor, step = [1] + [0] * (r - 1), 1
    out: list[tuple[int, ...]] = []

    def extend(prefix: list[int]):
        i = len(prefix)  # choosing n_{i+1}
        if i == r:
            out.append(tuple(prefix))
            return
        cap = top // p ** (r - i - 1)
        if i == 0:
            for n1 in range(floor[0], cap + 1, step):
                if n1 % p != 0 and gcd(m, n1) == m // m_I:
                    extend([n1])
            return
        base = prefix[0] % m
        lo = p * prefix[-1]
        least = floor[i]
        if least <= lo <= cap:
            if lo % m != base:
                raise RuntimeError("p-multiple branch broke the residue condition")
            extend(prefix + [lo])
        for n in range(max(lo + 1, least), cap + 1):
            if n % p != 0 and n % m == base:
                extend(prefix + [n])

    if top >= 1:
        extend([])
    return out


def compatible_targets(
    inertia: InertiaType, n: list[int], bound
) -> list[tuple[int, ...]]:
    """Numerators m u_i' of every target with u_r' <= bound that can replace
    the admissible sequence of numerators n: exactly the admissible
    sequences for which compatible_numerators is not None, in the order of
    enumerate_admissible."""
    return _admissible_walk(inertia, bound, n)


def enumerate_admissible(inertia: InertiaType, bound) -> list[JumpSequence]:
    """All admissible sequences with u_r <= bound, lexicographic in
    (m u_1, ..., m u_r): the unfloored integer walk, each tuple read back as
    u_i = n_i / m (compatible_targets runs the same walk floored by a base).
    Complete by construction; testable against a naive filter over the
    grid (1/m) Z."""
    m = inertia.m
    return [
        JumpSequence(tuple(Fraction(n, m) for n in numerators))
        for numerators in _admissible_walk(inertia, bound)
    ]


def base_sigma(inertia: InertiaType, ell: int) -> JumpSequence | None:
    """Smallest known realizable jump sequence for a candidate inertia shape.

    D_p gives (3/2); Z/p gives (2) when ell = +-1 (mod 8) and (3)
    otherwise.  For every other candidate the minimal sequence is not
    constructively known and None is returned, never a guess.
    """
    gp = group_params(inertia.p, ell)
    if inertia not in inertia_candidates(gp):
        raise ValueError(
            f"{inertia.label()} is not an inertia candidate for (p, ell) = ({inertia.p}, {ell})"
        )
    if inertia.r == 1 and inertia.m == 2:
        return JumpSequence.of(Fraction(3, 2))
    if inertia.r == 1 and inertia.m == 1:
        return JumpSequence.of(2 if ell % 8 in (1, 7) else 3)
    return None
