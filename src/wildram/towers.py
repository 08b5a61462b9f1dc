"""Explicit extensions of k((u)) with group Z/p^r x| Z/m.

A tower is a tame layer x^m = 1/u followed by r wild layers whose defining
polynomials x_1, ..., x_r in F_p[x] have every term degree prime to p and
congruent to one residue class j mod m.  The class determines the order
m_I = m / gcd(m, j) of the tame action on the wild part; for the layers to
carry that action m_I must divide p - 1, which is checked alongside the
degree constraints.

The jump recurrence reads the upper jumps straight off the degrees:
u_1 = deg(x_1)/m and u_i = max(deg(x_i)/m, p u_{i-1}).  The oracle route
recomputes them from first principles for r <= 2: it reads the layers as a
length-2 Witt vector, reduces it layer by layer (the first layer's shift
carried into the second through the ghost components mod p^2), reads off
lower jumps over the tame field and converts back through the Herbrand
map.  The oracle accepts towers whose polynomials still contain
p-divisible degrees, since the reduction removes them; the residue class
is derived from the reduced data.

Both routes run on integers.  predicted_numerators returns the
numerators n_i = m u_i once the tower's verdict (validate_spec, computed
once and kept on the tower) accepts it; an invalid tower is refused with
its first violation.  oracle_numerators returns the numerators
m p^(r-1) u_i of the Herbrand map, from ramification.upper_numerators.
predicted_jumps and oracle_jumps wrap them, putting each numerator over
its denominator in a JumpSequence, and the tower-oracle sweep of
check-all compares the integers directly.

Deformation raises a tower's jumps to a compatible target sequence by
adding one monomial scale * x^(m u_i') to x_i exactly when
u_i' > p u_{i-1}' and u_i' > u_i.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from math import gcd

from .exactmath import FpPolynomial, as_reduce_with_witness, mul_coeffs, require_odd_prime
from .psl2 import InertiaType
from .ramification import (
    JumpSequence,
    compatible_numerators,
    upper_numerators,
)


@dataclass(frozen=True)
class TowerSpec:
    """Defining data of a tower over k((u))."""

    p: int
    m: int
    r: int
    x_polys: tuple[FpPolynomial, ...]
    residue_class: int

    _verdict = None  # not a field: the memo behind verdict

    def __post_init__(self):
        p, m = self.p, self.m
        require_odd_prime(p, "p")  # trial division once per distinct p
        if m < 1 or gcd(m, p) != 1:
            raise ValueError(f"m = {m} must be positive and prime to p")
        if self.r < 1 or len(self.x_polys) != self.r:
            raise ValueError(f"need exactly r = {self.r} layer polynomials")
        for poly in self.x_polys:
            if poly.p != p:
                raise ValueError("layer polynomials must live over F_p")
        object.__setattr__(self, "residue_class", self.residue_class % m)

    @property
    def verdict(self) -> "SpecVerdict":
        """validate_spec(self), computed the first time it is asked for."""
        verdict = self._verdict
        if verdict is None:
            verdict = validate_spec(self)
            object.__setattr__(self, "_verdict", verdict)
        return verdict

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "m": self.m,
            "r": self.r,
            "residue_class": self.residue_class,
            "x_polys": [str(poly) for poly in self.x_polys],
        }


@dataclass(frozen=True)
class SpecVerdict:
    violations: tuple[str, ...]

    @property
    def valid(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {"valid": self.valid, "violations": list(self.violations)}


# SpecVerdict is immutable, so every valid tower shares this one.
_VALID = SpecVerdict(())


def _off_class(m: int, j: int, coeffs) -> bool:
    """Whether a nonzero coefficient sits at a degree outside j mod m, that
    is, whether fewer zeros than entries lie outside the slice coeffs[j::m]."""
    in_class = coeffs[j::m]
    return len(coeffs) - len(in_class) != coeffs.count(0) - in_class.count(0)


def validate_spec(t: TowerSpec) -> SpecVerdict:
    """Check the degree constraints monomial by monomial.

    Each violating term is reported.  A layer's terms are walked only when
    slices of its coefficients show a nonzero entry at a multiple of p or
    outside the residue class.  Also requires the induced action order
    m_I = m / gcd(m, class) to divide p - 1, without which no group of the
    intended shape acts on the tower.
    """
    p, m, j = t.p, t.m, t.residue_class
    v = []
    if t.x_polys[0].is_zero:
        v.append("x_1 is the zero polynomial")
    for i, poly in enumerate(t.x_polys, start=1):
        c = poly.coeffs
        if not (any(c[::p]) or _off_class(m, j, c)):
            continue
        for d, _ in poly.terms():
            if gcd(d, p) != 1:
                v.append(f"x_{i}: term degree {d} is not prime to p = {p}")
            if d % m != j:
                v.append(f"x_{i}: term degree {d} is not {j} mod m = {m}")
    m_I = m // gcd(m, j)
    if (p - 1) % m_I != 0:
        v.append(f"action order m_I = {m_I} does not divide p - 1 = {p - 1}")
    return SpecVerdict(tuple(v)) if v else _VALID


@lru_cache(maxsize=256)
def _inertia_type(p: int, r: int, m: int, m_I: int) -> InertiaType:
    """One shared InertiaType per (p, r, m, m_I); the type is frozen, so the
    towers that share a shape share its value (a refused shape raises on
    every call, since lru_cache keeps no exception)."""
    return InertiaType(p=p, r=r, m=m, m_I=m_I)


def inertia_type_of(t: TowerSpec) -> InertiaType:
    return _inertia_type(t.p, t.r, t.m, t.m // gcd(t.m, t.residue_class))


def predicted_numerators(t: TowerSpec) -> list[int]:
    """The jump recurrence on the integers n_i = m u_i: n_1 = deg(x_1) and
    n_i = max(deg(x_i), p n_{i-1}), where a zero layer (degree -1 here)
    contributes only the p n_{i-1} branch.  An invalid tower raises
    ValueError naming its first violation (t.verdict)."""
    verdict = t.verdict
    if not verdict.valid:
        raise ValueError(f"invalid tower: {verdict.violations[0]}")
    p = t.p
    n = [len(t.x_polys[0].coeffs) - 1]
    for poly in t.x_polys[1:]:
        n.append(max(len(poly.coeffs) - 1, p * n[-1]))
    return n


def predicted_jumps(t: TowerSpec) -> JumpSequence:
    """u_1 = deg(x_1)/m, u_i = max(deg(x_i)/m, p u_{i-1}): the
    numerators of predicted_numerators over m."""
    return JumpSequence(tuple([Fraction(n, t.m) for n in predicted_numerators(t)]))


def oracle_supported(t: TowerSpec) -> bool:
    return t.r <= 2


# ---------------------------------------------------------------------------
# Length-2 Witt vectors over F_p[x]

WittVector = tuple[FpPolynomial, FpPolynomial]


def _power_mod(coeffs, e: int, modulus: int) -> list[int]:
    """coeffs^e mod modulus for e >= 1, by square-and-multiply on
    mul_coeffs: floor(log2 e) squarings and popcount(e) - 1 products."""
    out = list(coeffs)
    for bit in bin(e)[3:]:
        out = mul_coeffs(out, out, modulus)
        if bit == "1":
            out = mul_coeffs(out, coeffs, modulus)
    return out


def witt_carry(a: FpPolynomial, b: FpPolynomial) -> FpPolynomial:
    """(a^p + b^p - (a + b)^p) / p as a polynomial over F_p.

    Computed from the ghost-component identity itself: with A and B the
    lifts of a and b to coefficients in [0, p), the three p-th powers are
    taken mod p^2 by square-and-multiply on mul_coeffs, which is sound since
    A = A' mod p implies A^p = A'^p mod p^2.  That is
    3 (floor(log2 p) + popcount(p) - 1) products, against 3p - 5 for the sum
    of binom(p, i)/p a^i b^(p-i).  The second wild layer of a tower reads
    y_2^p - y_2 = x_2 - carry(y_1^p, -y_1), so x_2 enters that equation only
    through the lone linear term.
    """
    p = a.p
    if b.p != p:
        raise ValueError("carry of polynomials over the wrong field")
    if a.is_zero or b.is_zero:
        return FpPolynomial.zero(p)
    q = p * p
    total = [x + y for x, y in zip_longest(a.coeffs, b.coeffs, fillvalue=0)]
    pa, pb, ps = (_power_mod(c, p, q) for c in (a.coeffs, b.coeffs, total))
    return FpPolynomial(
        p, tuple((x + y - z) % q // p for x, y, z in zip_longest(pa, pb, ps, fillvalue=0))
    )


def _shifted_second_layer(
    x1: FpPolynomial, x2: FpPolynomial, reduced: FpPolynomial, shift: FpPolynomial
) -> FpPolynomial:
    """Second component of (x_1, x_2) - F(s, 0) + (s, 0), where s = shift
    and the first component x_1 - (s^p - s) is reduced: the step in ghost
    components that oracle_numerators derives.

    S(x^p)^p is (S^p)(x^p), the coefficients of S^p spread to every p-th
    slot, so the step takes three p-th powers mod p^2 by _power_mod, one of
    them at degree p deg s (the two (F(s) - s)^p terms of the carries
    cancel).  witt_add((x_1, x_2), witt_neg(witt_wp((s, 0)))) takes six.
    """
    p = x1.p
    q = p * p
    px, py, ps = (_power_mod(c, p, q) for c in (x1.coeffs, reduced.coeffs, shift.coeffs))
    spread = [0] * ((len(ps) - 1) * p + 1)
    spread[::p] = ps
    terms = zip_longest(px, py, ps, spread, x2.coeffs, fillvalue=0)
    return FpPolynomial(p, tuple([(a - b + c - d) % q // p + e for a, b, c, d, e in terms]))


def witt_add(u: WittVector, v: WittVector) -> WittVector:
    return (u[0] + v[0], u[1] + v[1] + witt_carry(u[0], v[0]))


def witt_neg(u: WittVector) -> WittVector:
    # componentwise for odd p
    return (-u[0], -u[1])


def witt_wp(u: WittVector) -> WittVector:
    """The additive map w -> F(w) - w on length-2 Witt vectors, where the
    Frobenius F(w) = (w_0^p, w_1^p) is the p-th power of each component."""
    return witt_add((u[0].pth_power(), u[1].pth_power()), witt_neg(u))


# ---------------------------------------------------------------------------
# Oracle


def _derived_class(m: int, polys) -> int:
    """Common residue class mod m of all term degrees, or raise.  Every
    degree is 0 mod 1, so m = 1 answers 0 without looking at the layers."""
    if m == 1:
        return 0
    j = next((poly.degree % m for poly in polys if not poly.is_zero), 0)
    if any(_off_class(m, j, poly.coeffs) for poly in polys):
        classes = {d % m for poly in polys for d, _ in poly.terms()}
        raise ValueError(f"term degrees fall in several classes mod {m}: {sorted(classes)}")
    return j


def oracle_numerators(t: TowerSpec) -> list[int]:
    """Upper jumps from first principles, for r <= 2, as the integers
    U_i = m p^(r-1) u_i (ramification.upper_numerators).

    Unlike predicted_numerators this accepts towers whose polynomials are
    not yet reduced (their extension is unchanged by w^p - w shifts); it
    refuses constant terms, which over F_p cannot be shifted away.

    At r = 2 the first layer reduces to x_1 - (s^p - s) with witness s,
    and the Witt vector (x_1, x_2) is shifted by -wp((s, 0)), with
    wp(w) = F(w) - w.  In ghost components (Serre, Local Fields, II.6),
    with X, Y and S the [0, p) lifts of x_1, of the reduced first layer and
    of s, the second ghost component of (x_1, x_2) - F(s, 0) + (s, 0) is
    X^p + p x_2 - S(x^p)^p + S^p mod p^2, and that of its value
    (y_1, y_2) is Y^p + p y_2.  So the shifted second layer is
    y_2 = x_2 + (X^p - Y^p - S(x^p)^p + S^p)/p mod p
    (_shifted_second_layer), which is then reduced in turn.
    """
    if t.r > 2:
        raise NotImplementedError(
            "the oracle covers r <= 2 only; longer carries are out of scope"
        )
    p, m = t.p, t.m
    for i, poly in enumerate(t.x_polys, start=1):
        if poly.coeffs and poly.coeffs[0]:
            raise ValueError(f"x_{i} has a constant term; shift it away first")

    reduced0, shift0 = as_reduce_with_witness(t.x_polys[0])
    h1 = len(reduced0.coeffs) - 1  # -1 for the zero polynomial
    if h1 < 1:
        raise ValueError("the first layer reduces to degree <= 0 and is unramified")

    if t.r == 1:
        rc = _derived_class(m, [reduced0])
        inertia = _inertia_type(p, 1, m, m // gcd(m, rc))
        return upper_numerators(inertia, [h1])

    x1, x2 = t.x_polys
    if not shift0.is_zero:
        if x1 + -shift0.pth_power() + shift0 != reduced0:
            raise RuntimeError("Witt shift did not reproduce the reduced first layer")
        x2 = _shifted_second_layer(x1, x2, reduced0, shift0)
    reduced1, _ = as_reduce_with_witness(x2)

    n1 = len(reduced1.coeffs) - 1  # below 1 when the layer adds no ramification
    if n1 >= 1 and n1 % p == 0:
        raise RuntimeError("reduced second layer kept a p-divisible degree")
    h2 = h1 + p * (max(p * h1, n1) - h1)

    rc = _derived_class(m, [reduced0, reduced1])
    inertia = _inertia_type(p, 2, m, m // gcd(m, rc))
    return upper_numerators(inertia, [h1, h2])


def oracle_jumps(t: TowerSpec) -> JumpSequence:
    """The oracle's upper jumps: the numerators of oracle_numerators over
    m p^(r-1)."""
    scale = t.m * t.p ** (t.r - 1)
    return JumpSequence(tuple([Fraction(u, scale) for u in oracle_numerators(t)]))


# ---------------------------------------------------------------------------
# Deformation


def deform(t: TowerSpec, target: JumpSequence, scale: int = 1) -> TowerSpec:
    """Add scale * x^(m u_i') to x_i whenever u_i' > p u_{i-1}' and
    u_i' > u_i; other layers are untouched.  The added monomial strictly
    dominates deg(x_i), so any nonzero scale realizes the target.  A
    monomial that would pass TOWER_SIZE_LIMIT is refused before it is
    built, so every deformed tower reads back from its file."""
    n_base = predicted_numerators(t)  # admissible, as every valid tower's are
    inertia = inertia_type_of(t)
    n_target = compatible_numerators(inertia, n_base, target)  # m u_i', integers
    if n_target is None:
        raise ValueError(
            f"target {target} is not deformation-compatible with {predicted_jumps(t)}"
        )
    scale = scale % t.p
    if scale == 0:
        raise ValueError("scale must be nonzero in F_p")
    new_polys = []
    for i, poly in enumerate(t.x_polys):
        n = n_target[i]
        if n > t.p * (n_target[i - 1] if i else 0) and n > n_base[i]:
            _check_tower_size(t.p, n, i + 1)
            new = poly + FpPolynomial.monomial(t.p, scale, n)
            if new.degree != n:
                raise RuntimeError("deformation monomial failed to dominate")
            new_polys.append(new)
        else:
            new_polys.append(poly)
    out = TowerSpec(
        p=t.p, m=t.m, r=t.r, x_polys=tuple(new_polys), residue_class=t.residue_class
    )
    if not out.verdict.valid:
        raise RuntimeError(f"deformed tower is invalid: {out.verdict.violations[0]}")
    return out


@dataclass(frozen=True)
class DeformationVerdict:
    ok: bool
    target: JumpSequence
    predicted: JumpSequence
    oracle: JumpSequence | None
    message: str
    deformed: TowerSpec  # the deformed tower itself; not part of the report

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "target": self.target.to_strings(),
            "predicted": self.predicted.to_strings(),
            "oracle": self.oracle.to_strings() if self.oracle else None,
            "message": self.message,
        }


def verify_deformation(t: TowerSpec, target: JumpSequence, scale: int = 1) -> DeformationVerdict:
    """Deform and confirm both routes report exactly the target jumps."""
    deformed = deform(t, target, scale)
    predicted = predicted_jumps(deformed)
    oracle = oracle_jumps(deformed) if oracle_supported(deformed) else None
    ok = predicted == target and (oracle is None or oracle == target)
    if ok:
        message = "deformed jumps match the target"
    elif predicted != target:
        message = f"recurrence reports {predicted}, target was {target}"
    else:
        message = f"oracle reports {oracle}, target was {target}"
    return DeformationVerdict(
        ok=ok,
        target=target,
        predicted=predicted,
        oracle=oracle,
        message=message,
        deformed=deformed,
    )


# ---------------------------------------------------------------------------
# Flat text format: line 1 "p m r residue_class", then one coefficient list
# per layer, low degree first, decimal residues.

# Cap on p * (largest layer degree) of a tower file.  The oracle's carries
# reach degree p * deg(x_1); at the cap a dense raw r = 2 tower takes 1.5 to
# 3.5 s and under 35 MB in tower-oracle, for every p (2-vCPU host).
TOWER_SIZE_LIMIT = 65536


def _check_tower_size(p: int, degree, layer: int) -> None:
    if p * degree > TOWER_SIZE_LIMIT:
        raise ValueError(
            f"x_{layer}: p * degree = {p} * {degree} exceeds the tower size limit"
            f" {TOWER_SIZE_LIMIT}"
        )


def format_tower_spec(t: TowerSpec) -> str:
    lines = [f"{t.p} {t.m} {t.r} {t.residue_class}"]
    for poly in t.x_polys:
        lines.append(" ".join(str(c) for c in poly.coeffs) if not poly.is_zero else "0")
    return "\n".join(lines) + "\n"


def parse_tower_spec(text: str) -> TowerSpec:
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty tower file")
    head = lines[0].split()
    if len(head) != 4:
        raise ValueError("first line must be: p m r residue_class")
    try:
        p, m, r, rc = (int(x) for x in head)
    except ValueError as exc:
        raise ValueError(f"malformed header {lines[0]!r}") from exc
    if r < 1:  # before r slices the layer lines
        raise ValueError(f"r = {r} must be >= 1")
    if len(lines) < 1 + r:
        raise ValueError(f"expected {r} coefficient lines, found {len(lines) - 1}")
    # every layer has p * max(1, degree) within the cap; checking p alone
    # first keeps a huge p from reaching the primality test
    if p > TOWER_SIZE_LIMIT:
        raise ValueError(f"p = {p} exceeds the tower size limit {TOWER_SIZE_LIMIT}")
    polys = []
    for i, line in enumerate(lines[1 : 1 + r], start=1):
        # more coefficients than the cap means p * degree past it or zeros
        # above the degree; either way the line is refused before a token of
        # it is parsed, and the split stops one token past the cap
        tokens = line.split(maxsplit=TOWER_SIZE_LIMIT)
        if len(tokens) > TOWER_SIZE_LIMIT:
            raise ValueError(
                f"x_{i}: more than {TOWER_SIZE_LIMIT} coefficients exceed the tower size"
                f" limit {TOWER_SIZE_LIMIT}"
            )
        try:
            coeffs = tuple(int(x) for x in tokens)
        except ValueError as exc:
            raise ValueError(f"malformed coefficient line {line!r}") from exc
        if not coeffs:
            raise ValueError("empty coefficient line; write a lone 0 for the zero layer")
        polys.append(FpPolynomial(p, coeffs))
        _check_tower_size(p, polys[-1].degree, i)
    extra = [line for line in lines[1 + r :] if line.strip()]
    if extra:
        raise ValueError(f"unexpected trailing content: {extra[0]!r}")
    return TowerSpec(p=p, m=m, r=r, x_polys=tuple(polys), residue_class=rc)


def read_tower_spec(path) -> TowerSpec:
    with open(path, "r", encoding="ascii") as fh:
        return parse_tower_spec(fh.read())


def write_tower_spec(t: TowerSpec, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_tower_spec(t))
