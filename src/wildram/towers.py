"""Explicit extensions of k((u)) with group Z/p^r x| Z/m.

A tower is a tame layer x^m = 1/u followed by r wild layers whose defining
polynomials x_1, ..., x_r in F_p[x] have every term degree prime to p and
congruent to one residue class j mod m.  The class determines the order
m_I = m / gcd(m, j) of the tame action on the wild part; for the layers to
carry that action m_I must divide p - 1, which is checked alongside the
degree constraints.

The jump recurrence reads the upper jumps straight off the degrees:
u_1 = deg(x_1)/m and u_i = max(deg(x_i)/m, p u_{i-1}).  The oracle route
recomputes them from first principles for r <= 2: it packs the layers into
a length-2 Witt vector, reduces it layer by layer (with the true carry
polynomial (a^p + b^p - (a+b)^p)/p), reads off lower jumps over the tame
field and converts back through the Herbrand map.  The oracle accepts
towers whose polynomials still contain p-divisible degrees, since the
reduction removes them; the residue class is derived from the reduced
data.

Deformation raises a tower's jumps to a compatible target sequence by
adding one monomial scale * x^(m u_i') to x_i exactly when
u_i' > p u_{i-1}' and u_i' > u_i.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd

from .exactmath import FpPolynomial, as_reduce_with_witness, is_prime
from .psl2 import InertiaType
from .ramification import JumpSequence, deformation_compatible, upper_from_lower


@dataclass(frozen=True)
class TowerSpec:
    """Defining data of a tower over k((u))."""

    p: int
    m: int
    r: int
    x_polys: tuple[FpPolynomial, ...]
    residue_class: int

    def __post_init__(self):
        if not is_prime(self.p) or self.p == 2:
            raise ValueError(f"p = {self.p} must be an odd prime")
        if self.m < 1 or gcd(self.m, self.p) != 1:
            raise ValueError(f"m = {self.m} must be positive and prime to p")
        if self.r < 1 or len(self.x_polys) != self.r:
            raise ValueError(f"need exactly r = {self.r} layer polynomials")
        if any(poly.p != self.p for poly in self.x_polys):
            raise ValueError("layer polynomials must live over F_p")
        object.__setattr__(self, "residue_class", self.residue_class % self.m)

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
    valid: bool
    violations: tuple[str, ...]

    def to_dict(self) -> dict:
        return {"valid": self.valid, "violations": list(self.violations)}


def validate_spec(t: TowerSpec) -> SpecVerdict:
    """Check the degree constraints monomial by monomial.

    Each violating term is reported.  Also requires the induced action
    order m_I = m / gcd(m, class) to divide p - 1, without which no group
    of the intended shape acts on the tower.
    """
    v = []
    if t.x_polys[0].is_zero:
        v.append("x_1 is the zero polynomial")
    for i, poly in enumerate(t.x_polys, start=1):
        for d, _ in poly.terms():
            if gcd(d, t.p) != 1:
                v.append(f"x_{i}: term degree {d} is not prime to p = {t.p}")
            if d % t.m != t.residue_class:
                v.append(
                    f"x_{i}: term degree {d} is not {t.residue_class} mod m = {t.m}"
                )
    m_I = t.m // gcd(t.m, t.residue_class)
    if (t.p - 1) % m_I != 0:
        v.append(f"action order m_I = {m_I} does not divide p - 1 = {t.p - 1}")
    return SpecVerdict(valid=not v, violations=tuple(v))


def inertia_type_of(t: TowerSpec) -> InertiaType:
    m_I = t.m // gcd(t.m, t.residue_class)
    return InertiaType(p=t.p, r=t.r, m=t.m, m_I=m_I)


def predicted_jumps(t: TowerSpec) -> JumpSequence:
    """u_1 = deg(x_1)/m, u_i = max(deg(x_i)/m, p u_{i-1}); a zero layer
    contributes only the p u_{i-1} branch."""
    verdict = validate_spec(t)
    if not verdict.valid:
        raise ValueError(f"invalid tower: {verdict.violations[0]}")
    out: list[Fraction] = []
    for i, poly in enumerate(t.x_polys):
        if i == 0:
            out.append(Fraction(poly.degree, t.m))
        elif poly.is_zero:
            out.append(t.p * out[-1])
        else:
            out.append(max(Fraction(poly.degree, t.m), t.p * out[-1]))
    return JumpSequence(tuple(out))


def oracle_supported(t: TowerSpec) -> bool:
    return t.r <= 2


# ---------------------------------------------------------------------------
# Length-2 Witt vectors over F_p[x]

WittVector = tuple[FpPolynomial, FpPolynomial]


@lru_cache(maxsize=None)
def _carry_coefficients(p: int) -> tuple[int, ...]:
    # binom(p, i) / p mod p for i = 1..p-1; exact integer division
    return tuple(comb(p, i) // p % p for i in range(1, p))


def witt_carry(a: FpPolynomial, b: FpPolynomial) -> FpPolynomial:
    """(a^p + b^p - (a + b)^p) / p as a polynomial over F_p.

    Sums the coefficient row binom(p, i)/p mod p of a^i b^(p-i); the
    second wild layer of a tower reads y_2^p - y_2 = x_2 - carry(y_1^p, -y_1),
    so x_2 enters that equation only through the lone linear term.
    """
    p = a.p
    if b.p != p:
        raise ValueError("carry of polynomials over the wrong field")
    if a.is_zero or b.is_zero:
        return FpPolynomial.zero(p)
    coeffs = _carry_coefficients(p)
    pow_a = [a]
    pow_b = [b]
    for _ in range(p - 2):
        pow_a.append(pow_a[-1] * a)
        pow_b.append(pow_b[-1] * b)
    total = FpPolynomial.zero(p)
    for i in range(1, p):
        total = total + (pow_a[i - 1] * pow_b[p - i - 1]).scale(coeffs[i - 1])
    return -total


def witt_add(u: WittVector, v: WittVector) -> WittVector:
    return (u[0] + v[0], u[1] + v[1] + witt_carry(u[0], v[0]))


def witt_neg(u: WittVector) -> WittVector:
    # componentwise for odd p
    return (-u[0], -u[1])


def witt_sub(u: WittVector, v: WittVector) -> WittVector:
    return witt_add(u, witt_neg(v))


def witt_frobenius(u: WittVector) -> WittVector:
    return (u[0].pth_power(), u[1].pth_power())


def witt_wp(u: WittVector) -> WittVector:
    """The additive map w -> F(w) - w on length-2 Witt vectors."""
    return witt_sub(witt_frobenius(u), u)


# ---------------------------------------------------------------------------
# Oracle


def _derived_class(m: int, polys) -> int:
    """Common residue class mod m of all term degrees, or raise."""
    classes = {d % m for poly in polys for d, _ in poly.terms()}
    if len(classes) > 1:
        raise ValueError(f"term degrees fall in several classes mod {m}: {sorted(classes)}")
    return classes.pop() if classes else 0


def oracle_jumps(t: TowerSpec) -> JumpSequence:
    """Upper jumps from first principles, for r <= 2.

    Unlike predicted_jumps this accepts towers whose polynomials are not
    yet reduced (their extension is unchanged by w^p - w shifts); it
    refuses constant terms, which over F_p cannot be shifted away.
    """
    if t.r > 2:
        raise NotImplementedError(
            "the oracle covers r <= 2 only; longer carries are out of scope"
        )
    p, m = t.p, t.m
    for i, poly in enumerate(t.x_polys, start=1):
        if not poly.is_zero and poly.coeffs[0] != 0:
            raise ValueError(f"x_{i} has a constant term; shift it away first")

    reduced0, shift0 = as_reduce_with_witness(t.x_polys[0])
    if reduced0.is_zero or reduced0.degree < 1:
        raise ValueError("the first layer reduces to degree <= 0 and is unramified")
    h1 = reduced0.degree

    if t.r == 1:
        rc = _derived_class(m, [reduced0])
        inertia = InertiaType(p=p, r=1, m=m, m_I=m // gcd(m, rc))
        return upper_from_lower(inertia, [h1])

    vector: WittVector = (t.x_polys[0], t.x_polys[1])
    if not shift0.is_zero:
        vector = witt_sub(vector, witt_wp((shift0, FpPolynomial.zero(p))))
        if vector[0] != reduced0:
            raise RuntimeError("Witt shift did not reproduce the reduced first layer")
    reduced1, _ = as_reduce_with_witness(vector[1])

    n1 = reduced1.degree if not reduced1.is_zero and reduced1.degree >= 1 else None
    if n1 is not None and n1 % p == 0:
        raise RuntimeError("reduced second layer kept a p-divisible degree")
    upper2 = max(p * h1, n1 or 0)
    h2 = h1 + p * (upper2 - h1)

    rc = _derived_class(m, [reduced0, reduced1])
    inertia = InertiaType(p=p, r=2, m=m, m_I=m // gcd(m, rc))
    return upper_from_lower(inertia, [h1, h2])


# ---------------------------------------------------------------------------
# Deformation


def deform(t: TowerSpec, target: JumpSequence, scale: int = 1) -> TowerSpec:
    """Add scale * x^(m u_i') to x_i whenever u_i' > p u_{i-1}' and
    u_i' > u_i; other layers are untouched.  The added monomial strictly
    dominates deg(x_i), so any nonzero scale realizes the target."""
    base = predicted_jumps(t)
    inertia = inertia_type_of(t)
    if not deformation_compatible(inertia, base, target):
        raise ValueError(f"target {target} is not deformation-compatible with {base}")
    scale = scale % t.p
    if scale == 0:
        raise ValueError("scale must be nonzero in F_p")
    new_polys = []
    for i, poly in enumerate(t.x_polys):
        prev = target[i - 1] if i else Fraction(0)
        if target[i] > t.p * prev and target[i] > base[i]:
            n = t.m * target[i]
            assert n.denominator == 1
            bump = FpPolynomial.monomial(t.p, scale, int(n))
            new = poly + bump
            if new.degree != int(n):
                raise RuntimeError("deformation monomial failed to dominate")
            new_polys.append(new)
        else:
            new_polys.append(poly)
    out = TowerSpec(
        p=t.p, m=t.m, r=t.r, x_polys=tuple(new_polys), residue_class=t.residue_class
    )
    verdict = validate_spec(out)
    if not verdict.valid:
        raise RuntimeError(f"deformed tower is invalid: {verdict.violations[0]}")
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
    if len(lines) < 1 + r:
        raise ValueError(f"expected {r} coefficient lines, found {len(lines) - 1}")
    polys = []
    for line in lines[1 : 1 + r]:
        try:
            coeffs = tuple(int(x) for x in line.split())
        except ValueError as exc:
            raise ValueError(f"malformed coefficient line {line!r}") from exc
        if not coeffs:
            raise ValueError("empty coefficient line; write a lone 0 for the zero layer")
        polys.append(FpPolynomial(p, coeffs))
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
