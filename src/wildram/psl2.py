"""Group data for SL2(F_l) and PSL2(F_l) at an auxiliary odd prime p.

Semisimple conjugacy classes of SL2(F_l) are keyed by (kind, index):
``C(i)`` has eigenvalues zeta^(+-i) for zeta the smallest primitive root
mod l (split kind), ``C~(i)`` has eigenvalues zt^(+-i) for zt the first
element of F_{l^2} in (a, b) lexicographic order of multiplicative order
exactly l + 1 (nonsplit kind).  Class representatives are the diagonal
matrix diag(zeta^i, zeta^-i) and the matrix of multiplication by zt^i on
F_{l^2} viewed as a plane over F_l with basis (1, s), s^2 the least
nonresidue.  Element orders asserted anywhere in this module are confirmed
by powering these concrete matrices.

The subgroup search (groups.FiniteGroup, on the PSL2 multiplication
table) enumerates, for groups of order within a budget, the closures of
all one- and two-element generating sets (reduced to one generator per
cyclic subgroup, which produces exactly the same closure set) and answers
questions about dihedral subgroups and quasi-p subgroups from that
complete list.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .exactmath import FiniteField, is_prime, prime_factors, vp
from .groups import FiniteGroup, Subgroup


def _require_odd_prime(n: int, name: str):
    if not is_prime(n) or n == 2:
        raise ValueError(f"{name} = {n} must be an odd prime")


# ---------------------------------------------------------------------------
# Basic invariants


@dataclass(frozen=True)
class GroupParams:
    """Derived invariants of PSL2(F_l) at p: order, a = v_p(l^2 - 1), m_G."""

    p: int
    ell: int
    order: int
    a: int
    m_G: int


def group_params(p: int, ell: int) -> GroupParams:
    _require_odd_prime(p, "p")
    _require_odd_prime(ell, "ell")
    if p == ell:
        raise ValueError("p must differ from ell")
    order = ell * (ell * ell - 1) // 2
    lo, hi = vp(ell - 1, p), vp(ell + 1, p)
    if lo and hi:
        raise RuntimeError("odd p cannot divide both ell - 1 and ell + 1")
    a = lo + hi
    return GroupParams(p=p, ell=ell, order=order, a=a, m_G=2 if a >= 1 else 1)


@dataclass(frozen=True)
class InertiaType:
    """Inertia shape Z/p^r x| Z/m with the tame part acting with order m_I.

    m_I divides gcd(m, p - 1); m_I = 1 exactly when the group is the direct
    product Z/p^r x Z/m.
    """

    p: int
    r: int
    m: int
    m_I: int

    def __post_init__(self):
        _require_odd_prime(self.p, "p")
        if self.r < 1:
            raise ValueError(f"r = {self.r} must be >= 1")
        if self.m < 1 or gcd(self.m, self.p) != 1:
            raise ValueError(f"m = {self.m} must be positive and prime to p")
        if self.m_I < 1 or gcd(self.m, self.p - 1) % self.m_I != 0:
            raise ValueError(
                f"m_I = {self.m_I} must divide gcd(m, p - 1) = {gcd(self.m, self.p - 1)}"
            )

    @classmethod
    def cyclic(cls, p: int, r: int) -> "InertiaType":
        return cls(p=p, r=r, m=1, m_I=1)

    @classmethod
    def dihedral(cls, p: int, r: int) -> "InertiaType":
        return cls(p=p, r=r, m=2, m_I=2)

    @property
    def group_order(self) -> int:
        return self.m * self.p**self.r

    @property
    def is_abelian(self) -> bool:
        return self.m_I == 1

    def label(self) -> str:
        q = self.p**self.r
        if self.m == 1:
            return f"Z/{q}"
        if self.m == 2 and self.m_I == 2:
            return f"D_{q}"
        return f"Z/{q} x| Z/{self.m} (m_I = {self.m_I})"

    def to_dict(self) -> dict:
        return {"p": self.p, "r": self.r, "m": self.m, "m_I": self.m_I, "label": self.label()}


def inertia_candidates(gp: GroupParams) -> list[InertiaType]:
    """Cyclic and dihedral inertia shapes Z/p^r, D_{p^r} with 1 <= r <= a."""
    if gp.a == 0:
        return []
    out = [InertiaType.cyclic(gp.p, r) for r in range(1, gp.a + 1)]
    out += [InertiaType.dihedral(gp.p, r) for r in range(1, gp.a + 1)]
    return out


# ---------------------------------------------------------------------------
# Conjugacy classes and the matrix-power oracle


@dataclass(frozen=True)
class ConjClass:
    kind: str  # "split" or "nonsplit"
    index: int

    def __post_init__(self):
        if self.kind not in ("split", "nonsplit"):
            raise ValueError(f"unknown class kind {self.kind!r}")
        if self.index < 1:
            raise ValueError(f"class index {self.index} must be >= 1")

    def torus_order(self, ell: int) -> int:
        return ell - 1 if self.kind == "split" else ell + 1

    def check_bounds(self, ell: int):
        if not 0 < self.index < self.torus_order(ell) // 2:
            raise ValueError(
                f"index {self.index} out of range for {self.kind} classes of SL2(F_{ell})"
            )

    def label(self) -> str:
        return f"C({self.index})" if self.kind == "split" else f"C~({self.index})"

    def to_dict(self) -> dict:
        return {"kind": self.kind, "index": self.index, "label": self.label()}


@lru_cache(maxsize=None)
def primitive_root(ell: int) -> int:
    """Smallest generator of the multiplicative group mod ell."""
    _require_odd_prime(ell, "ell")
    n = ell - 1
    qs = prime_factors(n)
    for g in range(2, ell):
        if all(pow(g, n // q, ell) != 1 for q in qs):
            return g
    raise RuntimeError(f"no primitive root mod {ell}")  # unreachable


@lru_cache(maxsize=None)
def norm_one_generator(ell: int):
    """First element of F_{l^2}, (a, b) lexicographic, of order exactly l + 1."""
    _require_odd_prime(ell, "ell")
    field = FiniteField(ell, 2)
    target = ell + 1
    qs = prime_factors(target)
    one = field.one()
    for a in range(ell):
        for b in range(1, ell):
            z = field.element(a, b)
            if z**target == one and all(z ** (target // q) != one for q in qs):
                return z
    raise RuntimeError(f"no element of order {target} in F_{ell}^2")  # unreachable


Matrix = tuple[int, int, int, int]  # row major 2x2


def _mat_mul(u: Matrix, v: Matrix, ell: int) -> Matrix:
    return (
        (u[0] * v[0] + u[1] * v[2]) % ell,
        (u[0] * v[1] + u[1] * v[3]) % ell,
        (u[2] * v[0] + u[3] * v[2]) % ell,
        (u[2] * v[1] + u[3] * v[3]) % ell,
    )


def _mat_det(u: Matrix, ell: int) -> int:
    return (u[0] * u[3] - u[1] * u[2]) % ell


def class_representative(ell: int, cls: ConjClass) -> Matrix:
    """Canonical SL2(F_l) representative of the class."""
    cls.check_bounds(ell)
    if cls.kind == "split":
        z = pow(primitive_root(ell), cls.index, ell)
        rep = (z, 0, 0, pow(z, ell - 2, ell))
    else:
        zt = norm_one_generator(ell) ** cls.index
        n = zt.field.nonresidue
        rep = (zt.a, n * zt.b % ell, zt.b, zt.a)
    if _mat_det(rep, ell) != 1:
        raise RuntimeError(f"representative of {cls.label()} is not in SL2(F_{ell})")
    return rep


def matrix_orders(ell: int, mat: Matrix) -> tuple[int, int]:
    """(order in SL2, order in PSL2) of a matrix, by explicit powering.

    The PSL2 order is the SL2 order, halved exactly when the power at half
    order is -Id.
    """
    identity = (1, 0, 0, 1)
    minus_identity = (ell - 1, 0, 0, ell - 1)
    acc = mat
    order = 1
    bound = 2 * ell * (ell + 1)  # any element order divides l(l^2 - 1)/ gcd, stay safe
    while acc != identity:
        acc = _mat_mul(acc, mat, ell)
        order += 1
        if order > bound:
            raise RuntimeError("order computation exceeded the safety bound")
    psl2_order = order
    if order % 2 == 0:
        half = identity
        for _ in range(order // 2):
            half = _mat_mul(half, mat, ell)
        if half == minus_identity:
            psl2_order = order // 2
    return order, psl2_order


def class_order(ell: int, cls: ConjClass, p: int) -> tuple[int, int]:
    """(order in SL2, its p-valuation) of an element of the class.

    The formula (l -+ 1)/gcd(l -+ 1, i) is asserted against the identity
    v_p(order) = max(0, v_p(l -+ 1) - v_p(i)).
    """
    _require_odd_prime(ell, "ell")
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    cls.check_bounds(ell)
    t = cls.torus_order(ell)
    order = t // gcd(t, cls.index)
    v = vp(order, p)
    if v != max(0, vp(t, p) - vp(cls.index, p)):
        raise RuntimeError("p-valuation of class order violates the gcd identity")
    return order, v


@dataclass(frozen=True)
class ClassTriple:
    """Three conjugacy classes with strictly increasing p-part of order."""

    classes: tuple[ConjClass, ConjClass, ConjClass]
    sl2_indices: tuple[int, int, int]
    psl2_indices: tuple[int, int, int]

    def to_dict(self) -> dict:
        return {
            "classes": [c.to_dict() for c in self.classes],
            "sl2_indices": list(self.sl2_indices),
            "psl2_indices": list(self.psl2_indices),
        }


def select_triple(p: int, ell: int) -> ClassTriple:
    """The class triple with p-valuations of PSL2 orders equal to (0, a-1, a).

    Branches on which of l - 1, l + 1 carries the full power p^a.  All
    element orders are confirmed with the matrix-power oracle, and the
    valuation chain is asserted, never assumed.
    """
    gp = group_params(p, ell)
    if gp.a < 2:
        raise ValueError(f"class triple needs v_p(ell^2 - 1) >= 2, got a = {gp.a}")
    if not 2 * p + 4 < ell - 1:
        raise ValueError(
            f"size hypothesis violated: 2p + 4 = {2 * p + 4} is not < ell - 1 = {ell - 1}"
        )
    if vp(ell - 1, p) == gp.a:
        classes = (
            ConjClass("nonsplit", (ell + 1) // 2 - 1),
            ConjClass("split", (ell - 1) // 2 - p),
            ConjClass("split", (ell - 1) // 2 - 1),
        )
    else:
        classes = (
            ConjClass("split", (ell - 1) // 2 - 1),
            ConjClass("nonsplit", (ell + 1) // 2 - p),
            ConjClass("nonsplit", (ell + 1) // 2 - 1),
        )
    sl2 = []
    psl2 = []
    for cls in classes:
        formula_order, _ = class_order(ell, cls, p)
        s_order, q_order = matrix_orders(ell, class_representative(ell, cls))
        if s_order != formula_order:
            raise RuntimeError(
                f"matrix oracle disagrees with class order formula for {cls.label()}"
            )
        sl2.append(s_order)
        psl2.append(q_order)
    chain = tuple(vp(e, p) for e in psl2)
    if chain != (0, gp.a - 1, gp.a):
        raise RuntimeError(f"valuation chain {chain} is not (0, {gp.a - 1}, {gp.a})")
    return ClassTriple(classes=classes, sl2_indices=tuple(sl2), psl2_indices=tuple(psl2))


# ---------------------------------------------------------------------------
# Explicit PSL2 and its subgroup lattice


class Psl2Atlas(FiniteGroup):
    """PSL2(F_l) as element list plus full multiplication table.

    Elements are sign-canonical SL2 matrices: of the pair {M, -M} keep the
    one whose first nonzero entry lies in 1..(l-1)/2.
    """

    def __init__(self, ell: int):
        _require_odd_prime(ell, "ell")
        self.ell = ell
        self._build_elements()
        super().__init__(self.n, self._build_table(), self._index[(1, 0, 0, 1)])

    def _canonical(self, m: Matrix) -> Matrix:
        ell = self.ell
        for x in m:
            if x:
                if x > ell // 2:
                    return tuple((-y) % ell for y in m)
                return m
        raise ValueError("zero matrix")

    def _build_elements(self):
        ell = self.ell
        seen = {}
        elements = []
        for a in range(ell):
            for b in range(ell):
                for c in range(ell):
                    if a:
                        d = (1 + b * c) * pow(a, ell - 2, ell) % ell
                        mats = [(a, b, c, d)]
                    elif b:
                        cval = (-pow(b, ell - 2, ell)) % ell
                        if c != cval:
                            continue
                        mats = [(a, b, cval, d) for d in range(ell)]
                    else:
                        continue
                    for m in mats:
                        cm = self._canonical(m)
                        if cm not in seen:
                            seen[cm] = len(elements)
                            elements.append(cm)
        self.elements = elements
        self.n = len(elements)
        expected = ell * (ell * ell - 1) // 2
        if self.n != expected:
            raise RuntimeError(f"PSL2(F_{ell}) enumeration found {self.n}, expected {expected}")
        self._index = seen

    def _build_table(self) -> list[int]:
        ell, n = self.ell, self.n
        index = self._index
        elements = self.elements
        half = ell // 2
        table = [0] * (n * n)
        for i, u in enumerate(elements):
            u0, u1, u2, u3 = u
            base = i * n
            for j, v in enumerate(elements):
                w0 = (u0 * v[0] + u1 * v[2]) % ell
                w1 = (u0 * v[1] + u1 * v[3]) % ell
                w2 = (u2 * v[0] + u3 * v[2]) % ell
                w3 = (u2 * v[1] + u3 * v[3]) % ell
                if w0:
                    if w0 > half:
                        w0, w1, w2, w3 = -w0 % ell, -w1 % ell, -w2 % ell, -w3 % ell
                elif w1 > half:
                    w1, w2, w3 = -w1 % ell, -w2 % ell, -w3 % ell
                table[base + j] = index[(w0, w1, w2, w3)]
        return table


@lru_cache(maxsize=None)
def psl2_atlas(ell: int) -> Psl2Atlas:
    return Psl2Atlas(ell)


# ---------------------------------------------------------------------------
# Subgroup claims report


@dataclass(frozen=True)
class ClaimResult:
    claim_id: str
    status: str  # "pass" | "fail"
    summary: str
    witness: dict | None = None

    def to_dict(self) -> dict:
        out = {"claim": self.claim_id, "status": self.status, "summary": self.summary}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass(frozen=True)
class SubgroupReport:
    p: int
    ell: int
    group_order: int
    budget: int
    status: str  # "checked" | "refused"
    claims: tuple[ClaimResult, ...] = ()
    subgroup_count: int = 0
    reason: str = ""

    @property
    def all_passed(self) -> bool:
        return self.status == "checked" and all(c.status == "pass" for c in self.claims)

    def to_dict(self) -> dict:
        out = {
            "p": self.p,
            "ell": self.ell,
            "group_order": self.group_order,
            "budget": self.budget,
            "status": self.status,
        }
        if self.status == "refused":
            out["reason"] = self.reason
        else:
            out["subgroup_count"] = self.subgroup_count
            out["claims"] = [c.to_dict() for c in self.claims]
        return out


def _subgroup_witness(atlas: Psl2Atlas, sub: Subgroup) -> dict:
    return {
        "size": sub.size,
        "generators": [list(atlas.elements[g]) for g in sub.generators] or "cyclic",
    }


def verify_subgroup_claims(p: int, ell: int, budget: int = 2000) -> SubgroupReport:
    """Exhaustively certify three subgroup facts about PSL2(F_l) at p.

    (i)   a dihedral subgroup of order 2p exists;
    (ii)  every nonabelian subgroup of the form Z/p x| Z/m is dihedral of
          order 2p;
    (iii) every quasi-p subgroup containing a dihedral subgroup of order 2p
          is the whole group.

    Refuses (claims unchecked, not falsified) when the group order exceeds
    the budget.
    """
    gp = group_params(p, ell)
    if gp.order > budget:
        return SubgroupReport(
            p=p,
            ell=ell,
            group_order=gp.order,
            budget=budget,
            status="refused",
            reason=f"group order {gp.order} exceeds budget {budget}; claims not checked",
        )
    atlas = psl2_atlas(ell)
    subs = atlas.subgroups()
    two_p = 2 * p

    dihedrals = [
        s for s in subs if s.size == two_p and not atlas.is_abelian_subgroup(s)
    ]
    if dihedrals:
        claim1 = ClaimResult(
            "dihedral-exists",
            "pass",
            f"found {len(dihedrals)} dihedral subgroups of order {two_p}",
            _subgroup_witness(atlas, dihedrals[0]),
        )
    else:
        claim1 = ClaimResult(
            "dihedral-exists", "fail", f"no nonabelian subgroup of order {two_p}"
        )

    claim2 = ClaimResult(
        "semidirect-form-is-dihedral",
        "pass",
        f"every nonabelian Z/{p} x| Z/m subgroup has order {two_p}",
    )
    for sub in subs:
        if not atlas.semidirect_p_form(sub, p):
            continue
        if atlas.is_abelian_subgroup(sub):
            continue
        if sub.size != two_p:
            claim2 = ClaimResult(
                "semidirect-form-is-dihedral",
                "fail",
                f"nonabelian Z/{p} x| Z/{sub.size // p} subgroup of order {sub.size}",
                _subgroup_witness(atlas, sub),
            )
            break

    claim3 = ClaimResult(
        "quasi-p-above-dihedral-is-whole",
        "pass",
        f"every quasi-{p} subgroup containing a D_{p} is the whole group",
    )
    for sub in subs:
        if sub.size % two_p != 0 or sub.size == atlas.n:
            continue
        if not any(d.mask & sub.mask == d.mask for d in dihedrals):
            continue
        if atlas.is_quasi_p(sub, p):
            claim3 = ClaimResult(
                "quasi-p-above-dihedral-is-whole",
                "fail",
                f"proper quasi-{p} subgroup of order {sub.size} contains a D_{p}",
                _subgroup_witness(atlas, sub),
            )
            break

    return SubgroupReport(
        p=p,
        ell=ell,
        group_order=gp.order,
        budget=budget,
        status="checked",
        claims=(claim1, claim2, claim3),
        subgroup_count=len(subs),
    )
