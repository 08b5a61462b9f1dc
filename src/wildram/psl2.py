"""Group data for SL2(F_l) and PSL2(F_l) at an auxiliary odd prime p.

Everything here is a 2x2 matrix over F_l.  Semisimple conjugacy classes
of SL2(F_l) are keyed by (kind, index): ``C(i)`` has eigenvalues
zeta^(+-i) for zeta the smallest primitive root mod l (split kind),
``C~(i)`` has eigenvalues zt^(+-i) for zt a generator of the norm-one
torus of F_{l^2} (nonsplit kind).  F_{l^2} is the plane over F_l with
basis (1, s), s^2 the least nonresidue n, and a + b*s acts on it by the
matrix (a, n b, b, a); the torus generator is the first such matrix, (a, b)
lexicographic, of determinant 1 and order exactly l + 1.  Class
representatives are the diagonal matrix diag(zeta^i, zeta^-i) and the i-th
power of the torus-generator matrix.  Element orders asserted anywhere in
this module are confirmed by powering these concrete matrices.

The subgroup search (groups.FiniteGroup, multiplying PSL2 matrices as it
needs the products) finds, for groups of order within a budget, every
subgroup generated by at most two elements.  It closes one pair of cyclic
subgroups per conjugacy class of such pairs and adds each closure's
conjugates, which gives the same list as closing every pair.  The
subgroup claims read the class table the search records as it goes, the
first member of each conjugacy class of subgroups and its length, and
never build the list, since every question they ask is invariant under
conjugation ("above a D_p": an element of order p and an involution
inverting it).  A
closure that reaches the whole group is proven whole from its generators'
action on the projective line P^1(F_l), instead of being searched: one
breadth-first pass over P^1 gives the orbit of infinity and the Schreier
generators of its stabilizer, and Lagrange's theorem does the rest.  Every
other closure is still searched.  A printed witness names the first pair
of cyclic subgroups that generates it, found by closing the pairs inside
that subgroup only.  No budget admits a group above ORDER_LIMIT elements, the
order of PSL2(F_43).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, lcm

from .exactmath import _prime_verdict, least_nonresidue, require_odd_prime, vp
from .exactmath import smallest_unit_of_order
from .groups import ORDER_LIMIT, FiniteGroup, Subgroup, check_order

# the largest group order verify_subgroup_claims certifies unless asked for more
DEFAULT_BUDGET = 2000


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
    require_odd_prime(p, "p")
    require_odd_prime(ell, "ell")
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
        require_odd_prime(self.p, "p")
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
    require_odd_prime(ell, "ell")
    return smallest_unit_of_order(ell, ell, ell - 1)


@lru_cache(maxsize=None)
def norm_one_generator(ell: int) -> Matrix:
    """The first (a, n b, b, a), (a, b) lexicographic with b >= 1, of order l + 1.

    This is multiplication by a + b*s on F_{l^2} = F_l(s), s^2 = n the least
    nonresidue.  Its determinant is the norm a^2 - n b^2, which is 1 exactly
    when the order divides l + 1, so only those matrices are powered.
    """
    require_odd_prime(ell, "ell")
    n = least_nonresidue(ell)
    for a in range(ell):
        for b in range(1, ell):
            mat = (a, n * b % ell, b, a)
            if _mat_det(mat, ell) == 1 and matrix_orders(ell, mat)[0] == ell + 1:
                return mat
    raise RuntimeError(f"no element of order {ell + 1} in F_{ell}^2")  # unreachable


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
        zt = norm_one_generator(ell)
        rep = (1, 0, 0, 1)
        for _ in range(cls.index):
            rep = _mat_mul(rep, zt, ell)
    if _mat_det(rep, ell) != 1:
        raise RuntimeError(f"representative of {cls.label()} is not in SL2(F_{ell})")
    return rep


def matrix_orders(ell: int, mat: Matrix) -> tuple[int, int]:
    """(order in SL2, order in PSL2) of a matrix, by explicit powering.

    The powering stops at the first M^k in {Id, -Id}: k is the PSL2 order,
    and the SL2 order is k at Id and 2k at -Id.
    """
    identity = (1, 0, 0, 1)
    minus_identity = (ell - 1, 0, 0, ell - 1)
    acc = mat
    k = 1
    bound = 2 * ell * (ell + 1)  # any element order divides l(l^2 - 1)/ gcd, stay safe
    while acc != identity and acc != minus_identity:
        acc = _mat_mul(acc, mat, ell)
        k += 1
        if k > bound:
            raise RuntimeError("order computation exceeded the safety bound")
    return (k, k) if acc == identity else (2 * k, k)


def class_order(ell: int, cls: ConjClass, p: int) -> tuple[int, int]:
    """(order in SL2, its p-valuation) of an element of the class.

    The formula (l -+ 1)/gcd(l -+ 1, i) is asserted against the identity
    v_p(order) = max(0, v_p(l -+ 1) - v_p(i)).
    """
    require_odd_prime(ell, "ell")
    if not _prime_verdict(p):
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
    """PSL2(F_l) as a list of matrices, multiplied mod l on demand.

    Elements are sign-canonical SL2 matrices: of the pair {M, -M} keep the
    lexicographically first, whose first nonzero entry lies in 1..(l-1)/2.
    A matrix (a, b, c, d) of determinant 1 is fixed by its code
    (a l + b) l + (c if a else d), since d = (1 + bc)/a when a != 0 and
    c = -1/b when a = 0; the codes b l + d of a = 0 lie below l^2, and those
    of a != 0 from l^2 up.  The flat list ``_slot`` of l^3 entries maps the
    codes of both M and -M to that element's id, so a product is computed
    entry by entry and looked up once.  ``mul``, ``products`` and ``conjugates``
    each inline that arithmetic; a conjugation g x g^-1 is one fused
    product with g's inverse (d, -b, -c, a), not two.
    """

    def __init__(self, ell: int):
        require_odd_prime(ell, "ell")
        check_order(ell * (ell * ell - 1) // 2)
        self.ell = ell
        self._inverse_mod = [0] + [pow(x, ell - 2, ell) for x in range(1, ell)]
        self._build_elements()
        super().__init__(self.n, self._slot[ell * ell])  # the code of (1, 0, 0, 1)

    def mul(self, x: int, y: int) -> int:
        ell, slot = self.ell, self._slot
        a, b, c, d = self.elements[x]
        p, q, r, s = self.elements[y]
        top = (a * p + b * r) % ell
        last = c * p + d * r if top else c * q + d * s
        return slot[(top * ell + (a * q + b * s) % ell) * ell + last % ell]

    def products(self, xs, g: int) -> list[int]:
        ell, elements, slot = self.ell, self.elements, self._slot
        p, q, r, s = elements[g]
        out = []
        for x in xs:
            a, b, c, d = elements[x]
            top = (a * p + b * r) % ell
            last = c * p + d * r if top else c * q + d * s
            out.append(slot[(top * ell + (a * q + b * s) % ell) * ell + last % ell])
        return out

    def conjugates(self, g: int, xs) -> list[int]:
        # for g = (a, b, c, d) of determinant 1, g (w, x, y, z) g^-1 has top
        # row (ad w - ac x + bd y - bc z, -ab w + a^2 x - b^2 y + ab z),
        # bottom-left entry cd w - c^2 x + d^2 y - cd z and trace w + z, so
        # its bottom-right entry is w + z where the top-left one is 0
        ell, elements, slot = self.ell, self.elements, self._slot
        a, b, c, d = elements[g]
        ad, ac, bd, bc = a * d, -a * c, b * d, -b * c
        ab, aa, bb = a * b, a * a, -b * b
        cd, cc, dd = c * d, -c * c, d * d
        out = []
        for i in xs:
            w, x, y, z = elements[i]
            top = (ad * w + ac * x + bd * y + bc * z) % ell
            right = (ab * (z - w) + aa * x + bb * y) % ell
            last = cd * (w - z) + cc * x + dd * y if top else w + z
            out.append(slot[(top * ell + right) * ell + last % ell])
        return out

    def _schreier_generators(self, gens):
        """None when the orbit of infinity (point l) of P^1(F_l) under gens
        has at most l points, else its Schreier generators (_schreier), which
        fix infinity and generate its stabilizer: one breadth-first pass,
        reading each generator's matrix once, maps infinity to a/c and each
        other point z to (az + b)/(cz + d), and records the tree parent
        (o, g) of each point first reached and every other edge o -> y = g(o),
        in (point, generator) order.
        """
        ell, elements, inverse = self.ell, self.elements, self._inverse_mod
        mats = [(g, *elements[g]) for g in gens]
        parent = [None] * (ell + 1)  # parent[y] = (o, g): y = g(o); () at infinity
        parent[ell] = ()
        points, edges = [], []  # the points reached, infinity left out
        for g, a, _, c, _ in mats:  # g maps infinity to a/c
            y = a * inverse[c] % ell if c else ell
            if parent[y] is None:
                parent[y] = (ell, g)
                points.append(y)
            else:
                edges.append((ell, g, y))
        for o in points:  # grows while it is read
            for g, a, b, c, d in mats:
                den = (c * o + d) % ell
                y = (a * o + b) * inverse[den] % ell if den else ell
                if parent[y] is None:
                    parent[y] = (o, g)
                    points.append(y)
                else:
                    edges.append((o, g, y))
        if len(points) < ell:
            return None
        return self._schreier(ell, parent, edges)

    def _proves_whole(self, gens) -> bool:
        """Whether <gens> = K is proven to be the whole group from its action
        on P^1(F_l): the orbit of infinity and Lagrange's theorem on the
        stabilizer K_inf of infinity in K.

        The whole group is transitive on the l + 1 points, so a shorter orbit
        means False.  Otherwise |K| = (l + 1) |K_inf| (orbit-stabilizer).
        The Schreier generators of the orbit (``_schreier_generators``, by the
        engine's ``_schreier``; Holt, Eick and O'Brien, *Handbook of
        Computational Group Theory*, 4.1-4.4) and the commutator of each two
        consecutive ones lie in K_inf, so the lcm L of their orders divides
        |K_inf|, and once 2 (l + 1) L > n Lagrange leaves only the whole
        group.  Each of them must fix infinity, that is have lower left entry
        0, or RuntimeError.  If K is the whole group, K_inf is the Borel
        subgroup of order l (l - 1)/2.  The Schreier generators generate it,
        so they map onto its cyclic quotient of order (l - 1)/2.  Unless one of them has order l, two consecutive ones do
        not commute, since commuting elements of order prime to l lie in one
        torus, and their commutator has order l.  So L reaches l (l - 1)/2
        and every whole closure is proven; False leaves the question to
        closure_ids.
        """
        ell, n, elements, orders = self.ell, self.n, self.elements, self.orders
        mul, inverses = self.mul, self.inverses
        schreier = self._schreier_generators(gens)
        if schreier is None:
            return False
        order_lcm, previous = 1, None
        for s in schreier:
            fixed = [s]
            if previous is not None and order_lcm % ell:  # a commutator has order 1 or l
                fixed.append(mul(mul(previous, s), inverses[mul(s, previous)]))
            for x in fixed:
                if elements[x][2]:
                    raise RuntimeError(
                        f"PSL2(F_{ell}): the Schreier generator {elements[x]} of"
                        f" {tuple(gens)} does not fix infinity"
                    )
                order_lcm = lcm(order_lcm, orders[x])
            if 2 * (ell + 1) * order_lcm > n:
                return True
            previous = s
        return False

    def _build_elements(self):
        """The sign-canonical matrices, ids in lexicographic order, and
        ``_slot``: first a = 0 (then c = -1/b and d runs over F_l), then
        a != 0 (then d = (1 + bc)/a).  The first nonzero entry of a canonical
        matrix lies in 1..(l-1)/2, so a runs up to (l-1)/2, and b does at
        a = 0."""
        ell = self.ell
        half, inverse = (ell - 1) // 2, self._inverse_mod
        elements = [
            (0, b, -inverse[b] % ell, d) for b in range(1, half + 1) for d in range(ell)
        ]
        elements += [
            (a, b, c, (1 + b * c) * inverse[a] % ell)
            for a in range(1, half + 1)
            for b in range(ell)
            for c in range(ell)
        ]
        self.elements = elements
        self.n = len(elements)
        expected = ell * (ell * ell - 1) // 2
        if self.n != expected:
            raise RuntimeError(f"PSL2(F_{ell}) enumeration found {self.n}, expected {expected}")
        slot = [0] * ell**3
        for i, (a, b, c, d) in enumerate(elements):
            last = c if a else d
            slot[(a * ell + b) * ell + last] = i
            slot[(-a % ell * ell + -b % ell) * ell + -last % ell] = i
        self._slot = slot


@lru_cache(maxsize=1)
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
    """The subgroup's size and generator matrices: the first pair of cyclic
    subgroups that generates it (FiniteGroup._first_generating_pair),
    searched only here.  Every witness of the claims is nonabelian, so
    never cyclic, and such a pair exists."""
    gens = atlas._first_generating_pair(sub.ids)
    return {"size": sub.size, "generators": [list(atlas.elements[g]) for g in gens]}


def verify_subgroup_claims(p: int, ell: int, budget: int = DEFAULT_BUDGET) -> SubgroupReport:
    """Exhaustively certify three subgroup facts about PSL2(F_l) at p.

    (i)   a dihedral subgroup of order 2p exists;
    (ii)  every nonabelian subgroup of the form Z/p x| Z/m is dihedral of
          order 2p;
    (iii) every quasi-p subgroup containing a dihedral subgroup of order 2p
          is the whole group.

    Size and being abelian, of the form Z/p x| Z/m, quasi-p, or above a D_p
    do not change under conjugation, so the claims read the search's class
    table (FiniteGroup.subgroup_classes), not the list of every subgroup:
    the first member in list order of each conjugacy class and its length,
    each predicate asked at most once per class.  Claim (i) counts a
    dihedral class by its length, and the subgroup count is the sum of the
    lengths.  A class's first member precedes its other members, so the
    first witness of each claim, and the first counterexample of (ii) and
    (iii), is that of a walk over every subgroup.

    Refuses (claims unchecked, not falsified) when the group order exceeds
    the budget or, whatever the budget, ORDER_LIMIT.
    """
    gp = group_params(p, ell)
    if gp.order > min(budget, ORDER_LIMIT):
        if budget <= ORDER_LIMIT:
            limit = f"budget {budget}"
        else:
            limit = f"the order limit {ORDER_LIMIT}"
        return SubgroupReport(
            p=p,
            ell=ell,
            group_order=gp.order,
            budget=budget,
            status="refused",
            reason=f"group order {gp.order} exceeds {limit}; claims not checked",
        )
    atlas = psl2_atlas(ell)
    classes = atlas.subgroup_classes()  # (first member, length), in list order
    reps = [s for s, _ in classes]
    two_p = 2 * p

    def claim(claim_id: str, holds: bool, summary: str, witness: Subgroup | None):
        printed = None if witness is None else _subgroup_witness(atlas, witness)
        return ClaimResult(claim_id, "pass" if holds else "fail", summary, printed)

    dihedrals = [
        (s, length) for s, length in classes
        if s.size == two_p and not atlas.is_abelian_subgroup(s)
    ]
    count = sum(length for _, length in dihedrals)
    found = dihedrals[0][0] if dihedrals else None
    claim1 = claim(
        "dihedral-exists",
        found is not None,
        f"found {count} dihedral subgroups of order {two_p}"
        if found is not None else f"no nonabelian subgroup of order {two_p}",
        found,
    )
    bad = next(
        (s for s in reps
         if s.size != two_p and atlas.semidirect_p_form(s, p) and not atlas.is_abelian_subgroup(s)),
        None,
    )
    claim2 = claim(
        "semidirect-form-is-dihedral",
        bad is None,
        f"every nonabelian Z/{p} x| Z/m subgroup has order {two_p}"
        if bad is None else f"nonabelian Z/{p} x| Z/{bad.size // p} subgroup of order {bad.size}",
        bad,
    )
    bad = next(
        (s for s in reps
         if s.size % two_p == 0 and s.size != atlas.n
         and atlas.contains_dihedral(s, p) and atlas.is_quasi_p(s, p)),
        None,
    )
    claim3 = claim(
        "quasi-p-above-dihedral-is-whole",
        bad is None,
        f"every quasi-{p} subgroup containing a D_{p} is the whole group"
        if bad is None else f"proper quasi-{p} subgroup of order {bad.size} contains a D_{p}",
        bad,
    )

    return SubgroupReport(
        p=p,
        ell=ell,
        group_order=gp.order,
        budget=budget,
        status="checked",
        claims=(claim1, claim2, claim3),
        subgroup_count=sum(length for _, length in classes),
    )
