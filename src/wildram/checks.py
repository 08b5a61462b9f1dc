"""Verification suites behind the check-all command and the acceptance tests.

Each check is a function returning a CheckResult; the registry maps stable
check ids to budgeted runs.  Everything is deterministic: randomized suites
draw from seeded generators.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial
from itertools import combinations
from math import gcd

from .exactmath import FpPolynomial
from .psl2 import DEFAULT_BUDGET, InertiaType, group_params, inertia_candidates, psl2_atlas
from .psl2 import select_triple, verify_subgroup_claims
from .ramification import (
    JumpSequence,
    base_sigma,
    compatible_targets,
    enumerate_admissible,
    genus,
    is_admissible,
    lower_numerators,
    tame_base_change,
    unmet_conditions,
    upper_from_lower,
    upper_numerators,
)
from .tails import SmallGroup, branch_cycle_feasible, generation_obstruction, solve_tail_configs
from .towers import (
    TowerSpec,
    inertia_type_of,
    oracle_jumps,
    oracle_numerators,
    predicted_jumps,
    predicted_numerators,
    verify_deformation,
)


@dataclass
class CheckResult:
    check_id: str
    title: str
    status: str  # "pass" | "fail" | "skip"
    seconds: float
    budget_seconds: float
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "check": self.check_id,
            "title": self.title,
            "status": self.status,
            "budget_seconds": self.budget_seconds,
            "detail": self.detail,
        }


class CheckFailure(Exception):
    """Raised inside a check body with the first counterexample."""


def _expect(condition: bool, message: str):
    """Fail with message unless condition holds.  Hot loops raise CheckFailure
    inline instead, so a passing iteration never formats its message."""
    if not condition:
        raise CheckFailure(message)


# ---------------------------------------------------------------------------
# Deterministic and randomized tower families


# The two tables below are small, pure and immutable, so they are computed
# once per key and shared; the towers drawn from them are built afresh.


@lru_cache(maxsize=64)
def _residue_classes(p: int, m: int) -> tuple[int, ...]:
    return tuple(j for j in range(m) if (p - 1) % (m // gcd(m, j)) == 0)


def valid_residue_classes(p: int, m: int) -> list[int]:
    """Classes j mod m whose induced action order m/gcd(m, j) divides p - 1."""
    return list(_residue_classes(p, m))


@lru_cache(maxsize=256)
def _valid_degrees(p: int, m: int, j: int, top: int) -> tuple[int, ...]:
    """Degrees 1 <= d <= top prime to p with d = j (mod m)."""
    return tuple(d for d in range(1, top + 1) if d % p != 0 and d % m == j)


def sweep_tower_specs(max_degree_r1: int = 40, max_degree_r2: int = 20) -> list[TowerSpec]:
    """Deterministic family over p in {3,5,7}, m in {1,2}, r in {1,2}.

    Single monomial layers at every valid degree, a slice of two-term first
    layers, r = 2 monomial pairs and r = 2 with a zero second layer.  Each
    distinct monomial is built once per p and shared by every spec using it.
    """
    specs: list[TowerSpec] = []
    for p in (3, 5, 7):
        zero = FpPolynomial.zero(p)
        monomials = {
            d: FpPolynomial.monomial(p, 1, d)
            for d in range(1, max(max_degree_r1, max_degree_r2) + 1)
            if d % p
        }
        for m in (1, 2):
            for j in _residue_classes(p, m):
                degs1 = _valid_degrees(p, m, j, max_degree_r1)
                for d in degs1:
                    specs.append(
                        TowerSpec(p=p, m=m, r=1, x_polys=(monomials[d],), residue_class=j)
                    )
                for d1, d2 in list(combinations(degs1, 2))[:24]:
                    poly = FpPolynomial.from_terms(p, {d1: 1, d2: p - 1})
                    specs.append(
                        TowerSpec(p=p, m=m, r=1, x_polys=(poly,), residue_class=j)
                    )
                degs2 = _valid_degrees(p, m, j, max_degree_r2)
                for d1 in degs2:
                    first = monomials[d1]
                    specs.append(
                        TowerSpec(p=p, m=m, r=2, x_polys=(first, zero), residue_class=j)
                    )
                    for d2 in degs2[:: max(1, len(degs2) // 6)]:
                        specs.append(
                            TowerSpec(
                                p=p, m=m, r=2, x_polys=(first, monomials[d2]), residue_class=j
                            )
                        )
    return specs


def random_tower_spec(rng: random.Random, max_degree: int = 40, r_choices=(1, 2)) -> TowerSpec:
    while True:
        p = rng.choice((3, 5, 7))
        m = rng.choice((1, 2, 3))
        if gcd(m, p) != 1:
            continue
        j = rng.choice(_residue_classes(p, m))
        r = rng.choice(r_choices)
        degs = _valid_degrees(p, m, j, max_degree)
        if not degs:
            continue
        polys = []
        for i in range(r):
            if i > 0 and rng.random() < 0.25:
                polys.append(FpPolynomial.zero(p))
                continue
            support = rng.sample(degs, k=min(len(degs), rng.randint(1, 4)))
            terms = {d: rng.randint(1, p - 1) for d in support}
            polys.append(FpPolynomial.from_terms(p, terms))
        return TowerSpec(p=p, m=m, r=r, x_polys=tuple(polys), residue_class=j)


def random_inertia(rng: random.Random) -> InertiaType:
    while True:
        p = rng.choice((3, 5, 7, 11))
        m = rng.randint(1, 6)
        if gcd(m, p) != 1:
            continue
        divisors = [d for d in range(1, gcd(m, p - 1) + 1) if gcd(m, p - 1) % d == 0]
        return InertiaType(p=p, r=rng.randint(1, 3), m=m, m_I=rng.choice(divisors))


def random_admissible_numerators(inertia: InertiaType, rng: random.Random) -> list[int]:
    """Numerators n_i = m u_i of a random admissible sequence: n_1 <= 30 m
    prime to p with gcd(m, n_1) = m / m_I, then each n_i is p n_{i-1} with
    probability 0.4, else a uniform choice among the n prime to p with
    n = n_1 (mod m) in (p n_{i-1}, p n_{i-1} + 4 m p]."""
    p, m, m_I = inertia.p, inertia.m, inertia.m_I
    while True:
        n1 = rng.randint(1, 30 * m)
        if n1 % p and gcd(m, n1) == m // m_I:
            break
    ns = [n1]
    for _ in range(inertia.r - 1):
        grown = p * ns[-1]
        if rng.random() < 0.4:
            ns.append(grown)
            continue
        first = grown + 1 + (n1 - grown - 1) % m  # the least n > grown in the class
        ns.append(rng.choice([n for n in range(first, grown + 4 * m * p + 1, m) if n % p]))
    return ns


def naive_admissible_filter(inertia: InertiaType, bound) -> list[JumpSequence]:
    """Grid-filter oracle: every strictly increasing tuple of integers
    0 < n_1 < ... < n_r <= m bound, that is every increasing sequence on
    (1/m) Z with u_r <= bound, so condition (a) holds by construction.
    Each tuple is tested on (b)-(d) by ramification.unmet_conditions, and a
    JumpSequence u_i = n_i / m is built only for the tuples that pass.  It
    shares no code with the admissible walk behind enumerate_admissible."""
    m, r = inertia.m, inertia.r
    top = int(m * Fraction(bound))
    return [
        JumpSequence(tuple([Fraction(n, m) for n in ns]))
        for ns in combinations(range(1, top + 1), r)
        if not unmet_conditions(inertia, ns)
    ]


# ---------------------------------------------------------------------------
# The individual checks


def check_admissible_base_filtrations() -> dict:
    cases = 0
    for p in (7, 11, 13):
        _expect(
            is_admissible(InertiaType.dihedral(p, 1), JumpSequence.of(Fraction(3, 2))).admissible,
            f"(D_{p}, (3/2)) must be admissible",
        )
        _expect(
            is_admissible(InertiaType.cyclic(p, 1), JumpSequence.of(3)).admissible,
            f"(Z/{p}, (3)) must be admissible",
        )
        _expect(
            is_admissible(InertiaType.cyclic(p, 1), JumpSequence.of(2)).admissible,
            f"(Z/{p}, (2)) must be admissible",
        )
        cases += 3
    # the (2) filtration is the base exactly when ell = +-1 mod 8
    for p, ell_plus, ell_minus in ((7, 97, 13), (11, 23, 43), (13, 103, 53)):
        _expect(
            base_sigma(InertiaType.cyclic(p, 1), ell_plus) == JumpSequence.of(2),
            f"base sigma for (Z/{p}, ell={ell_plus}) must be (2)",
        )
        _expect(
            base_sigma(InertiaType.cyclic(p, 1), ell_minus) == JumpSequence.of(3),
            f"base sigma for (Z/{p}, ell={ell_minus}) must be (3)",
        )
        _expect(
            base_sigma(InertiaType.dihedral(p, 1), ell_plus) == JumpSequence.of(Fraction(3, 2)),
            f"base sigma for (D_{p}, ell={ell_plus}) must be (3/2)",
        )
        cases += 3
    v = is_admissible(InertiaType.cyclic(7, 1), JumpSequence.of(7))
    _expect(not v.admissible and v.failed == "c", "(Z/7, (7)) must fail condition (c)")
    v = is_admissible(InertiaType.dihedral(7, 1), JumpSequence.of(1))
    _expect(not v.admissible and v.failed == "b", "(D_7, (1)) must fail condition (b)")
    return {"cases": cases + 2}


def check_tail_config_unique() -> dict:
    configs = solve_tail_configs(2, n_prim=1, n_new_min=1)
    _expect(len(configs) == 1, f"expected a unique configuration, got {len(configs)}")
    got = configs[0].to_dict()
    want = [{"kind": "new", "sigma": "3/2"}, {"kind": "primitive", "sigma": "1/2"}]
    _expect(got == want, f"unexpected configuration {got}")
    return {"configuration": got}


def _routes_agree(spec: TowerSpec) -> bool:
    """Whether the recurrence's numerators m u_i, scaled by p^(r-1), equal
    the oracle's numerators m p^(r-1) u_i."""
    scale = spec.p ** (spec.r - 1)
    return [n * scale for n in predicted_numerators(spec)] == oracle_numerators(spec)


def check_tower_oracle_sweep() -> dict:
    specs = sweep_tower_specs()
    _expect(len(specs) >= 500, f"sweep has only {len(specs)} specs")
    for spec in specs:
        if not _routes_agree(spec):
            predicted, oracle = predicted_jumps(spec), oracle_jumps(spec)
            raise CheckFailure(
                f"jump mismatch on {spec.to_dict()}: recurrence {predicted}, oracle {oracle}"
            )
    rng = random.Random(20260810)
    randomized = 0
    for _ in range(200):
        spec = random_tower_spec(rng)
        if not _routes_agree(spec):
            predicted, oracle = predicted_jumps(spec), oracle_jumps(spec)
            raise CheckFailure(f"jump mismatch on random {spec.to_dict()}: {predicted} vs {oracle}")
        randomized += 1
    return {"sweep_specs": len(specs), "random_specs": randomized}


def random_compatible_target(spec: TowerSpec, rng: random.Random) -> JumpSequence:
    """A target drawn from every compatible one up to u_r + 8."""
    inertia = inertia_type_of(spec)
    n = predicted_numerators(spec)  # admissible, as every valid tower's are
    options = compatible_targets(inertia, n, Fraction(n[-1], inertia.m) + 8)
    if not options:
        raise CheckFailure(f"no compatible targets above {predicted_jumps(spec)}")
    return JumpSequence(tuple(Fraction(k, inertia.m) for k in rng.choice(options)))


def check_deformation_random() -> dict:
    rng = random.Random(97130713)
    done = 0
    while done < 50:
        spec = random_tower_spec(rng, max_degree=16, r_choices=(1, 2))
        if spec.p not in (3, 5):
            continue
        target = random_compatible_target(spec, rng)
        scale = rng.randint(1, spec.p - 1)
        verdict = verify_deformation(spec, target, scale)
        if not verdict.ok:
            raise CheckFailure(
                f"deformation failed on {spec.to_dict()} -> {target}: {verdict.message}"
            )
        done += 1
    return {"pairs": done}


def check_genus_golden() -> dict:
    d7 = InertiaType.dihedral(7, 1)
    result = genus(1092, d7, JumpSequence.of(Fraction(3, 2)))
    _expect(
        result.genus == 118 and result.divisor_degree == 31,
        f"expected genus 118 and degree 31, got {result}",
    )
    flagged = genus(1092, InertiaType.cyclic(7, 1), JumpSequence.of(1))
    _expect(
        flagged.genus == -155 and not flagged.realizable,
        f"expected flagged genus -155, got {flagged}",
    )
    big = genus(456288, InertiaType.dihedral(7, 2), JumpSequence.from_strings(["1/2", "7/2"]))
    _expect(
        big.genus == 467929 and big.divisor_degree == 397,
        f"expected genus 467929 and degree 397, got {big}",
    )
    checked = 0
    for ell in (13, 97):
        gp = group_params(7, ell)
        for inertia in inertia_candidates(gp):
            for seq in enumerate_admissible(inertia, 10):
                genus(gp.order, inertia, seq)  # raises on non-integral output
                checked += 1
    return {"integral_genera": checked}


def check_class_triple() -> dict:
    triple = select_triple(7, 97)
    got = [(c.kind, c.index) for c in triple.classes]
    want = [("split", 47), ("nonsplit", 42), ("nonsplit", 48)]
    _expect(got == want, f"expected classes {want}, got {got}")
    _expect(
        triple.psl2_indices == (48, 7, 49),
        f"expected quotient orders (48, 7, 49), got {triple.psl2_indices}",
    )
    return {"classes": [c.label() for c in triple.classes]}


def check_subgroup_claims(budget: int) -> dict:
    report = verify_subgroup_claims(7, 13, budget=budget)
    if report.status == "refused":
        raise _Skip(report.reason)
    _expect(
        report.all_passed,
        "subgroup claims failed: "
        + "; ".join(f"{c.claim_id}={c.status}" for c in report.claims),
    )
    # the claims read the subgroup list, so certify that list too
    atlas = psl2_atlas(report.ell)
    _expect(atlas.three_generator_stability(), "the subgroup list or its classes are incomplete")
    return {"subgroups": report.subgroup_count, "claims": [c.to_dict() for c in report.claims]}


def check_tame_base_change() -> dict:
    d7 = InertiaType.dihedral(7, 1)
    inertia, seq = tame_base_change(d7, JumpSequence.of(Fraction(3, 2)), 1)
    _expect(
        inertia == InertiaType.cyclic(7, 1) and seq == JumpSequence.of(3),
        f"expected (Z/7, (3)), got ({inertia.label()}, {seq})",
    )
    rng = random.Random(3197)
    done = 0
    while done < 20:
        p = rng.choice((3, 5, 7))
        degs = _valid_degrees(p, 2, 1, 25)
        support = rng.sample(degs, k=rng.randint(1, 3))
        poly = FpPolynomial.from_terms(p, {d: rng.randint(1, p - 1) for d in support})
        spec = TowerSpec(p=p, m=2, r=1, x_polys=(poly,), residue_class=1)
        base = predicted_jumps(spec)
        changed_inertia, changed_seq = tame_base_change(inertia_type_of(spec), base, 1)
        # substitution oracle: the same polynomial read over the trivial tame layer
        substituted = TowerSpec(p=p, m=1, r=1, x_polys=(poly,), residue_class=0)
        if not (
            predicted_jumps(substituted) == changed_seq
            and oracle_jumps(substituted) == changed_seq
            and inertia_type_of(substituted) == changed_inertia
        ):
            raise CheckFailure(f"substitution disagrees with jump scaling on {spec.to_dict()}")
        done += 1
    return {"towers": done}


def check_enumeration_complete() -> dict:
    shapes = (
        InertiaType.cyclic(7, 1),
        InertiaType.cyclic(7, 2),
        InertiaType.dihedral(7, 1),
        InertiaType.dihedral(7, 2),
    )
    total = 0
    for inertia in shapes:
        fast = enumerate_admissible(inertia, 15)
        slow = naive_admissible_filter(inertia, 15)
        _expect(
            fast == slow,
            f"enumeration mismatch for {inertia.label()}: {len(fast)} vs {len(slow)}",
        )
        total += len(fast)
    return {"sequences": total}


def check_herbrand_roundtrip() -> dict:
    """The Herbrand maps invert each other on 200 random admissible
    sequences, on the integers: upper_numerators(lower_numerators(n)) is
    n_i p^(r-1), the same upper jumps over m p^(r-1).  Jump sequences are
    built only for the message of a failure."""
    rng = random.Random(441100)
    for _ in range(200):
        inertia = random_inertia(rng)
        n = random_admissible_numerators(inertia, rng)
        unmet = unmet_conditions(inertia, n)
        if unmet:
            upper = JumpSequence(tuple(Fraction(x, inertia.m) for x in n))
            raise CheckFailure(f"random generator produced inadmissible {upper}: {unmet[0][0]}")
        lower = lower_numerators(inertia, n)
        scale = inertia.p ** (inertia.r - 1)
        if upper_numerators(inertia, lower) != [x * scale for x in n]:
            upper = JumpSequence(tuple(Fraction(x, inertia.m) for x in n))
            back = upper_from_lower(inertia, lower)
            raise CheckFailure(
                f"round trip failed: {upper} -> {JumpSequence(tuple(lower))} -> {back}"
            )
    return {"filtrations": 200}


def check_generation_obstructions() -> dict:
    _expect(
        generation_obstruction(2, 2, 1, p=3),
        "D_9 must resist generation by a bounded wild element and a tame one",
    )
    d9 = SmallGroup.semidirect(3, 2, 2)
    _expect(
        not branch_cycle_feasible(d9, (2, 3)),
        "no order-(2,3) generating pair with trivial product exists in D_9",
    )
    _expect(
        branch_cycle_feasible(SmallGroup.semidirect(7, 1, 2), (2, 2, 7)),
        "D_7 admits an order-(2,2,7) generating triple with trivial product",
    )
    _expect(
        branch_cycle_feasible(SmallGroup.cyclic(12), (12, 12)),
        "Z/12 admits the pair (g, g^-1)",
    )
    return {"cases": 4}


class _Skip(Exception):
    pass


@dataclass(frozen=True)
class CheckSpec:
    check_id: str
    title: str
    budget_seconds: float
    runner: callable


def registry(budget_subgroup: int = DEFAULT_BUDGET) -> tuple[CheckSpec, ...]:
    """check-all's suites, with the subgroup claims refused past budget_subgroup elements."""
    subgroup_claims = partial(check_subgroup_claims, budget=budget_subgroup)
    return (
        CheckSpec("admissible-base-filtrations", "admissibility of the base filtrations", 5, check_admissible_base_filtrations),
        CheckSpec("tail-config-unique", "unique tail configuration for one primitive tail", 1, check_tail_config_unique),
        CheckSpec("tower-oracle-sweep", "jump recurrence equals the reduction oracle", 60, check_tower_oracle_sweep),
        CheckSpec("deformation-random", "randomized deformations hit their targets", 60, check_deformation_random),
        CheckSpec("genus-golden", "genus and divisor degree golden values, integrality", 10, check_genus_golden),
        CheckSpec("class-triple-97", "class triple at (7, 97) with matrix-confirmed orders", 10, check_class_triple),
        CheckSpec("subgroup-claims-1092", "subgroup claims for PSL2(F_13) at p = 7", 300, subgroup_claims),
        CheckSpec("tame-base-change", "tame base change equals the substitution oracle", 30, check_tame_base_change),
        CheckSpec("enumeration-complete", "admissible enumeration equals the grid filter", 30, check_enumeration_complete),
        CheckSpec("herbrand-roundtrip", "numbering conversions are mutually inverse", 5, check_herbrand_roundtrip),
        CheckSpec("generation-obstructions", "generation and branch cycle obstructions", 5, check_generation_obstructions),
    )


def run_check(spec: CheckSpec) -> CheckResult:
    start = time.monotonic()
    try:
        detail = spec.runner()
        status = "pass"
    except _Skip as skip:
        detail = {"reason": str(skip)}
        status = "skip"
    except CheckFailure as failure:
        detail = {"counterexample": str(failure)}
        status = "fail"
    elapsed = time.monotonic() - start
    return CheckResult(
        check_id=spec.check_id,
        title=spec.title,
        status=status,
        seconds=elapsed,
        budget_seconds=spec.budget_seconds,
        detail=detail,
    )
