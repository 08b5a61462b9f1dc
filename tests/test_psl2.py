"""Group invariants, conjugacy class orders, class triples, subgroups."""

from collections import Counter

import pytest

from wildram.exactmath import is_prime, least_nonresidue, prime_factors, vp
from wildram.groups import Subgroup
from wildram.psl2 import (
    ORDER_LIMIT,
    ClassTriple,
    ConjClass,
    InertiaType,
    Psl2Atlas,
    class_order,
    class_representative,
    group_params,
    inertia_candidates,
    matrix_orders,
    norm_one_generator,
    primitive_root,
    psl2_atlas,
    select_triple,
    verify_subgroup_claims,
)


def test_group_params_worked_examples():
    gp = group_params(7, 97)
    assert (gp.order, gp.a, gp.m_G) == (456288, 2, 2)
    gp = group_params(7, 13)
    assert (gp.order, gp.a, gp.m_G) == (1092, 1, 2)
    gp = group_params(7, 11)
    assert (gp.order, gp.a, gp.m_G) == (660, 0, 1)


def test_group_params_errors():
    with pytest.raises(ValueError):
        group_params(7, 7)
    with pytest.raises(ValueError):
        group_params(2, 7)


def test_valuation_splits_one_sided():
    for p in (3, 5, 7, 11, 13):
        for ell in (3, 5, 7, 11, 13, 17, 19, 97, 101):
            if p == ell:
                continue
            gp = group_params(p, ell)
            lo, hi = vp(ell - 1, p), vp(ell + 1, p)
            assert lo + hi == gp.a
            if gp.a >= 1:
                assert (lo == 0) != (hi == 0)


def test_class_order_worked_examples():
    assert class_order(97, ConjClass("nonsplit", 42), 7) == (7, 1)
    assert class_order(97, ConjClass("nonsplit", 48), 7) == (49, 2)
    assert class_order(97, ConjClass("split", 47), 7) == (96, 0)
    with pytest.raises(ValueError):
        class_order(97, ConjClass("split", 48), 7)


def test_class_order_matrix_oracle_full_sweep():
    # every class of every odd prime ell <= 101 against the powering oracle
    for ell in range(3, 102):
        if not is_prime(ell):
            continue
        classes = [ConjClass("split", i) for i in range(1, (ell - 1) // 2)]
        classes += [ConjClass("nonsplit", i) for i in range(1, (ell + 1) // 2)]
        for cls in classes:
            formula, _ = class_order(ell, cls, 3 if ell != 3 else 5)
            sl2, psl2 = matrix_orders(ell, class_representative(ell, cls))
            assert sl2 == formula
            assert psl2 in (formula, formula // 2)


@pytest.mark.parametrize("ell", [5, 7, 11])
def test_matrix_orders_match_the_atlas_orders(ell):
    # the PSL2 order from powering each element's matrix against the atlas's
    # element orders, which come from power walks over ids
    atlas = Psl2Atlas(ell)
    for i, mat in enumerate(atlas.elements):
        sl2, psl2 = matrix_orders(ell, mat)
        assert psl2 == atlas.orders[i], mat
        assert sl2 in (psl2, 2 * psl2), mat


def test_deterministic_generators():
    assert primitive_root(97) == 5
    zt = norm_one_generator(97)
    # multiplication by 4 + 10 s on F_97(s), s^2 = 5, in the basis (1, s)
    assert zt == (4, 50, 10, 4)
    assert matrix_orders(97, zt)[0] == 98


def _first_torus_generator(ell):
    """First (a, b), lexicographic with b >= 1, of order ell + 1 in F_ell(s)."""
    n = least_nonresidue(ell)

    def mul(x, y):
        return ((x[0] * y[0] + n * x[1] * y[1]) % ell, (x[0] * y[1] + x[1] * y[0]) % ell)

    def power(x, k):
        result = (1, 0)
        while k:
            if k & 1:
                result = mul(result, x)
            x = mul(x, x)
            k >>= 1
        return result

    target = ell + 1
    for a in range(ell):
        for b in range(1, ell):
            z = (a, b)
            if power(z, target) == (1, 0) and all(
                power(z, target // q) != (1, 0) for q in prime_factors(target)
            ):
                return z


@pytest.mark.parametrize("ell", [ell for ell in range(3, 102) if is_prime(ell)])
def test_norm_one_generator_matches_pair_oracle(ell):
    a, b = _first_torus_generator(ell)
    zt = norm_one_generator(ell)
    assert zt == (a, least_nonresidue(ell) * b % ell, b, a)
    assert matrix_orders(ell, zt)[0] == ell + 1


def test_select_triple_97():
    triple = select_triple(7, 97)
    assert [(c.kind, c.index) for c in triple.classes] == [
        ("split", 47),
        ("nonsplit", 42),
        ("nonsplit", 48),
    ]
    assert triple.sl2_indices == (96, 7, 49)
    assert triple.psl2_indices == (48, 7, 49)
    assert tuple(vp(e, 7) for e in triple.psl2_indices) == (0, 1, 2)


def test_select_triple_small_cases():
    # v_3(17 + 1) = 2 selects the branch keyed to ell + 1
    triple = select_triple(3, 17)
    assert [(c.kind, c.index) for c in triple.classes] == [
        ("split", 7),
        ("nonsplit", 6),
        ("nonsplit", 8),
    ]
    assert triple.psl2_indices == (8, 3, 9)
    # v_3(19 - 1) = 2 selects the branch keyed to ell - 1
    triple = select_triple(3, 19)
    assert [(c.kind, c.index) for c in triple.classes] == [
        ("nonsplit", 9),
        ("split", 6),
        ("split", 8),
    ]
    assert tuple(vp(e, 3) for e in triple.psl2_indices) == (0, 1, 2)


@pytest.mark.parametrize("p,ell", [(3, 53), (5, 101), (7, 197)])
def test_select_triple_valuation_chain(p, ell):
    gp = group_params(p, ell)
    triple = select_triple(p, ell)
    assert tuple(vp(e, p) for e in triple.psl2_indices) == (0, gp.a - 1, gp.a)


def test_select_triple_precondition():
    with pytest.raises(ValueError, match="a = 1"):
        select_triple(7, 13)


def test_inertia_candidates():
    labels = [i.label() for i in inertia_candidates(group_params(7, 97))]
    assert labels == ["Z/7", "Z/49", "D_7", "D_49"]
    labels = [i.label() for i in inertia_candidates(group_params(7, 13))]
    assert labels == ["Z/7", "D_7"]
    assert inertia_candidates(group_params(7, 11)) == []


def test_inertia_type_validation():
    with pytest.raises(ValueError):
        InertiaType(p=7, r=1, m=14, m_I=1)  # p | m
    with pytest.raises(ValueError):
        InertiaType(p=7, r=1, m=5, m_I=5)  # m_I does not divide gcd(m, p - 1)


def test_atlas_psl2_5_structure():
    atlas = psl2_atlas(5)
    assert atlas.n == 60
    subs = atlas.subgroups()
    assert len(subs) == 59  # the full subgroup count of a 60-element simple group
    assert atlas.three_generator_stability()


def test_atlas_psl2_7_three_generator_stability():
    atlas = psl2_atlas(7)
    assert atlas.n == 168
    assert atlas.three_generator_stability()


def test_atlas_psl2_13_closure_self_check():
    # the certificate closes generators picked from each class's first member
    assert psl2_atlas(13).three_generator_stability()


def test_atlas_psl2_13_sylow_counts():
    atlas = psl2_atlas(13)
    sizes = Counter(s.size for s in atlas.subgroups())
    # Sylow subgroup counts: congruent to 1 mod q and dividing the group order
    assert sizes[13] == 14 and 14 % 13 == 1 and 1092 % 14 == 0
    assert sizes[7] == 78 and 78 % 7 == 1
    assert sizes[4] == 91 and 1092 // 4 % 91 == 0
    assert sizes[1092] == 1


def test_subgroup_claims_3_17_above_the_default_budget():
    assert verify_subgroup_claims(3, 17).status == "refused"  # 2448 > 2000
    report = verify_subgroup_claims(3, 17, budget=2448)
    assert report.status == "checked"
    assert report.all_passed
    atlas = psl2_atlas(17)
    assert atlas.three_generator_stability()
    sizes = Counter(s.size for s in atlas.subgroups())
    assert sizes[17] == 18 and 18 % 17 == 1 and 2448 % 18 == 0
    assert sizes[9] % 3 == 1 and 2448 // 9 % sizes[9] == 0
    assert report.subgroup_count == len(atlas.subgroups())


def test_subgroup_claims_7_13():
    report = verify_subgroup_claims(7, 13)
    assert report.status == "checked"
    assert report.all_passed
    assert [c.claim_id for c in report.claims] == [
        "dihedral-exists",
        "semidirect-form-is-dihedral",
        "quasi-p-above-dihedral-is-whole",
    ]


# the ids leave the budget out, so a tightened budget keeps the test names
@pytest.mark.parametrize(
    "p,ell,budget", [(3, 11, 12797), (7, 13, 15638)], ids=["3-11", "7-13"]
)
def test_subgroup_claims_product_budget(p, ell, budget, monkeypatch):
    # a work budget with no timing noise: the group products of a cold run,
    # atlas build included, counted at every product kernel of Psl2Atlas:
    # one per mul, one per entry of products, two per entry of conjugates
    count = [0]

    def counting(kernel, weight):
        def counted(atlas, *args):
            out = kernel(atlas, *args)
            count[0] += weight * (len(out) if isinstance(out, list) else 1)
            return out

        return counted

    psl2_atlas.cache_clear()
    for name, weight in (("mul", 1), ("products", 1), ("conjugates", 2)):
        monkeypatch.setattr(Psl2Atlas, name, counting(getattr(Psl2Atlas, name), weight))
    try:
        assert verify_subgroup_claims(p, ell).status == "checked"
    finally:
        psl2_atlas.cache_clear()
    assert count[0] <= budget


@pytest.mark.parametrize("p,ell,records", [(3, 11, 244 + 16), (7, 13, 366 + 16)])
def test_subgroup_claims_record_budget(p, ell, records, monkeypatch):
    # the claims read the search's class table, so a cold run builds one
    # record per cyclic subgroup and one per class, not one per subgroup
    built = [0]
    init = Subgroup.__init__

    def counted(sub, *args, **kwargs):
        built[0] += 1
        init(sub, *args, **kwargs)

    psl2_atlas.cache_clear()
    monkeypatch.setattr(Subgroup, "__init__", counted)
    try:
        assert verify_subgroup_claims(p, ell).status == "checked"
        atlas = psl2_atlas(ell)
        assert len(atlas.cyclic_subgroups()) + len(atlas.subgroup_classes()) == records
    finally:
        psl2_atlas.cache_clear()
    assert built[0] <= records


@pytest.mark.parametrize("p,ell", [(3, 11), (7, 13)])
def test_claims_ask_each_class_once_of_its_first_member(p, ell, monkeypatch):
    # every predicate of the claims is invariant under conjugation, so each
    # is asked only of the first member of a class, and at most once
    atlas = psl2_atlas(ell)
    firsts = {}
    for s in atlas.subgroups():
        firsts.setdefault(s.class_number, s)
    asked = Counter()

    def counting(name):
        predicate = getattr(Psl2Atlas, name)

        def counted(atlas, sub, *args):
            assert firsts[sub.class_number] is sub, (name, sub.class_number)
            asked[name, sub.class_number] += 1
            return predicate(atlas, sub, *args)

        return counted

    names = ("is_abelian_subgroup", "semidirect_p_form", "is_quasi_p", "contains_dihedral")
    for name in names:
        monkeypatch.setattr(Psl2Atlas, name, counting(name))
    assert verify_subgroup_claims(p, ell).status == "checked"
    assert asked and max(asked.values()) == 1
    assert {name for name, _ in asked} == set(names)


def test_subgroup_claims_3_5():
    report = verify_subgroup_claims(3, 5)
    assert report.all_passed
    # a second ell replaces the cached atlas instead of adding to it
    assert verify_subgroup_claims(3, 7).all_passed
    assert psl2_atlas.cache_info().currsize == 1


def test_subgroup_claims_5_11_exhibits_small_p_failure():
    # at p = 5 the third claim genuinely fails: PSL2(F_11) contains a
    # 60-element quasi-5 subgroup (an A_5) above a D_5; p >= 7 is essential
    report = verify_subgroup_claims(5, 11)
    statuses = {c.claim_id: c.status for c in report.claims}
    assert statuses["dihedral-exists"] == "pass"
    assert statuses["semidirect-form-is-dihedral"] == "pass"
    assert statuses["quasi-p-above-dihedral-is-whole"] == "fail"
    witness = next(c.witness for c in report.claims if c.status == "fail")
    assert witness["size"] == 60


def _claims_per_subgroup(p, ell):
    """verify_subgroup_claims(p, ell).to_dict() as a loop that asks every
    predicate of every listed subgroup, with no use of the classes."""
    atlas = psl2_atlas(ell)
    subs, two_p = atlas.subgroups(), 2 * p

    def witness(sub):  # a nonabelian subgroup prints its first generating pair
        assert not atlas.is_abelian_subgroup(sub)
        gens = atlas._first_generating_pair(sub.ids)
        return {"size": sub.size, "generators": [list(atlas.elements[g]) for g in gens]}

    dihedrals = [s for s in subs if s.size == two_p and not atlas.is_abelian_subgroup(s)]
    claim1 = {"claim": "dihedral-exists", "status": "fail",
              "summary": f"no nonabelian subgroup of order {two_p}"}
    if dihedrals:
        claim1 = {"claim": "dihedral-exists", "status": "pass",
                  "summary": f"found {len(dihedrals)} dihedral subgroups of order {two_p}",
                  "witness": witness(dihedrals[0])}
    claim2 = {"claim": "semidirect-form-is-dihedral", "status": "pass",
              "summary": f"every nonabelian Z/{p} x| Z/m subgroup has order {two_p}"}
    bad = [s for s in subs if atlas.semidirect_p_form(s, p)
           and not atlas.is_abelian_subgroup(s) and s.size != two_p]
    if bad:
        size = bad[0].size
        claim2 = {"claim": "semidirect-form-is-dihedral", "status": "fail",
                  "summary": f"nonabelian Z/{p} x| Z/{size // p} subgroup of order {size}",
                  "witness": witness(bad[0])}
    claim3 = {"claim": "quasi-p-above-dihedral-is-whole", "status": "pass",
              "summary": f"every quasi-{p} subgroup containing a D_{p} is the whole group"}
    bad = [s for s in subs if s.size < atlas.n and atlas.is_quasi_p(s, p)
           and any(set(d.ids) <= set(s.ids) for d in dihedrals)]
    if bad:
        claim3 = {"claim": "quasi-p-above-dihedral-is-whole", "status": "fail",
                  "summary": f"proper quasi-{p} subgroup of order {bad[0].size} contains a D_{p}",
                  "witness": witness(bad[0])}
    return {"p": p, "ell": ell, "group_order": atlas.n, "budget": 2000, "status": "checked",
            "subgroup_count": len(subs), "claims": [claim1, claim2, claim3]}


@pytest.mark.parametrize("p,ell", [(3, 5), (3, 7), (3, 11), (5, 11), (3, 13), (7, 13)])
def test_claims_per_class_match_a_per_subgroup_loop(p, ell):
    assert verify_subgroup_claims(p, ell).to_dict() == _claims_per_subgroup(p, ell)


def test_subgroup_claims_budget_refusal():
    report = verify_subgroup_claims(7, 97)
    assert report.status == "refused"
    assert "456288" in report.reason
    assert not report.all_passed


def test_order_limit_binds_whatever_the_budget():
    assert ORDER_LIMIT == 39732 == group_params(7, 43).order
    misses = psl2_atlas.cache_info().misses
    for p, ell in ((7, 97), (3, 47)):
        report = verify_subgroup_claims(p, ell, budget=10**6)
        assert report.status == "refused"
        assert report.reason.endswith(
            f"exceeds the order limit {ORDER_LIMIT}; claims not checked"
        )
    assert psl2_atlas.cache_info().misses == misses  # no atlas was built
    with pytest.raises(ValueError, match="order limit"):
        Psl2Atlas(47)


def test_subgroup_claims_3_19_above_the_default_budget():
    report = verify_subgroup_claims(3, 19, budget=3420)
    assert report.status == "checked" and report.subgroup_count == 2912
    assert [c.status for c in report.claims] == ["pass", "pass", "fail"]


def test_psl2_23_certified():
    atlas = Psl2Atlas(23)  # a private atlas: psl2_atlas keeps one
    assert len(atlas.subgroups()) == 5915
    assert atlas.three_generator_stability()


def test_report_serializes():
    report = verify_subgroup_claims(3, 5)
    d = report.to_dict()
    assert d["status"] == "checked"
    assert all(c["status"] == "pass" for c in d["claims"])


def test_claim_3_fails_exactly_where_dickson_puts_an_a5():
    # Dickson's list (Huppert, Endliche Gruppen I, II.8.27): PSL2(F_ell)
    # has a proper subgroup A_5 exactly when ell = +-1 (mod 10), and A_5 is
    # quasi-p above a D_p for p = 3 and 5 (PSL2(F_5) is A_5 itself).  The brute-force subgroup list decides
    # each verdict; the prediction only cross-checks it.  Every odd p != ell
    # dividing the order, ell <= 29; the rest up to the order limit in CI.
    failed, predicted = [], []
    for ell in (5, 7, 11, 13, 17, 19, 23, 29):
        for p in prime_factors(ell * (ell * ell - 1) // 2):
            if p in (2, ell):
                continue
            report = verify_subgroup_claims(p, ell, budget=ORDER_LIMIT)
            statuses = [c.status for c in report.claims]
            assert statuses[:2] == ["pass", "pass"], (p, ell)
            if statuses[2] == "fail":
                failed.append((p, ell))
                assert report.claims[2].witness["size"] == 60, (p, ell)
            if p in (3, 5) and ell % 10 in (1, 9):
                predicted.append((p, ell))
    assert failed == predicted == [(3, 11), (5, 11), (3, 19), (5, 19), (3, 29), (5, 29)]
