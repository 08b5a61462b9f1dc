"""Tail configuration solving, inertia inference and generation checks."""

from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from wildram.tails import (
    SmallGroup,
    TailConfig,
    TailDatum,
    branch_cycle_feasible,
    generation_obstruction,
    infer_inertia,
    solve_tail_configs,
)


def config_key(config):
    return tuple((t.kind, t.sigma) for t in config.tails)


def naive_grid_solver(m_G, n_prim, n_new, sigma_cap=Fraction(3)):
    """Grid oracle: test every multiset of grid values up to the cap."""
    step = Fraction(1, m_G)
    new_grid = []
    v = 1 + step
    while v <= sigma_cap:
        new_grid.append(v)
        v += step
    prim_grid = []
    v = step
    while v <= sigma_cap:
        prim_grid.append(v)
        v += step
    found = set()
    for news in combinations_with_replacement(new_grid, n_new):
        for prims in combinations_with_replacement(prim_grid, n_prim):
            total = sum((s - 1 for s in news), Fraction(0)) + sum(prims, Fraction(0))
            if total == 1:
                key = tuple(
                    sorted([("new", s) for s in news] + [("primitive", s) for s in prims])
                )
                found.add(key)
    return found


def test_unique_config_one_primitive():
    configs = solve_tail_configs(2, n_prim=1, n_new_min=1)
    assert len(configs) == 1
    assert config_key(configs[0]) == (
        ("new", Fraction(3, 2)),
        ("primitive", Fraction(1, 2)),
    )


def test_two_primitive_tails():
    configs = solve_tail_configs(2, n_prim=2, n_new_min=0, n_new_max=0)
    assert [config_key(c) for c in configs] == [
        (("primitive", Fraction(1, 2)), ("primitive", Fraction(1, 2)))
    ]


def test_two_new_tails():
    configs = solve_tail_configs(2, n_prim=0, n_new_min=2, n_new_max=2)
    assert [config_key(c) for c in configs] == [
        (("new", Fraction(3, 2)), ("new", Fraction(3, 2)))
    ]


@pytest.mark.parametrize("m_G", [1, 2, 3, 4])
def test_solver_matches_grid_filter(m_G):
    for n_prim in range(0, m_G + 2):
        for n_new in range(0, m_G + 2):
            if n_prim + n_new > m_G + 1:
                continue  # keep the naive oracle small; both sides are empty anyway
            fast = {
                config_key(c)
                for c in solve_tail_configs(m_G, n_prim, n_new_min=n_new, n_new_max=n_new)
            }
            assert fast == naive_grid_solver(m_G, n_prim, n_new)


def test_multiset_size_cap():
    # each summand is at least 1/m_G, so no configuration has more tails than m_G
    for m_G in (1, 2, 3):
        assert solve_tail_configs(m_G, n_prim=m_G + 1) == []
        assert solve_tail_configs(m_G, n_prim=0, n_new_min=m_G + 1) == []


def test_tail_config_validation():
    with pytest.raises(ValueError):
        TailConfig(m_G=2, tails=(TailDatum("new", Fraction(1, 2)),))
    with pytest.raises(ValueError):
        TailConfig(m_G=2, tails=(TailDatum("primitive", Fraction(1, 3)),))
    with pytest.raises(ValueError):
        TailConfig(
            m_G=2,
            tails=(TailDatum("primitive", Fraction(1, 2)), TailDatum("primitive", 1)),
        )
    ok = TailConfig(m_G=2, tails=(TailDatum("primitive", 1),))
    assert ok.to_dict() == [{"kind": "primitive", "sigma": "1"}]


def test_infer_inertia_examples():
    inf = infer_inertia(Fraction(3, 2), 7, 2)
    assert inf.allowed_r == (1,) and not inf.abelian_possible and not inf.bound_extrapolated
    inf = infer_inertia(Fraction(3, 2), 3, 2)
    assert inf.allowed_r == (1, 2) and not inf.abelian_possible
    inf = infer_inertia(2, 7, 2)
    assert inf.allowed_r == (1,) and inf.abelian_possible
    assert infer_inertia(Fraction(3, 2), 7, 3).bound_extrapolated


def test_infer_inertia_matches_the_fraction_loop():
    # the oracle: every r with p^(r-1)/m_G <= sigma, compared in Fractions
    def fraction_loop(sigma, p, m_G):
        allowed, r = [], 1
        while Fraction(p ** (r - 1), m_G) <= sigma:
            allowed.append(r)
            r += 1
        return tuple(allowed)

    sigmas = {Fraction(a, b) for a in range(1, 40) for b in range(1, 8)}
    for sigma in sorted(sigmas):
        for p in (3, 5, 7):
            for m_G in (1, 2, 3, 4, 6, 10):
                assert infer_inertia(sigma, p, m_G).allowed_r == fraction_loop(sigma, p, m_G)


def test_infer_inertia_on_huge_numbers():
    # 4299-digit sigma and m_G, just inside Python's integer-string limit:
    # 18021 r values, each compared as an integer, not as a Fraction
    # rebuilt per r
    nines = 10**4299 - 1
    inf = infer_inertia(nines, 3, nines)
    assert inf.allowed_r == tuple(range(1, 18022)) and inf.abelian_possible
    assert 3**18020 <= nines * nines < 3**18021


@pytest.mark.parametrize("p", [2, 9, 1])
def test_infer_inertia_refuses_a_p_that_is_not_an_odd_prime(p):
    # p = 2 was served: infer tested only primality, every other entry point
    # asks for an odd prime
    with pytest.raises(ValueError, match=f"p = {p} must be an odd prime"):
        infer_inertia(Fraction(3, 2), p, 2)


def test_infer_inertia_from_solver_output():
    for p in (7, 11, 13):
        config = solve_tail_configs(2, n_prim=1, n_new_min=1)[0]
        new_sigma = next(t.sigma for t in config.tails if t.kind == "new")
        inf = infer_inertia(new_sigma, p, 2)
        assert inf.allowed_r == (1,)
        assert not inf.abelian_possible


def test_small_group_construction():
    d9 = SmallGroup.semidirect(3, 2, 2)
    assert d9.n == 18 and d9.action_unit == 8
    assert sorted(set(d9.orders)) == [1, 2, 3, 9]
    z18 = SmallGroup.semidirect(3, 2, 2, m_I=1)
    assert sorted(set(z18.orders)) == [1, 2, 3, 6, 9, 18]
    with pytest.raises(ValueError):
        SmallGroup.semidirect(3, 2, 2, m_I=4)
    with pytest.raises(ValueError):  # 118098 elements, above the order limit
        SmallGroup.semidirect(3, 10, 2)


def test_small_group_associativity_spot_check():
    g = SmallGroup.semidirect(5, 1, 4)
    n, mul = g.n, g.mul
    for a in range(n):
        for b in range(n):
            ab = mul(a, b)
            for c in range(n):
                assert mul(ab, c) == mul(a, mul(b, c))


def test_generation_obstruction_examples():
    assert generation_obstruction(2, 2, 1, p=3) is True
    assert generation_obstruction(1, 2, 1, p=7) is False
    assert generation_obstruction(1, 1, 1, p=7) is False


def test_generation_obstruction_monotone_in_vp():
    previous_obstructed = True
    for vp_gen in range(0, 4):
        obstructed = generation_obstruction(3, 2, vp_gen, p=3)
        assert previous_obstructed or not obstructed
        previous_obstructed = obstructed
    assert generation_obstruction(3, 2, 2, p=3) is True
    assert generation_obstruction(3, 2, 3, p=3) is False


def test_branch_cycle_examples():
    d9 = SmallGroup.semidirect(3, 2, 2)
    assert branch_cycle_feasible(d9, (2, 3)) is False
    assert branch_cycle_feasible(SmallGroup.cyclic(12), (12, 12)) is True
    d7 = SmallGroup.semidirect(7, 1, 2)
    assert branch_cycle_feasible(d7, (2, 2, 7)) is True
    assert branch_cycle_feasible(d7, (2, 2, 2)) is False
    assert branch_cycle_feasible(d7, (4, 7)) is False  # no order-4 elements


def test_two_point_feasibility_forces_cyclic():
    groups = [
        SmallGroup.cyclic(9),
        SmallGroup.semidirect(3, 2, 2),
        SmallGroup.semidirect(5, 1, 2),
        SmallGroup.semidirect(7, 1, 3),
    ]
    for g in groups:
        orders = sorted(set(g.orders))
        for o1 in orders:
            for o2 in orders:
                feasible = branch_cycle_feasible(g, (o1, o2))
                if feasible:
                    assert o1 == o2 == g.n
