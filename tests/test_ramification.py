"""Admissibility, numbering conversions, genus arithmetic, enumeration."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from wildram.checks import naive_admissible_filter, random_admissible, random_inertia
from wildram.psl2 import InertiaType, group_params, inertia_candidates
from wildram.ramification import (
    JumpSequence,
    base_sigma,
    deformation_compatible,
    divisor_degree,
    enumerate_admissible,
    genus,
    is_admissible,
    leq,
    lower_from_upper,
    tame_base_change,
    upper_from_lower,
)

D7 = InertiaType.dihedral(7, 1)
Z7 = InertiaType.cyclic(7, 1)
Z49 = InertiaType.cyclic(7, 2)
D49 = InertiaType.dihedral(7, 2)


def seq(*values):
    return JumpSequence.of(*values)


def test_jump_sequence_validation():
    with pytest.raises(ValueError):
        JumpSequence.of(0)
    with pytest.raises(ValueError):
        JumpSequence.of(2, 1)
    with pytest.raises(ValueError):
        JumpSequence(())
    assert JumpSequence.from_strings(["1/2", "3/2"]).to_strings() == ["1/2", "3/2"]


def test_admissibility_worked_examples():
    assert is_admissible(D7, seq(Fraction(3, 2))).admissible
    verdict = is_admissible(Z7, seq(7))
    assert not verdict.admissible and verdict.failed == "c"
    verdict = is_admissible(D7, seq(1))
    assert not verdict.admissible and verdict.failed == "b"
    assert is_admissible(Z49, seq(1, 7)).admissible


def test_admissibility_condition_a_and_d():
    verdict = is_admissible(Z7, seq(Fraction(1, 2)))
    assert verdict.failed == "a"
    # conditions b-d are not evaluated on a non-grid sequence
    assert all(c.ok is None for c in verdict.conditions[1:])
    verdict = is_admissible(InertiaType(p=7, r=2, m=3, m_I=3), seq(Fraction(1, 3), Fraction(8, 3)))
    assert verdict.failed in ("c", "d")


def test_admissibility_length_mismatch():
    with pytest.raises(ValueError):
        is_admissible(Z49, seq(1))


def test_leq():
    assert leq(seq(Fraction(3, 2)), seq(Fraction(5, 2)))
    assert not leq(seq(3), seq(2))
    assert leq(seq(1, 7), seq(1, 7))
    with pytest.raises(ValueError):
        leq(seq(1), seq(1, 7))


def test_deformation_compatible():
    assert deformation_compatible(D7, seq(Fraction(3, 2)), seq(Fraction(5, 2)))
    assert not deformation_compatible(Z7, seq(3), seq(2))
    assert deformation_compatible(Z49, seq(1, 7), seq(2, 15))
    with pytest.raises(ValueError):
        deformation_compatible(Z7, seq(7), seq(8))  # base not admissible


def test_divisor_degree_golden():
    assert divisor_degree(D7, seq(Fraction(3, 2))) == 31
    assert divisor_degree(Z7, seq(1)) == 12
    assert divisor_degree(Z49, seq(1, 7)) == 348


def test_divisor_degree_rejects_inadmissible():
    with pytest.raises(ValueError):
        divisor_degree(Z7, seq(7))


def test_genus_golden():
    result = genus(1092, D7, seq(Fraction(3, 2)))
    assert (result.genus, result.divisor_degree, result.realizable) == (118, 31, True)
    flagged = genus(1092, Z7, seq(1))
    assert (flagged.genus, flagged.realizable) == (-155, False)
    big = genus(456288, D49, seq(Fraction(1, 2), Fraction(7, 2)))
    assert (big.genus, big.divisor_degree) == (467929, 397)


def test_genus_incompatible_group_order():
    with pytest.raises(ValueError, match="does not divide"):
        genus(12, Z49, seq(1, 7))


def test_genus_integrality_over_enumerations():
    for ell in (13, 97):
        gp = group_params(7, ell)
        for inertia in inertia_candidates(gp):
            for sigma in enumerate_admissible(inertia, 10):
                result = genus(gp.order, inertia, sigma)
                assert divisor_degree(inertia, sigma) > 0


def test_genus_monotone_in_jumps():
    for inertia in (Z7, D7, Z49, D49):
        sequences = enumerate_admissible(inertia, 12)
        for a, b in combinations(sequences, 2):
            if leq(a, b):
                ga = genus(456288, inertia, a).genus
                gb = genus(456288, inertia, b).genus
                assert ga <= gb


def test_herbrand_worked_examples():
    assert upper_from_lower(D7, [3]) == seq(Fraction(3, 2))
    assert upper_from_lower(Z7, [1]) == seq(1)
    assert lower_from_upper(D7, seq(Fraction(3, 2))) == seq(3)
    assert lower_from_upper(Z7, seq(1)) == seq(1)
    # two-layer shape: (h1, h1 + (h2 - h1)/p)
    assert upper_from_lower(Z49, [3, 17]) == seq(3, 5)


def test_herbrand_input_validation():
    with pytest.raises(ValueError):
        upper_from_lower(Z49, [3, 3])
    with pytest.raises(ValueError):
        upper_from_lower(Z7, [7])
    with pytest.raises(ValueError):
        upper_from_lower(Z7, [Fraction(1, 2)])
    with pytest.raises(ValueError):
        lower_from_upper(Z7, seq(7))


def test_herbrand_round_trips_randomized():
    rng = random.Random(20260810)
    for _ in range(100):
        inertia = random_inertia(rng)
        upper = random_admissible(inertia, rng)
        lower = lower_from_upper(inertia, upper)
        assert upper_from_lower(inertia, list(lower)) == upper


def test_tame_base_change_worked_examples():
    assert tame_base_change(D7, seq(Fraction(3, 2)), 1) == (Z7, seq(3))
    assert tame_base_change(D7, seq(Fraction(3, 2)), 2) == (D7, seq(Fraction(3, 2)))
    assert tame_base_change(D7, seq(Fraction(5, 2)), 1) == (Z7, seq(5))
    with pytest.raises(ValueError):
        tame_base_change(D7, seq(Fraction(3, 2)), 3)


def test_tame_base_change_functorial():
    inertia = InertiaType(p=7, r=1, m=6, m_I=6)
    sigma = seq(Fraction(1, 6))
    mid_inertia, mid_sigma = tame_base_change(inertia, sigma, 3)
    final_via_mid = tame_base_change(mid_inertia, mid_sigma, 1)
    assert final_via_mid == tame_base_change(inertia, sigma, 1)
    direct_two = tame_base_change(inertia, sigma, 2)
    assert tame_base_change(*direct_two, 1) == final_via_mid


def test_enumerate_worked_examples():
    assert enumerate_admissible(Z7, 3) == [seq(1), seq(2), seq(3)]
    assert enumerate_admissible(D7, 2) == [seq(Fraction(1, 2)), seq(Fraction(3, 2))]
    assert enumerate_admissible(Z49, 10) == [seq(1, 7), seq(1, 8), seq(1, 9), seq(1, 10)]
    assert enumerate_admissible(Z7, Fraction(1, 2)) == []


def test_enumerate_matches_grid_filter():
    shapes = [Z7, Z49, D7, D49, InertiaType(p=5, r=2, m=4, m_I=4), InertiaType(p=3, r=3, m=2, m_I=2)]
    for inertia in shapes:
        assert enumerate_admissible(inertia, 15) == naive_admissible_filter(inertia, 15)


def test_enumerate_lexicographic_order():
    sequences = enumerate_admissible(D49, 20)
    keys = [[inertia_scaled for inertia_scaled in (2 * u for u in s)] for s in sequences]
    assert keys == sorted(keys)


def test_divisor_degree_integral_over_enumeration_bound_20():
    for inertia in (Z7, D7, Z49, D49):
        for sigma in enumerate_admissible(inertia, 20):
            assert divisor_degree(inertia, sigma) > 0


def test_base_sigma():
    assert base_sigma(D7, 97) == seq(Fraction(3, 2))
    assert base_sigma(Z7, 97) == seq(2)  # 97 = 1 mod 8
    assert base_sigma(Z7, 13) == seq(3)  # 13 = 5 mod 8
    assert base_sigma(Z7, 41) == seq(2)  # 41 = 1 mod 8
    assert base_sigma(Z49, 97) is None
    assert base_sigma(D49, 97) is None
    with pytest.raises(ValueError):
        base_sigma(D49, 13)  # a = 1 admits no r = 2 candidate
