"""Admissibility, numbering conversions, genus arithmetic, enumeration."""

import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wildram import checks, towers
from wildram.checks import naive_admissible_filter, random_admissible_numerators, random_inertia
from wildram.exactmath import format_rational, is_prime
from wildram.psl2 import InertiaType, group_params, inertia_candidates
from wildram.ramification import (
    AdmissibilityVerdict,
    ConditionResult,
    JumpSequence,
    admissible_numerators,
    base_sigma,
    compatible_numerators,
    compatible_targets,
    deformation_compatible,
    divisor_degree,
    enumerate_admissible,
    genus,
    is_admissible,
    lower_from_upper,
    lower_numerators,
    tame_base_change,
    unmet_conditions,
    upper_from_lower,
    upper_numerators,
)
from wildram.towers import inertia_type_of, predicted_jumps

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
    assert reference_leq(seq(Fraction(3, 2)), seq(Fraction(5, 2)))
    assert not reference_leq(seq(3), seq(2))
    assert reference_leq(seq(1, 7), seq(1, 7))
    with pytest.raises(ValueError):
        reference_leq(seq(1), seq(1, 7))


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
            if reference_leq(a, b):
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


def random_admissible(inertia: InertiaType, rng: random.Random) -> JumpSequence:
    """The Fraction draw that herbrand-roundtrip made before it ran on the
    integers: the reference for checks.random_admissible_numerators, whose
    rng calls must be these."""
    p, m, m_I = inertia.p, inertia.m, inertia.m_I
    while True:
        n1 = rng.randint(1, 30 * m)
        if n1 % p == 0 or gcd(m, n1) != m // m_I:
            continue
        ns = [n1]
        for _ in range(inertia.r - 1):
            prev = ns[-1]
            if rng.random() < 0.4:
                ns.append(p * prev)
                continue
            candidates = [
                n
                for n in range(p * prev + 1, p * prev + 4 * m * p + 1)
                if n % p != 0 and n % m == n1 % m
            ]
            ns.append(rng.choice(candidates))
        seq = JumpSequence(tuple(Fraction(n, m) for n in ns))
        assert is_admissible(inertia, seq).admissible, seq
        return seq


def test_herbrand_round_trips_randomized():
    # the Fraction round trip through the JumpSequence wrappers;
    # herbrand-roundtrip runs the integer cores
    rng = random.Random(20260810)
    for _ in range(100):
        inertia = random_inertia(rng)
        upper = random_admissible(inertia, rng)
        lower = lower_from_upper(inertia, upper)
        assert upper_from_lower(inertia, list(lower)) == upper


@pytest.mark.parametrize("seed", [441100, 20260810])
def test_integer_draw_replays_the_fraction_draw(seed):
    # 441100 is herbrand-roundtrip's seed: its 200 (inertia, numerators)
    # pairs are those of the Fraction draw, m u_i read off each sequence
    new, old = random.Random(seed), random.Random(seed)
    for _ in range(200):
        inertia = random_inertia(new)
        numerators = random_admissible_numerators(inertia, new)
        assert random_inertia(old) == inertia
        assert numerators == [inertia.m * u for u in random_admissible(inertia, old)]
    assert new.getstate() == old.getstate()


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


@pytest.mark.xfail(
    strict=True,
    reason="base_sigma at p = 3 prints sequences that fail condition (c), such as"
    " (3/2) for D_3 at ell = 97; 68 (ell, shape) cases below 200",
)
def test_base_sigma_is_admissible_at_p3():
    # every sequence base_sigma names must pass conditions (a)-(d)
    rejected = []
    for ell in range(5, 200):
        if not is_prime(ell):
            continue
        for inertia in inertia_candidates(group_params(3, ell)):
            seq = base_sigma(inertia, ell)
            if seq is not None and not is_admissible(inertia, seq).admissible:
                rejected.append((ell, inertia.label(), [format_rational(u) for u in seq]))
    assert rejected == []


# ---------------------------------------------------------------------------
# Reference oracles: the Fraction-based admissibility test, deformation
# order, divisor degree and Herbrand maps, kept verbatim, against which the
# integer evaluation on n_i = m u_i is compared.


def reference_is_admissible(inertia: InertiaType, seq: JumpSequence) -> AdmissibilityVerdict:
    """Evaluate conditions (a)-(d) exactly; see the module docstring."""
    if len(seq) != inertia.r:
        raise ValueError(f"sequence length {len(seq)} does not match r = {inertia.r}")
    p, m, m_I = inertia.p, inertia.m, inertia.m_I
    scaled = [m * u for u in seq]

    bad_a = next((u for u in scaled if u.denominator != 1), None)
    cond_a = ConditionResult(
        "a", bad_a is None, None if bad_a is None else f"m*u = {format_rational(bad_a)}"
    )
    if bad_a is not None:
        conds = (cond_a,) + tuple(ConditionResult(x, None) for x in "bcd")
        return AdmissibilityVerdict(False, conds)

    n = [int(u) for u in scaled]
    g = gcd(m, n[0])
    cond_b = ConditionResult(
        "b", g == m // m_I, None if g == m // m_I else f"gcd({m}, {n[0]}) = {g} != {m // m_I}"
    )

    ok_c, wit_c = True, None
    if n[0] % p == 0:
        ok_c, wit_c = False, f"p | m*u_1 = {n[0]}"
    else:
        for i in range(1, len(seq)):
            if seq[i] == p * seq[i - 1]:
                continue
            if seq[i] > p * seq[i - 1] and n[i] % p != 0:
                continue
            ok_c = False
            if seq[i] < p * seq[i - 1]:
                wit_c = f"u_{i + 1} = {format_rational(seq[i])} < p*u_{i} = {format_rational(p * seq[i - 1])}"
            else:
                wit_c = f"p | m*u_{i + 1} = {n[i]} while u_{i + 1} > p*u_{i}"
            break
    cond_c = ConditionResult("c", ok_c, wit_c)

    bad_d = next((i for i in range(len(n)) if n[i] % m != n[0] % m), None)
    cond_d = ConditionResult(
        "d",
        bad_d is None,
        None if bad_d is None else f"m*u_{bad_d + 1} = {n[bad_d]} != {n[0]} (mod {m})",
    )

    conds = (cond_a, cond_b, cond_c, cond_d)
    return AdmissibilityVerdict(all(c.ok for c in conds), conds)


def reference_require_admissible(inertia: InertiaType, seq: JumpSequence, what: str):
    verdict = reference_is_admissible(inertia, seq)
    if not verdict.admissible:
        raise ValueError(
            f"{what} needs an admissible sequence; {seq} fails condition ({verdict.failed})"
        )


def reference_leq(seq: JumpSequence, other: JumpSequence) -> bool:
    """Componentwise partial order on sequences of equal length."""
    if len(seq) != len(other):
        raise ValueError("sequences of different lengths are not comparable")
    return all(a <= b for a, b in zip(seq, other))


def reference_deformation_compatible(
    inertia: InertiaType, seq: JumpSequence, target: JumpSequence
) -> bool:
    """Whether target can replace seq: admissible, componentwise >= and
    m u_1 = m u_1' (mod m)."""
    reference_require_admissible(inertia, seq, "deformation_compatible")
    if len(target) != len(seq):
        raise ValueError("target sequence has the wrong length")
    if not reference_is_admissible(inertia, target).admissible:
        return False
    if not reference_leq(seq, target):
        return False
    m = inertia.m
    return (m * seq[0] - m * target[0]) % m == 0


def reference_divisor_degree(inertia: InertiaType, seq: JumpSequence) -> int:
    """deg(R) = m p^r - 1 + (p-1) m sum(p^(i-1) u_i), an exact integer."""
    reference_require_admissible(inertia, seq, "divisor_degree")
    p, m, r = inertia.p, inertia.m, inertia.r
    total = Fraction(m * p**r - 1)
    acc = Fraction(0)
    for i, u in enumerate(seq):
        acc += p**i * u
    total += (p - 1) * m * acc
    if total.denominator != 1:
        raise RuntimeError(
            f"ramification divisor degree {total} is not integral; "
            "an inadmissible sequence slipped through"
        )
    return int(total)


def reference_upper_from_lower(inertia: InertiaType, lower) -> JumpSequence:
    """Apply the Herbrand map to lower jumps (positive integers).

    Slope is 1/m up to h_1 and 1/(m p^(i-1)) on (h_{i-1}, h_i].
    """
    values = [Fraction(h) for h in lower]
    if len(values) != inertia.r:
        raise ValueError(f"expected {inertia.r} lower jumps, got {len(values)}")
    if any(h.denominator != 1 or h <= 0 for h in values):
        raise ValueError(f"lower jumps must be positive integers: {values}")
    if any(a >= b for a, b in zip(values, values[1:])):
        raise ValueError(f"lower jumps must be strictly increasing: {values}")
    if int(values[0]) % inertia.p == 0:
        raise ValueError(f"first lower jump {values[0]} must be prime to p")
    p, m = inertia.p, inertia.m
    out = [values[0] / m]
    for i in range(1, len(values)):
        out.append(out[-1] + (values[i] - values[i - 1]) / (m * p**i))
    return JumpSequence(tuple(out))


def reference_lower_from_upper(inertia: InertiaType, seq: JumpSequence) -> JumpSequence:
    """Exact inverse of upper_from_lower; input must be admissible."""
    reference_require_admissible(inertia, seq, "lower_from_upper")
    p, m = inertia.p, inertia.m
    out = [m * seq[0]]
    for i in range(1, len(seq)):
        out.append(out[-1] + m * p**i * (seq[i] - seq[i - 1]))
    if any(h.denominator != 1 for h in out):
        raise RuntimeError(f"non-integral lower jumps {out} from an admissible sequence")
    return JumpSequence(tuple(out))


def outcome(f, *args):
    """A call's value, or the type and text of the error it raised."""
    try:
        value = f(*args)
    except (ValueError, RuntimeError) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(value, AdmissibilityVerdict):
        return "verdict", value.to_dict(), value.failed
    if isinstance(value, JumpSequence):
        return "jumps", value.jumps, [type(u) for u in value.jumps]
    return "value", value


def assert_matches_references(inertia: InertiaType, seq: JumpSequence, target):
    """The integer layer and the reference oracles agree on every result,
    verdict, witness and error message at (inertia, seq).  An inadmissible
    seq is refused by one shared check, so divisor_degree alone stands for
    the refusals of lower_from_upper and deformation_compatible."""
    verdict = outcome(is_admissible, inertia, seq)
    assert verdict == outcome(reference_is_admissible, inertia, seq)
    assert outcome(divisor_degree, inertia, seq) == outcome(
        reference_divisor_degree, inertia, seq
    )
    scaled = [inertia.m * u for u in seq]  # lower jumps only on the grid
    assert outcome(upper_from_lower, inertia, scaled) == outcome(
        reference_upper_from_lower, inertia, scaled
    )
    if not verdict[1]["admissible"]:
        return
    lower = outcome(lower_from_upper, inertia, seq)
    assert lower == outcome(reference_lower_from_upper, inertia, seq)
    hs = list(lower[1])
    assert outcome(upper_from_lower, inertia, hs) == outcome(
        reference_upper_from_lower, inertia, hs
    )
    assert upper_from_lower(inertia, hs) == seq
    assert outcome(deformation_compatible, inertia, seq, target) == outcome(
        reference_deformation_compatible, inertia, seq, target
    )


def small_inertia_types(primes=(3, 5, 7), max_m=6, max_r=3):
    for p in primes:
        for m in range(1, max_m + 1):
            if gcd(m, p) != 1:
                continue
            for m_I in range(1, m + 1):
                if gcd(m, p - 1) % m_I == 0:
                    for r in range(1, max_r + 1):
                        yield InertiaType(p=p, r=r, m=m, m_I=m_I)


def test_integer_layer_matches_references_on_every_small_grid_tuple():
    # every strictly increasing tuple n_1 < ... < n_r <= top on (1/m) Z, every
    # admissible one against every other as a deformation target
    tops = {1: 18, 2: 15, 3: 11}
    shapes = grid_tuples = admissible_pairs = 0
    for inertia in small_inertia_types():
        shapes += 1
        m = inertia.m
        grid = [
            JumpSequence(tuple(Fraction(n, m) for n in ns))
            for ns in combinations(range(1, tops[inertia.r] + 1), inertia.r)
        ]
        admissible = [s for s in grid if reference_is_admissible(inertia, s).admissible]
        for s in grid:
            assert_matches_references(inertia, s, target=admissible[-1] if admissible else None)
        for a in admissible:
            for b in admissible:
                assert deformation_compatible(inertia, a, b) == reference_deformation_compatible(
                    inertia, a, b
                )
        grid_tuples += len(grid)
        admissible_pairs += len(admissible) ** 2
    assert (shapes, grid_tuples) == (81, 27 * (18 + 105 + 165))
    assert admissible_pairs > 1000


def test_grid_filter_matches_a_reference_filter_on_every_small_shape():
    # the grid-filter oracle of enumeration-complete tests integer tuples
    # with the integer core; here every Fraction sequence on the same grid
    # goes through the reference test instead
    tops = {1: 18, 2: 15, 3: 11}
    for inertia in small_inertia_types():
        m, top = inertia.m, tops[inertia.r]
        grid = (
            JumpSequence(tuple(Fraction(n, m) for n in ns))
            for ns in combinations(range(1, top + 1), inertia.r)
        )
        expected = [s for s in grid if reference_is_admissible(inertia, s).admissible]
        assert naive_admissible_filter(inertia, Fraction(top, m)) == expected, inertia


def test_integer_layer_matches_references_off_the_grid():
    # condition (a) fails: the first off-grid jump is the witness, and every
    # map that needs an admissible sequence reports the same refusal
    cases = [
        (Z7, seq(Fraction(1, 2))),
        (D7, seq(Fraction(1, 3))),
        (D7, seq(Fraction(5, 4))),
        (D49, seq(Fraction(1, 2), Fraction(22, 3))),
        (D49, seq(Fraction(3, 5), Fraction(7, 2))),
        (Z49, seq(Fraction(7, 6), Fraction(5, 2))),
        (InertiaType(p=7, r=2, m=3, m_I=3), seq(Fraction(1, 3), Fraction(8, 9))),
        (InertiaType(p=5, r=3, m=4, m_I=4), seq(Fraction(1, 4), Fraction(5, 4), Fraction(51, 8))),
        (InertiaType(p=7, r=3, m=6, m_I=6), seq(Fraction(1, 6), Fraction(7, 6), Fraction(100, 7))),
    ]
    for inertia, s in cases:
        verdict = is_admissible(inertia, s)
        assert verdict.failed == "a" and all(c.ok is None for c in verdict.conditions[1:])
        assert_matches_references(inertia, s, target=s)
        for what in (lower_from_upper, divisor_degree):
            assert outcome(what, inertia, s)[0] == "ValueError"
        assert outcome(deformation_compatible, inertia, s, s) == outcome(
            reference_deformation_compatible, inertia, s, s
        )
        # an off-grid target is not compatible, and raises nothing
        base = enumerate_admissible(inertia, 60)[0]
        assert_matches_references(inertia, base, target=s)
        assert deformation_compatible(inertia, base, s) is False
    assert is_admissible(D7, seq(Fraction(1, 3))).conditions[0].witness == "m*u = 2/3"


def test_integer_herbrand_cores_on_every_small_admissible_sequence():
    # every admissible sequence with u_r <= 12 of every shape p in
    # {3, 5, 7, 11}, m <= 6, r <= 4: the integer round trip, and
    # lower_from_upper as lower_numerators over a JumpSequence; every grid
    # tuple that fails (b)-(d), and one off the grid per shape, is refused
    # with the reference's text
    shapes = admissible = refused = 0
    for inertia in small_inertia_types(primes=(3, 5, 7, 11), max_r=4):
        p, m, r = inertia.p, inertia.m, inertia.r
        shapes += 1
        for s in enumerate_admissible(inertia, 12):
            n = [m * u for u in s]
            lower = lower_numerators(inertia, n)
            assert upper_numerators(inertia, lower) == [x * p ** (r - 1) for x in n]
            assert lower_from_upper(inertia, s) == JumpSequence(tuple(lower))
            assert outcome(lower_from_upper, inertia, s) == outcome(
                reference_lower_from_upper, inertia, s
            )
            admissible += 1
        grid = [ns for ns in combinations(range(1, 10), r) if unmet_conditions(inertia, ns)]
        off = (Fraction(1, m + 1),) + tuple(Fraction(k) for k in range(1, r))
        for s in [JumpSequence(tuple(Fraction(x, m) for x in ns)) for ns in grid] + [
            JumpSequence(off)
        ]:
            got = outcome(lower_from_upper, inertia, s)
            assert got[0] == "ValueError" and got == outcome(reference_lower_from_upper, inertia, s)
            refused += 1
    assert (shapes, admissible, refused) == (148, 875, 9430)


def test_upper_from_lower_matches_reference_on_invalid_lower_jumps():
    for lower in ([3, 3], [0, 5], [-1, 4], [7, 8], [Fraction(1, 2), 2], [2], [5, 2], [1, 2, 3]):
        assert outcome(upper_from_lower, Z49, lower) == outcome(
            reference_upper_from_lower, Z49, lower
        )
        assert outcome(upper_from_lower, Z49, lower)[0] == "ValueError"


@st.composite
def inertia_and_numerators(draw):
    p = draw(st.sampled_from((3, 5, 7, 11, 13)))
    m = draw(st.integers(1, 12).filter(lambda m: gcd(m, p) == 1))
    m_I = draw(st.sampled_from([d for d in range(1, m + 1) if gcd(m, p - 1) % d == 0]))
    r = draw(st.integers(1, 4))
    n = [draw(st.integers(1, 60))]
    for _ in range(r - 1):
        # the p-multiple branch of (c), a jump past it, or an out-of-order one
        step = draw(st.sampled_from(("times-p", "above", "below")))
        if step == "times-p":
            n.append(p * n[-1])
        elif step == "above":
            n.append(p * n[-1] + draw(st.integers(1, 3 * m * p)))
        else:
            n.append(n[-1] + draw(st.integers(1, max(1, (p - 1) * n[-1]))))
    denominators = [m] * r
    if draw(st.booleans()):
        # one jump on a finer grid, mostly off (1/m) Z
        denominators[draw(st.integers(0, r - 1))] = m * draw(st.integers(2, 5))
    return InertiaType(p=p, r=r, m=m, m_I=m_I), [Fraction(a, d) for a, d in zip(n, denominators)]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(inertia_and_numerators(), st.data())
def test_integer_layer_matches_references_property(case, data):
    inertia, values = case
    values.sort()
    if any(a >= b for a, b in zip(values, values[1:])):
        return
    s = JumpSequence(tuple(values))
    shift = data.draw(st.integers(0, 3 * inertia.m))
    target = JumpSequence(tuple(u + Fraction(shift, inertia.m) for u in values))
    assert_matches_references(inertia, s, target=target)


# ---------------------------------------------------------------------------
# The floored walk: compatible_targets against the filter over every
# admissible sequence that it replaced, kept here as the oracle.


def filtered_targets(inertia: InertiaType, base: JumpSequence, bound) -> list[JumpSequence]:
    n = admissible_numerators(inertia, base, "filtered_targets")
    return [
        s for s in enumerate_admissible(inertia, bound)
        if compatible_numerators(inertia, n, s) is not None
    ]


def walked_targets(inertia: InertiaType, base: JumpSequence, bound) -> list[JumpSequence]:
    n = admissible_numerators(inertia, base, "walked_targets")
    return [
        JumpSequence(tuple(Fraction(k, inertia.m) for k in numerators))
        for numerators in compatible_targets(inertia, n, bound)
    ]


def test_compatible_targets_match_the_filter_on_small_shapes():
    shapes = bases = targets = 0
    for inertia in small_inertia_types(primes=(3, 5, 7, 11)):
        shapes += 1
        # bases from the least admissible sequences up to the middle and the last
        pool = enumerate_admissible(inertia, inertia.p ** (inertia.r - 1) + 3)
        for base in {pool[0], pool[len(pool) // 2], pool[-1]} if pool else ():
            bases += 1
            for slack in (0, Fraction(1, 2), 2, Fraction(13, 3), 8):
                bound = base[-1] + slack
                want = filtered_targets(inertia, base, bound)
                assert walked_targets(inertia, base, bound) == want, (inertia, base, slack)
                targets += len(want)
    assert (shapes, bases) == (111, 333) and targets > 5000


def test_compatible_targets_worked_examples():
    # above (3/2) for D_7: odd m u_1' >= 3, skipping the multiple 7 of p
    assert compatible_targets(D7, [3], Fraction(1, 2)) == []
    assert compatible_targets(D7, [3], Fraction(3, 2)) == [(3,)]
    assert compatible_targets(D7, [3], Fraction(11, 2)) == [(3,), (5,), (9,), (11,)]
    # above (1, 8) for Z/49: u_2' = 7 u_1' is allowed only once it reaches 8
    assert compatible_targets(Z49, [1, 8], 14) == [(1, k) for k in range(8, 14)] + [(2, 14)]


def test_deformation_random_draws_the_targets_of_the_filter(monkeypatch):
    # the check-all golden reports only {"pairs": 50}, so a changed target
    # would not show there; the 50 (spec, target, scale) triples of the
    # suite's seed are pinned against the filter's draws instead
    def filtered_random_target(spec, rng):
        inertia = inertia_type_of(spec)
        base = predicted_jumps(spec)
        return rng.choice(filtered_targets(inertia, base, base[-1] + 8))

    def draws():
        seen = []
        real = checks.verify_deformation

        def record(spec, target, scale):
            seen.append((spec.to_dict(), target, scale))
            return real(spec, target, scale)

        with monkeypatch.context() as patch:
            patch.setattr(checks, "verify_deformation", record)
            assert checks.check_deformation_random() == {"pairs": 50}
        return seen

    walked = draws()
    monkeypatch.setattr(checks, "random_compatible_target", filtered_random_target)
    assert walked == draws()
    assert len(walked) == 50


def test_deformation_random_validates_each_tower_once(monkeypatch):
    # each base tower once, its verdict kept on the tower for the draw and
    # for deform, and each deformed tower once: 100 calls for the 50 pairs (150 when
    # the draw and deform validated the base each)
    calls = []
    real = towers.validate_spec

    def counted(spec):
        calls.append(spec)
        return real(spec)

    monkeypatch.setattr(towers, "validate_spec", counted)
    assert checks.check_deformation_random() == {"pairs": 50}
    assert len(calls) == 100
