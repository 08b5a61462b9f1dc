"""Tower validation, the jump recurrence, the reduction oracle, deformation."""

import hashlib
import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from math import comb, gcd
from pathlib import Path

import pytest

from wildram import checks, exactmath, towers
from wildram.checks import (
    CheckFailure,
    check_tower_oracle_sweep,
    random_compatible_target,
    random_tower_spec,
    sweep_tower_specs,
    valid_residue_classes,
)
from wildram.exactmath import FpPolynomial
from wildram.psl2 import InertiaType
from wildram.ramification import JumpSequence, admissible_numerators, is_admissible
from wildram.towers import (
    TowerSpec,
    deform,
    format_tower_spec,
    inertia_type_of,
    oracle_jumps,
    oracle_numerators,
    parse_tower_spec,
    predicted_jumps,
    predicted_numerators,
    validate_spec,
    verify_deformation,
    witt_add,
    witt_carry,
    witt_neg,
    witt_wp,
)


def poly(p, *terms):
    return FpPolynomial.from_terms(p, dict(terms))


def monomial_tower(p, m, degree, r=1, second=None):
    layers = [FpPolynomial.monomial(p, 1, degree)]
    if r == 2:
        layers.append(second if second is not None else FpPolynomial.zero(p))
    return TowerSpec(p=p, m=m, r=r, x_polys=tuple(layers), residue_class=degree % m)


def test_validate_worked_examples():
    assert validate_spec(monomial_tower(7, 2, 3)).valid
    bad = TowerSpec(p=7, m=2, r=1, x_polys=(poly(7, (3, 1), (2, 1)),), residue_class=1)
    verdict = validate_spec(bad)
    assert not verdict.valid and "degree 2" in verdict.violations[0]
    bad = TowerSpec(p=7, m=1, r=1, x_polys=(FpPolynomial.monomial(7, 1, 7),), residue_class=0)
    verdict = validate_spec(bad)
    assert not verdict.valid and "not prime to p" in verdict.violations[0]
    empty = TowerSpec(p=7, m=1, r=1, x_polys=(FpPolynomial.zero(7),), residue_class=0)
    assert "zero polynomial" in validate_spec(empty).violations[0]


@pytest.mark.parametrize(
    "p,m,r,layers,message",
    [
        (1, 1, 1, 1, "p = 1 must be an odd prime"),
        (2, 1, 1, 1, "p = 2 must be an odd prime"),
        (4, 1, 1, 1, "p = 4 must be an odd prime"),
        (9, 1, 1, 1, "p = 9 must be an odd prime"),
        (
            exactmath.PRIME_LIMIT + 2,
            1,
            1,
            1,
            "p = 1000000000002 exceeds the prime limit 1000000000000",
        ),
        (3, 3, 1, 1, "m = 3 must be positive and prime to p"),
        (3, 0, 1, 1, "m = 0 must be positive and prime to p"),
        (3, 1, 2, 1, "need exactly r = 2 layer polynomials"),
        (3, 1, 0, 0, "need exactly r = 0 layer polynomials"),
    ],
    ids=["p1", "p2", "p4", "p9", "p-past-the-limit", "m-shares-p", "m0", "r-not-layers", "r0"],
)
def test_tower_spec_refusals(p, m, r, layers, message):
    x_polys = (FpPolynomial.monomial(3, 1, 2),) * layers
    with pytest.raises(ValueError) as refused:
        TowerSpec(p=p, m=m, r=r, x_polys=x_polys, residue_class=0)
    assert str(refused.value) == message
    # each refusal stands whether the verdict on p is memoized or fresh
    exactmath._prime_verdict.cache_clear()
    with pytest.raises(ValueError) as again:
        TowerSpec(p=p, m=m, r=r, x_polys=x_polys, residue_class=0)
    assert str(again.value) == message


def test_tower_spec_refuses_a_layer_over_another_field():
    layers = (FpPolynomial.monomial(5, 1, 2), FpPolynomial.monomial(3, 1, 7))
    with pytest.raises(ValueError) as refused:
        TowerSpec(p=5, m=1, r=2, x_polys=layers, residue_class=0)
    assert str(refused.value) == "layer polynomials must live over F_p"


@pytest.mark.parametrize("p", [1, 4, 9, 15])
def test_polynomial_over_a_composite_characteristic_is_refused(p):
    exactmath._prime_verdict.cache_clear()
    for _ in range(2):  # fresh, then memoized
        with pytest.raises(ValueError) as refused:
            FpPolynomial(p, (1, 1))
        assert str(refused.value) == f"characteristic {p} is not prime"


def test_tower_sweep_runs_trial_division_once_per_prime(monkeypatch):
    # the sweep builds 1422 towers and their layers over p in {3, 5, 7};
    # each distinct p is trial-divided once (2035 calls when every
    # TowerSpec and FpPolynomial tested its p afresh)
    calls = []
    real = exactmath.is_prime

    def counted(n):
        calls.append(n)
        return real(n)

    exactmath._prime_verdict.cache_clear()
    monkeypatch.setattr(exactmath, "is_prime", counted)
    check_tower_oracle_sweep()
    assert sorted(calls) == [3, 5, 7]
    calls.clear()
    check_tower_oracle_sweep()
    assert calls == []


def test_validate_action_order():
    # class 1 mod 3 would need an order-3 action, but 3 does not divide 5 - 1
    bad = TowerSpec(p=5, m=3, r=1, x_polys=(FpPolynomial.monomial(5, 1, 1),), residue_class=1)
    verdict = validate_spec(bad)
    assert any("m_I" in v for v in verdict.violations)
    # class 0 mod 3 acts trivially and is fine
    good = TowerSpec(p=5, m=3, r=1, x_polys=(FpPolynomial.monomial(5, 1, 3),), residue_class=0)
    assert validate_spec(good).valid
    assert inertia_type_of(good) == InertiaType(p=5, r=1, m=3, m_I=1)


def test_predicted_jumps_worked_examples():
    assert predicted_jumps(monomial_tower(7, 2, 3)) == JumpSequence.of(Fraction(3, 2))
    two_layer = TowerSpec(
        p=3, m=1, r=2, x_polys=(poly(3, (2, 1)), poly(3, (5, 1))), residue_class=0
    )
    assert predicted_jumps(two_layer) == JumpSequence.of(2, 6)
    high = TowerSpec(
        p=3, m=1, r=2, x_polys=(poly(3, (2, 1)), poly(3, (7, 1))), residue_class=0
    )
    assert predicted_jumps(high) == JumpSequence.of(2, 7)
    with_zero = monomial_tower(3, 1, 2, r=2)
    assert predicted_jumps(with_zero) == JumpSequence.of(2, 6)
    with pytest.raises(ValueError):
        predicted_jumps(TowerSpec(p=7, m=1, r=1, x_polys=(poly(7, (7, 1)),), residue_class=0))


def test_oracle_worked_examples():
    assert oracle_jumps(monomial_tower(7, 2, 3)) == JumpSequence.of(Fraction(3, 2))
    # unreduced input: x^5 + x^3 over F_5 reduces to x + x^3, conductor 3
    unreduced = TowerSpec(
        p=5, m=1, r=1, x_polys=(poly(5, (5, 1), (3, 1)),), residue_class=0
    )
    assert oracle_jumps(unreduced) == JumpSequence.of(3)
    two_layer = TowerSpec(
        p=3, m=1, r=2, x_polys=(poly(3, (2, 1)), poly(3, (5, 1))), residue_class=0
    )
    assert oracle_jumps(two_layer) == JumpSequence.of(2, 6)


def test_oracle_refuses_r_three():
    spec = TowerSpec(
        p=3,
        m=1,
        r=3,
        x_polys=(poly(3, (2, 1)), FpPolynomial.zero(3), FpPolynomial.zero(3)),
        residue_class=0,
    )
    assert predicted_jumps(spec) == JumpSequence.of(2, 6, 18)
    with pytest.raises(NotImplementedError):
        oracle_jumps(spec)


def test_oracle_refuses_constant_terms():
    spec = TowerSpec(p=3, m=1, r=1, x_polys=(poly(3, (2, 1), (0, 1)),), residue_class=0)
    with pytest.raises(ValueError, match="constant"):
        oracle_jumps(spec)


def test_witt_arithmetic_identities():
    rng = random.Random(5)
    for p in (3, 5, 7):
        for _ in range(20):
            def rand():
                terms = {rng.randint(0, 8): rng.randint(1, p - 1) for _ in range(3)}
                return FpPolynomial.from_terms(p, terms)

            u = (rand(), rand())
            v = (rand(), rand())
            w = (rand(), rand())
            assert witt_add(u, v) == witt_add(v, u)
            assert witt_add(witt_add(u, v), w) == witt_add(u, witt_add(v, w))
            zero = (FpPolynomial.zero(p), FpPolynomial.zero(p))
            assert witt_add(u, witt_neg(u)) == zero
            assert witt_add(u, zero) == u


def carry_row(p):
    # binom(p, i) / p mod p for i = 1..p-1; exact integer division
    return tuple(comb(p, i) // p % p for i in range(1, p))


def times(a, b):
    """The product of two polynomials over F_p, by the kernel that
    test_mul_coeffs_matches_schoolbook checks."""
    return FpPolynomial(a.p, tuple(exactmath.mul_coeffs(a.coeffs, b.coeffs, a.p)))


def binomial_carry(a, b):
    """The carry oracle: -sum over i of binom(p, i)/p a^i b^(p-i), from the
    binomial expansion of (a + b)^p."""
    p = a.p
    pow_a, pow_b = [FpPolynomial(p, (1,))], [FpPolynomial(p, (1,))]
    for _ in range(p - 1):
        pow_a.append(times(pow_a[-1], a))
        pow_b.append(times(pow_b[-1], b))
    total = FpPolynomial.zero(p)
    for i, c in enumerate(carry_row(p), start=1):
        total = total + times(times(pow_a[i], pow_b[p - i]), FpPolynomial(p, (c,)))
    return -total


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 31])
def test_witt_carry_matches_binomial_row(p):
    rng = random.Random(p)

    def sparse():
        return FpPolynomial.from_terms(p, {rng.randint(0, 20): rng.randint(1, p - 1) for _ in range(3)})

    def dense(n):
        return FpPolynomial(p, tuple(rng.randrange(p) for _ in range(n)))

    zero, one = FpPolynomial.zero(p), FpPolynomial(p, (1,))
    pairs = [(zero, one), (one, zero), (one, one), (one, FpPolynomial(p, (p - 1,)))]
    pairs += [(sparse(), sparse()) for _ in range(12)]
    pairs += [(dense(rng.randint(1, 12)), dense(rng.randint(1, 12))) for _ in range(12)]
    # every coefficient p - 1 makes the lift of a + b reach 2p - 2
    full = FpPolynomial(p, (p - 1,) * 9)
    pairs += [(full, full), (full, dense(4)), (dense(15), full)]
    for a, b in pairs:
        assert witt_carry(a, b) == binomial_carry(a, b)
        assert witt_carry(a, b) == witt_carry(b, a)


def count_products(monkeypatch):
    """A one-entry list that counts the mul_coeffs calls from here on."""
    mul, count = exactmath.mul_coeffs, [0]

    def counting(a, b, modulus):
        count[0] += 1
        return mul(a, b, modulus)

    monkeypatch.setattr(exactmath, "mul_coeffs", counting)
    monkeypatch.setattr(towers, "mul_coeffs", counting)
    return count


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_witt_carry_product_budget(p, monkeypatch):
    # a work budget with no timing noise: three p-th powers by
    # square-and-multiply, counted at the kernel; the binomial row takes
    # 3p - 5 products
    count = count_products(monkeypatch)
    rng = random.Random(p)
    a = FpPolynomial(p, tuple(rng.randrange(1, p) for _ in range(30)))
    b = FpPolynomial(p, tuple(rng.randrange(1, p) for _ in range(20)))
    witt_carry(a, b)
    assert 0 < count[0] <= 3 * ((p.bit_length() - 1) + bin(p).count("1") - 1)


def carry_route_second_layer(x1, x2):
    """The second component of (x_1, x_2) - wp((s, 0)), s the witness of the
    first layer's reduction, by two full Witt carries: the independent
    construction of the shift the oracle makes in one ghost-component step."""
    _, shift = exactmath.as_reduce_with_witness(x1)
    return witt_add((x1, x2), witt_neg(witt_wp((shift, FpPolynomial.zero(x1.p)))))[1]


def oracle_second_layer(x1, x2, monkeypatch):
    """The second layer oracle_numerators reduces, caught at its second
    as_reduce_with_witness call, and the numerators it returns."""
    seen, reduce = [], towers.as_reduce_with_witness

    def spy(g):
        seen.append(g)
        return reduce(g)

    monkeypatch.setattr(towers, "as_reduce_with_witness", spy)
    spec = TowerSpec(p=x1.p, m=1, r=2, x_polys=(x1, x2), residue_class=0)
    numerators = oracle_numerators(spec)
    monkeypatch.undo()
    assert len(seen) == 2
    return seen[1], numerators


def raw_layer(rng, p, degree):
    """A dense layer of the given degree with no constant term and a term at
    every multiple of p, so that the reduction shifts it."""
    coeffs = [0] + [rng.randrange(p) for _ in range(degree - 1)] + [rng.randrange(1, p)]
    coeffs[p::p] = [rng.randrange(1, p) for _ in coeffs[p::p]]
    return FpPolynomial(p, tuple(coeffs))


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_oracle_shift_matches_the_carry_route(p, monkeypatch):
    rng = random.Random(p)
    zero = FpPolynomial.zero(p)
    cases = [
        (raw_layer(rng, p, rng.randint(p + 1, 6 * p)), raw_layer(rng, p, rng.randint(1, 8 * p)))
        for _ in range(12)
    ]
    cases += [(raw_layer(rng, p, rng.randint(p + 1, 6 * p)), zero) for _ in range(3)]
    # a first layer whose only term at a multiple of p is x^p: a shift of degree 1
    degree_one = poly(p, (p, rng.randrange(1, p)), (p - 1, 1), (1, rng.randrange(p)))
    cases.append((degree_one, raw_layer(rng, p, 2 * p + 1)))
    for x1, x2 in cases:
        shifted, _ = oracle_second_layer(x1, x2, monkeypatch)
        assert shifted == carry_route_second_layer(x1, x2)
    assert exactmath.as_reduce_with_witness(degree_one)[1].degree == 1

    # a second layer that the shift turns into z^p - z, which reduces to zero:
    # the second layer adds no ramification (n1 < 1), as on the reduced tower
    # with x_2 = 0
    x1 = raw_layer(rng, p, 3 * p + 1)
    z = raw_layer(rng, p, 4)
    x2 = -carry_route_second_layer(x1, zero) + z.pth_power() + -z
    shifted, numerators = oracle_second_layer(x1, x2, monkeypatch)
    assert shifted == z.pth_power() + -z == carry_route_second_layer(x1, x2)
    assert exactmath.as_reduce(shifted).is_zero
    reduced = TowerSpec(
        p=p, m=1, r=2, x_polys=(exactmath.as_reduce(x1), zero), residue_class=0
    )
    assert numerators == oracle_numerators(reduced)

    # c x^p - c x reduces to zero: refused before any shift is taken
    c = rng.randrange(1, p)
    unramified = TowerSpec(
        p=p, m=1, r=2, x_polys=(poly(p, (p, c), (1, p - c)), x2), residue_class=0
    )
    with pytest.raises(ValueError, match="unramified"):
        oracle_numerators(unramified)


def test_oracle_shift_matches_the_carry_route_at_p251(monkeypatch):
    # p^2 = 63001: the widest Kronecker lanes a tower file reaches
    rng = random.Random(251)
    x1 = FpPolynomial.from_terms(
        251, {251: 250, **{d: rng.randrange(1, 251) for d in rng.sample(range(1, 251), 20)}}
    )
    x2 = FpPolynomial.from_terms(251, {d: rng.randrange(1, 251) for d in rng.sample(range(1, 600), 20)})
    shifted, _ = oracle_second_layer(x1, x2, monkeypatch)
    assert shifted == carry_route_second_layer(x1, x2)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_raw_oracle_product_budget(p, monkeypatch):
    # one raw r = 2 oracle takes three p-th powers by square-and-multiply,
    # counted at the kernel; the Witt route's two carries take six
    count = count_products(monkeypatch)
    rng = random.Random(p)
    layers = (raw_layer(rng, p, 4 * p + 1), raw_layer(rng, p, 9 * p + 1))
    oracle_numerators(TowerSpec(p=p, m=1, r=2, x_polys=layers, residue_class=0))
    assert 0 < count[0] <= 3 * ((p.bit_length() - 1) + bin(p).count("1") - 1)


def test_witt_carry_closed_form():
    # p = 3: (a^3 + b^3 - (a+b)^3)/3 = -(a^2 b + a b^2)
    a = poly(3, (1, 1))
    b = poly(3, (2, 1))
    expect = -(times(times(a, a), b) + times(a, times(b, b)))
    assert witt_carry(a, b) == expect


def test_witt_carry_type_and_action():
    assert carry_row(3) == (1, 1)
    # sigma shifts the second layer by -carry(y^3, -y) = -y^7 + y^5
    y = poly(3, (1, 1))
    assert -witt_carry(y.pth_power(), -y) == poly(3, (7, 2), (5, 1))

    two_layer = TowerSpec(
        p=3, m=1, r=2, x_polys=(poly(3, (2, 1)), poly(3, (5, 1))), residue_class=0
    )
    inertia = inertia_type_of(two_layer)
    assert (inertia.p**inertia.r, inertia.m_I) == (9, 1)

    dihedral = monomial_tower(7, 2, 3)
    inertia = inertia_type_of(dihedral)
    # x scales by zeta^1, the layer variables by a character of order m_I = 2
    assert (dihedral.residue_class, inertia.m_I, inertia.p**inertia.r) == (1, 2, 7)


def test_oracle_invariant_under_first_layer_witt_shift():
    rng = random.Random(11)
    for _ in range(30):
        spec = random_tower_spec(rng, max_degree=12, r_choices=(2,))
        shift_deg = rng.choice(
            [d for d in range(1, 7) if d % spec.m == spec.residue_class % spec.m] or [spec.m]
        )
        if shift_deg % spec.m != spec.residue_class:
            continue
        w = FpPolynomial.monomial(spec.p, rng.randint(1, spec.p - 1), shift_deg)
        shifted = witt_add(
            (spec.x_polys[0], spec.x_polys[1]), witt_wp((w, FpPolynomial.zero(spec.p)))
        )
        shifted_spec = TowerSpec(
            p=spec.p, m=spec.m, r=2, x_polys=shifted, residue_class=spec.residue_class
        )
        assert oracle_jumps(shifted_spec) == oracle_jumps(spec)


@pytest.mark.parametrize("p", [11, 13])
def test_oracle_invariant_under_large_first_layer_witt_shift(p):
    # a shift w of degree near 100 gives layers of degree near 100 p, the
    # size of the benchmark's raw towers
    rng = random.Random(p)
    for m in (1, 2):
        for j in valid_residue_classes(p, m):
            first = [d for d in range(1, 41) if d % p and d % m == j]
            second = [d for d in range(1, 400) if d % p and d % m == j]
            layers = (
                FpPolynomial.from_terms(p, {d: rng.randint(1, p - 1) for d in rng.sample(first, 3)}),
                FpPolynomial.from_terms(p, {d: rng.randint(1, p - 1) for d in rng.sample(second, 3)}),
            )
            spec = TowerSpec(p=p, m=m, r=2, x_polys=layers, residue_class=j)
            shift_deg = rng.choice([d for d in range(95, 106) if d % m == j])
            w = FpPolynomial.from_terms(
                p, {shift_deg: rng.randint(1, p - 1), shift_deg - m: rng.randint(1, p - 1)}
            )
            shifted = witt_add(layers, witt_wp((w, FpPolynomial.zero(p))))
            assert shifted[0].degree == p * shift_deg
            shifted_spec = TowerSpec(p=p, m=m, r=2, x_polys=shifted, residue_class=j)
            assert oracle_jumps(shifted_spec) == oracle_jumps(spec)


def test_oracle_invariant_under_plain_shift_r1():
    rng = random.Random(13)
    for _ in range(40):
        spec = random_tower_spec(rng, max_degree=14, r_choices=(1,))
        degs = [d for d in range(1, 8) if d % spec.m == spec.residue_class]
        if not degs:
            continue
        w = FpPolynomial.monomial(spec.p, rng.randint(1, spec.p - 1), rng.choice(degs))
        shifted = spec.x_polys[0] + w.pth_power() + -w
        shifted_spec = TowerSpec(
            p=spec.p, m=spec.m, r=1, x_polys=(shifted,), residue_class=spec.residue_class
        )
        assert oracle_jumps(shifted_spec) == oracle_jumps(spec)


def test_oracle_invariant_under_second_layer_shift():
    rng = random.Random(17)
    for _ in range(30):
        spec = random_tower_spec(rng, max_degree=12, r_choices=(2,))
        degs = [d for d in range(1, 8) if d % spec.m == spec.residue_class]
        if not degs:
            continue
        w = FpPolynomial.monomial(spec.p, rng.randint(1, spec.p - 1), rng.choice(degs))
        shifted = spec.x_polys[1] + w.pth_power() + -w
        shifted_spec = TowerSpec(
            p=spec.p,
            m=spec.m,
            r=2,
            x_polys=(spec.x_polys[0], shifted),
            residue_class=spec.residue_class,
        )
        assert oracle_jumps(shifted_spec) == oracle_jumps(spec)


def test_predicted_equals_oracle_on_sweep_subset():
    specs = sweep_tower_specs(max_degree_r1=20, max_degree_r2=10)
    assert len(specs) >= 200
    for spec in specs:
        assert predicted_jumps(spec) == oracle_jumps(spec)


def sweep_and_random_specs():
    """The towers of the tower-oracle-sweep suite: the sweep family and the
    200 random towers of its seed."""
    rng = random.Random(20260810)
    return sweep_tower_specs() + [random_tower_spec(rng) for _ in range(200)]


def reference_predicted_jumps(t):
    """The jump recurrence in rationals, layer by layer:
    u_1 = deg(x_1)/m, u_i = max(deg(x_i)/m, p u_{i-1})."""
    verdict = validate_spec(t)
    if not verdict.valid:
        raise ValueError(f"invalid tower: {verdict.violations[0]}")
    u = [Fraction(t.x_polys[0].degree, t.m)]
    for poly in t.x_polys[1:]:
        u.append(t.p * u[-1] if poly.is_zero else max(Fraction(poly.degree, t.m), t.p * u[-1]))
    return JumpSequence(tuple(u))


def test_integer_cores_agree_with_the_jump_sequences():
    for spec in sweep_and_random_specs():
        scale = spec.m * spec.p ** (spec.r - 1)
        predicted = predicted_jumps(spec)
        assert predicted == reference_predicted_jumps(spec)
        assert predicted.jumps == tuple(Fraction(n, spec.m) for n in predicted_numerators(spec))
        oracle = oracle_jumps(spec)
        assert oracle.jumps == tuple(Fraction(u, scale) for u in oracle_numerators(spec))


def reference_violations(t):
    """validate_spec's violations by walking every term of every layer."""
    v = ["x_1 is the zero polynomial"] if t.x_polys[0].is_zero else []
    for i, poly in enumerate(t.x_polys, start=1):
        for d, _ in poly.terms():
            if gcd(d, t.p) != 1:
                v.append(f"x_{i}: term degree {d} is not prime to p = {t.p}")
            if d % t.m != t.residue_class:
                v.append(f"x_{i}: term degree {d} is not {t.residue_class} mod m = {t.m}")
    m_I = t.m // gcd(t.m, t.residue_class)
    if (t.p - 1) % m_I != 0:
        v.append(f"action order m_I = {m_I} does not divide p - 1 = {t.p - 1}")
    return tuple(v)


def test_validate_spec_matches_the_per_term_walk():
    # unfiltered random layers, valid and invalid alike, constant terms,
    # p-multiples, stray residue classes and zero layers included; every
    # layer index shows both kinds of bad term, so a slice test that lets
    # a violating layer through loses its messages here
    rng = random.Random(7)
    seen, bad_terms = set(), set()
    for _ in range(2000):
        p, m, r = rng.choice((3, 5, 7)), rng.choice((1, 2, 3, 4)), rng.choice((1, 2, 3))
        if m % p == 0:
            continue
        polys = tuple(
            FpPolynomial.from_terms(
                p, {rng.randrange(0, 30): rng.randrange(0, p) for _ in range(rng.randint(0, 3))}
            )
            for _ in range(r)
        )
        spec = TowerSpec(p=p, m=m, r=r, x_polys=polys, residue_class=rng.randrange(m))
        want = reference_violations(spec)
        verdict = validate_spec(spec)
        assert (verdict.valid, verdict.violations) == (not want, want), spec.to_dict()
        seen.add(verdict.valid)
        bad_terms.update((v[:3], "prime" in v) for v in want if "term degree" in v)
    assert seen == {True, False}
    assert bad_terms == {(f"x_{i}", kind) for i in (1, 2, 3) for kind in (True, False)}


# invalid towers, each with the refusal of the recurrence routes
INVALID_TOWERS = [
    (
        TowerSpec(p=3, m=1, r=1, x_polys=(poly(3, (3, 1), (1, 2)),), residue_class=0),
        "invalid tower: x_1: term degree 3 is not prime to p = 3",
    ),
    (
        TowerSpec(
            p=7, m=2, r=2,
            x_polys=(poly(7, (3, 1)), poly(7, (8, 1), (9, 1))),
            residue_class=1,
        ),
        "invalid tower: x_2: term degree 8 is not 1 mod m = 2",
    ),
    (
        TowerSpec(
            p=5, m=1, r=2, x_polys=(FpPolynomial.zero(5), poly(5, (3, 1))), residue_class=0
        ),
        "invalid tower: x_1 is the zero polynomial",
    ),
    (
        TowerSpec(p=5, m=3, r=1, x_polys=(poly(5, (1, 1)),), residue_class=1),
        "invalid tower: action order m_I = 3 does not divide p - 1 = 4",
    ),
]


@pytest.mark.parametrize("spec, message", INVALID_TOWERS)
def test_predicted_jumps_invalid_tower_messages(spec, message):
    for route in (predicted_jumps, predicted_numerators):
        with pytest.raises(ValueError) as info:
            route(spec)
        assert str(info.value) == message


def test_a_tower_holds_its_verdict():
    # spec.verdict is validate_spec(spec), the same object on every read,
    # valid and invalid towers alike (validate_spec builds a new verdict
    # for each call on an invalid tower)
    specs = sweep_tower_specs() + [spec for spec, _ in INVALID_TOWERS]
    for spec in specs:
        assert spec.verdict is spec.verdict
        assert spec.verdict == validate_spec(spec), spec.to_dict()
    assert {spec.verdict.valid for spec in specs} == {True, False}


def test_a_read_verdict_leaves_the_tower_as_it_was():
    # the memo is no field: a tower whose verdict was read equals, hashes
    # and prints as an equal tower whose verdict was not
    valid = monomial_tower(7, 2, 3, r=2, second=poly(7, (23, 1)))
    for spec in [valid] + [spec for spec, _ in INVALID_TOWERS]:
        read, fresh = replace(spec), replace(spec)
        assert read.verdict == validate_spec(fresh)
        assert read == fresh and hash(read) == hash(fresh) and repr(read) == repr(fresh)
        assert read.to_dict() == fresh.to_dict()
        assert format_tower_spec(read) == format_tower_spec(fresh)


def test_sweep_specs_pinned():
    # the family built with one shared object per distinct monomial is the
    # same list, in the same order, as the one built a monomial per spec
    specs = sweep_tower_specs()
    assert len(specs) == 1222
    digest = hashlib.sha256(json.dumps([s.to_dict() for s in specs]).encode()).hexdigest()
    assert digest == "e0097b64757b9280b31ec5cb597903cb161891b07c94f3afcec3b2620168097d"


def test_random_draws_of_check_all_pinned():
    # the 200 random towers of tower-oracle-sweep and the 50 (tower, target,
    # scale) draws of deformation-random, replayed from their seeds: the
    # memoized degree and residue tables leave every rng call as it was
    rng = random.Random(20260810)
    sweep = [random_tower_spec(rng).to_dict() for _ in range(200)]
    digest = hashlib.sha256(json.dumps(sweep).encode()).hexdigest()
    assert digest == "3fefc09d99101b2336934526ed5e1425bb56eb8e24681ee10ca31e651287e26f"
    rng = random.Random(97130713)
    draws = []
    while len(draws) < 50:
        spec = random_tower_spec(rng, max_degree=16, r_choices=(1, 2))
        if spec.p not in (3, 5):
            continue
        target = checks.random_compatible_target(spec, rng)
        draws.append([spec.to_dict(), target.to_strings(), rng.randint(1, spec.p - 1)])
    digest = hashlib.sha256(json.dumps(draws).encode()).hexdigest()
    assert digest == "33ddfe09038cee3e2bf51690885056c0ee8860d72a427add27058b7f0d6d5335"


def test_sweep_fails_when_the_oracle_core_is_shifted(monkeypatch):
    # the suite compares the recurrence with the oracle: shifting the
    # oracle's answer on one sweep tower must fail it, naming that tower
    target = sweep_tower_specs()[700]
    original = towers.oracle_numerators

    def shifted(spec):
        out = original(spec)
        if spec == target:
            out[-1] += 1
        return out

    monkeypatch.setattr(towers, "oracle_numerators", shifted)
    monkeypatch.setattr(checks, "oracle_numerators", shifted)
    with pytest.raises(CheckFailure) as info:
        check_tower_oracle_sweep()
    message = str(info.value)
    assert message.startswith(f"jump mismatch on {target.to_dict()}: recurrence")
    assert f"oracle {oracle_jumps(target)}" in message
    assert f"recurrence {predicted_jumps(target)}" in message


def test_predicted_jumps_admissible_for_induced_inertia():
    # deform and random_compatible_target take a valid tower's recurrence
    # numerators as admissible without testing them: (b) from n_1 = j mod m,
    # (c) since each n_i is p n_{i-1} or a degree prime to p, (d) since
    # m_I | p - 1 makes p j = j mod m
    rng = random.Random(19)
    specs = sweep_tower_specs() + [random_tower_spec(rng, max_degree=25) for _ in range(200)]
    for spec in specs:
        inertia, n, jumps = inertia_type_of(spec), predicted_numerators(spec), predicted_jumps(spec)
        assert is_admissible(inertia, jumps).admissible, spec.to_dict()
        assert admissible_numerators(inertia, jumps, "deform") == n


def test_deform_worked_examples():
    base = monomial_tower(7, 2, 3)
    deformed = deform(base, JumpSequence.of(Fraction(5, 2)), 1)
    assert deformed.x_polys[0] == poly(7, (5, 1), (3, 1))
    unchanged = deform(base, predicted_jumps(base), 1)
    assert unchanged == base
    two_layer = TowerSpec(
        p=3, m=1, r=2, x_polys=(poly(3, (2, 1)), poly(3, (5, 1))), residue_class=0
    )
    deformed = deform(two_layer, JumpSequence.of(2, 7), 1)
    assert deformed.x_polys[1] == poly(3, (7, 1), (5, 1))
    with pytest.raises(ValueError):
        deform(base, JumpSequence.of(Fraction(7, 2)), 0)
    with pytest.raises(ValueError):
        deform(base, JumpSequence.of(2), 1)  # wrong congruence class


def test_deform_p_multiple_branch_leaves_layer():
    # target u_2 = p u_1 with raised u_1: only the first layer changes
    two_layer = TowerSpec(
        p=3, m=1, r=2, x_polys=(poly(3, (2, 1)), poly(3, (5, 1))), residue_class=0
    )
    deformed = deform(two_layer, JumpSequence.of(4, 12), 1)
    assert deformed.x_polys[0] == poly(3, (4, 1), (2, 1))
    assert deformed.x_polys[1] == two_layer.x_polys[1]
    assert predicted_jumps(deformed) == JumpSequence.of(4, 12)


def test_verify_deformation_examples():
    base = monomial_tower(7, 2, 3)
    assert verify_deformation(base, JumpSequence.of(Fraction(5, 2))).ok
    assert verify_deformation(base, predicted_jumps(base)).ok


def test_verify_deformation_randomized():
    rng = random.Random(97130713)
    done = 0
    while done < 50:
        spec = random_tower_spec(rng, max_degree=16)
        if spec.p not in (3, 5):
            continue
        target = random_compatible_target(spec, rng)
        verdict = verify_deformation(spec, target, rng.randint(1, spec.p - 1))
        assert verdict.ok, verdict.message
        done += 1


_DEFORM_SCRIPT = """
import random, sys
from wildram.checks import random_compatible_target, random_tower_spec
from wildram.ramification import JumpSequence
from wildram.towers import deform
print(sys.flags.optimize)
rng = random.Random(97130713)
for _ in range(60):
    spec = random_tower_spec(rng, max_degree=16)
    target = random_compatible_target(spec, rng)
    print(deform(spec, target, rng.randint(1, spec.p - 1)).to_dict())
    try:
        deform(spec, JumpSequence(tuple(u + 1 for u in target)), 1)
    except ValueError as exc:
        print(exc)
"""


def test_deform_output_is_the_same_under_python_O():
    # deform's checks raise, so stripping asserts with -O changes nothing
    env = dict(os.environ, PYTHONPATH=str(Path(towers.__file__).parents[1]))
    runs = [
        subprocess.run(
            [sys.executable, *flags, "-c", _DEFORM_SCRIPT],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        ).stdout.split("\n", 1)
        for flags in ([], ["-O"])
    ]
    assert [flag for flag, _ in runs] == ["0", "1"]
    assert runs[0][1] == runs[1][1] and runs[0][1].count("\n") >= 60


def test_any_nonzero_scale_gives_same_jumps():
    base = monomial_tower(5, 2, 3)
    target = JumpSequence.of(Fraction(7, 2))
    jumps = {
        predicted_jumps(deform(base, target, scale)) for scale in range(1, 5)
    }
    assert jumps == {target}


def test_residue_classes_helper():
    assert valid_residue_classes(7, 2) == [0, 1]
    assert valid_residue_classes(5, 3) == [0]
    assert valid_residue_classes(7, 3) == [0, 1, 2]


def test_file_format_round_trip():
    two_layer = TowerSpec(
        p=3, m=1, r=2, x_polys=(poly(3, (2, 1)), FpPolynomial.zero(3)), residue_class=0
    )
    text = format_tower_spec(two_layer)
    assert text == "3 1 2 0\n0 0 1\n0\n"
    assert parse_tower_spec(text) == two_layer
    assert format_tower_spec(parse_tower_spec(text)) == text


def test_file_format_rejects_malformed():
    with pytest.raises(ValueError):
        parse_tower_spec("")
    with pytest.raises(ValueError):
        parse_tower_spec("7 2 1\n0 0 0 1\n")
    with pytest.raises(ValueError):
        parse_tower_spec("7 2 2 1\n0 0 0 1\n")
    with pytest.raises(ValueError):
        parse_tower_spec("7 2 1 1\n0 0 x 1\n")
    with pytest.raises(ValueError):
        parse_tower_spec("7 2 1 1\n0 0 0 1\ntrailing\n")
