"""The benchmark's four workloads.

Each workload function takes the freshly imported package modules, the seed,
a work directory and the smoke flag, and returns a Plan: one cycle of
operations, the number of untimed warm-up cycles, and operations run once,
untimed, for the output contract only.  The seed fixes every input; the
package sees only the generated inputs.  Each operation's output is checked
against an independent oracle or a golden value; oracles that cost more
than the operation run in the warm-up cycle, and later cycles must then
reproduce the checked output exactly.

Why these four:
- group-certify: the check-all hot spot.  The psl2 layer does almost all
  of its work here and almost none elsewhere.
- tower-verify: raw towers drive the Witt carry (polynomial degrees near
  1500 at p = 13); reduced towers bypass it.
- enumerate-tails: ramification, the tail solver and the SmallGroup
  searches run nowhere else; SmallGroup is the second group engine.
- cli-check: the only workload for the cli and checks layers and for the
  JSON, exit-code and determinism contract.
"""

from __future__ import annotations

import io
import json
import os
import re
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from functools import lru_cache
from math import gcd
from random import Random


class Op:
    """One operation: run(tracer) is timed, check(output) is not.

    reset, when given, runs untimed before each run, e.g. to empty a cache.
    """

    __slots__ = ("label", "run", "check", "reset")

    def __init__(self, label, run, check, reset=None):
        self.label = label
        self.run = run
        self.check = check
        self.reset = reset


class Plan:
    def __init__(self, ops, warm_cycles=1, contract_ops=()):
        self.ops = ops
        self.warm_cycles = warm_cycles
        self.contract_ops = list(contract_ops)


# ---------------------------------------------------------------------------
# Independent oracles shared by the workloads


def odd_primes(lo, hi):
    return [n for n in range(max(3, lo), hi + 1) if n % 2 and all(n % f for f in range(3, int(n**0.5) + 1, 2))]


def valuation(n, p):
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def lower_jumps(p, m, upper):
    """Lower numbering from the slopes of the Herbrand map, written out."""
    lower = [m * upper[0]]
    for i in range(1, len(upper)):
        lower.append(lower[-1] + m * p**i * (upper[i] - upper[i - 1]))
    return lower


def hilbert_genus(order, p, m, upper):
    """(genus, divisor degree) of a one-branch-point cover of the line.

    The degree is the different exponent by Hilbert's formula, the sum of
    |G_i| - 1 over the lower filtration, and the genus follows from
    Riemann-Hurwitz; neither goes through the package's formula.
    """
    r = len(upper)
    lower = [Fraction(0)] + lower_jumps(p, m, upper)
    degree = m * p**r - 1
    for j in range(1, r + 1):
        degree += (lower[j] - lower[j - 1]) * (p ** (r - j + 1) - 1)
    genus = 1 - order + Fraction(order * degree, 2 * m * p**r)
    return genus, degree


@lru_cache(maxsize=None)
def partitions(n, k):
    """Partitions of n into exactly k positive parts."""
    if k == 0:
        return int(n == 0)
    if n < k:
        return 0
    return partitions(n - 1, k - 1) + partitions(n - k, k)


def tail_config_count(m_G, n_prim, n_new_min):
    """Configurations are pairs of partitions: new tails give sigma - 1 =
    a/m_G and primitive tails sigma = b/m_G with a, b >= 1 summing to m_G."""
    total = 0
    for n_new in range(n_new_min, m_G + 1):
        for s in range(m_G + 1):
            total += partitions(s, n_prim) * partitions(m_G - s, n_new)
    return total


def tail_configs_ok(configs, m_G, n_prim, n_new_min):
    seen = set()
    for config in configs:
        key = tuple((t.kind, t.sigma) for t in config.tails)
        prims = [t.sigma for t in config.tails if t.kind == "primitive"]
        news = [t.sigma for t in config.tails if t.kind == "new"]
        if key in seen or len(prims) != n_prim or len(news) < n_new_min:
            return False
        if sum(prims, Fraction(0)) + sum((s - 1 for s in news), Fraction(0)) != 1:
            return False
        seen.add(key)
    return len(configs) == tail_config_count(m_G, n_prim, n_new_min)


# ---------------------------------------------------------------------------
# group-certify: verify_subgroup_claims(p, ell) on a cold atlas

# cross-checked against the full subgroup lattice
SUBGROUP_COUNTS = {5: 59, 7: 179, 11: 620, 13: 942}
# claim (iii) fails at ell = 11, the small-p failure the unit tests pin
CLAIM_STATUS = {
    5: ("pass", "pass", "pass"),
    7: ("pass", "pass", "pass"),
    11: ("pass", "pass", "fail"),
    13: ("pass", "pass", "pass"),
}
CERTIFY_P = {5: (3,), 7: (3,), 11: (3, 5), 13: (3, 7)}
# with one refused op the median of the eleven is the middle ell = 11 op
OPS_PER_ELL = {5: 1, 7: 1, 11: 7, 13: 1}
REFUSED_ELLS = (17, 19, 23, 29, 31)


def group_certify(mods, seed, workdir, smoke):
    psl2 = mods.psl2
    rng = Random(seed)
    pairs = []
    for ell, k in OPS_PER_ELL.items():
        if smoke and ell > 7:
            continue
        pairs += [(rng.choice(CERTIFY_P[ell]), ell) for _ in range(k)]
    ell = rng.choice(REFUSED_ELLS)
    order = ell * (ell * ell - 1) // 2
    pairs.append((rng.choice([q for q in odd_primes(3, ell - 1) if order % q == 0]), ell))
    rng.shuffle(pairs)
    # the largest certification goes first: after smaller ones the heap's
    # fragmentation, which varies with their order, adds to its peak RSS
    pairs.sort(key=lambda pair: pair[1] != max(SUBGROUP_COUNTS))

    def certify_op(p, ell):
        def run(tr):
            if tr.enabled and ell in SUBGROUP_COUNTS:
                # same work as the call below, split so each layer gets a span
                atlas = tr.call("psl2.psl2_atlas", psl2.psl2_atlas, ell)
                subs = tr.call("psl2.subgroups", atlas.subgroups)
                tr.count("psl2.group_order", atlas.n)
                tr.count("psl2.subgroups.found", len(subs))
            return tr.call("psl2.verify_subgroup_claims", psl2.verify_subgroup_claims, p, ell)

        def check(report):
            if (report.p, report.ell) != (p, ell):
                return False
            if ell not in SUBGROUP_COUNTS:
                return report.status == "refused" and not report.claims
            return (
                report.status == "checked"
                and report.subgroup_count == SUBGROUP_COUNTS[ell]
                and tuple(c.status for c in report.claims) == CLAIM_STATUS[ell]
            )

        # every verify-group process pays the full atlas build
        return Op(f"certify({p},{ell})", run, check, reset=psl2.psl2_atlas.cache_clear)

    # the smallest certification warms the package's negligible caches
    return Plan(
        [certify_op(p, ell) for p, ell in pairs],
        warm_cycles=0,
        contract_ops=[certify_op(3, 5)],
    )


# ---------------------------------------------------------------------------
# tower-verify: reduction, recurrence against oracle, deformation, file I/O

TOWER_PRIMES = (3, 5, 7, 11, 13)
TOWERS_PER_CELL = 2  # per (p, m, r); the first one is raw
FIRST_LAYER_TOP = 60
RAW_SHIFT_DEGREE = 117  # deg(w) = 117 // p, so p deg(w) stays near 117


def _poly(Poly, rng, p, support):
    return Poly.from_terms(p, {d: rng.randint(1, p - 1) for d in support})


def make_towers(mods, rng, primes, per_cell):
    """(tower, raw or None) pairs; raw is the tower shifted by p((w, 0)).

    The first tower of each cell is raw.  Its first layer and w have a fixed
    support (only coefficients are drawn), because the cost of the carry
    follows the sizes of the sumsets of the supports.
    """
    Poly = mods.exactmath.FpPolynomial
    towers = mods.towers
    out = []
    for p in primes:
        for m in (1, 2):
            for r in (1, 2):
                for i in range(per_cell):
                    j = rng.choice(mods.checks.valid_residue_classes(p, m))
                    degs1 = [d for d in range(1, FIRST_LAYER_TOP + 1) if d % p and d % m == j]
                    raw_first = i == 0
                    support = degs1[-3:] if raw_first else [degs1[-1], *rng.sample(degs1[:-1], 2)]
                    polys = [_poly(Poly, rng, p, support)]
                    if r == 2:
                        # the top degree in the upper quarter keeps the cost of
                        # reading and reducing the layer alike across seeds
                        degs2 = [d for d in range(1, p * FIRST_LAYER_TOP + 1) if d % p and d % m == j]
                        top = rng.choice(degs2[len(degs2) * 3 // 4:])
                        polys.append(_poly(Poly, rng, p, (rng.choice(degs2[:-1]), top)))
                    tower = towers.TowerSpec(p=p, m=m, r=r, x_polys=tuple(polys), residue_class=j)
                    raw = None
                    if raw_first:
                        dw = RAW_SHIFT_DEGREE // p
                        w = _poly(Poly, rng, p, (dw - 1, dw))
                        shift = towers.witt_wp((w, Poly.zero(p)))
                        if r == 1:
                            raw_polys = (polys[0] + shift[0],)
                        else:
                            raw_polys = towers.witt_add((polys[0], polys[1]), shift)
                        raw = towers.TowerSpec(p=p, m=m, r=r, x_polys=raw_polys, residue_class=j)
                    out.append((tower, raw))
    return out


def deformation_target(mods, rng, tower):
    """A deformation-compatible target above the tower's jumps."""
    ram = mods.ramification
    base = mods.towers.predicted_jumps(tower)
    inertia = mods.towers.inertia_type_of(tower)
    candidates = []
    for t in range(1, 13):
        candidates.append(base.jumps[:-1] + (base[-1] + t,))
        if len(base) == 2:
            u1 = base[0] + t
            candidates.append((u1, max(base[1], tower.p * u1) + rng.randint(0, 3)))
    rng.shuffle(candidates)
    for jumps in candidates:
        target = ram.JumpSequence(jumps)
        if ram.deformation_compatible(inertia, base, target):
            return target
    raise ValueError(f"no deformation target above {base}")


def tower_verify(mods, seed, workdir, smoke):
    towers = mods.towers
    as_reduce = mods.exactmath.as_reduce
    rng = Random(seed)
    primes = TOWER_PRIMES[:2] if smoke else TOWER_PRIMES
    pairs = make_towers(mods, rng, primes, TOWERS_PER_CELL)
    ops = []
    for k, (tower, raw) in enumerate(pairs):
        # the recurrence reads the reduced tower; reduction and oracle get
        # the raw one when there is one
        given = raw or tower
        site = "towers.oracle_jumps.raw" if raw else "towers.oracle_jumps.reduced"

        def run(tr, tower=tower, given=given, site=site):
            reduced = tr.call("exactmath.as_reduce", as_reduce, given.x_polys[0])
            predicted = tr.call("towers.predicted_jumps", towers.predicted_jumps, tower)
            oracle = tr.call(site, towers.oracle_jumps, given)
            return reduced, predicted, oracle

        ops.append(Op(f"{site}{k}", run,
                      lambda out, first=tower.x_polys[0]: out[0] == first and out[1] == out[2]))
        if raw is None:
            target = deformation_target(mods, rng, tower)
            scale = rng.randint(1, tower.p - 1)

            def deform(tr, tower=tower, target=target, scale=scale):
                return tr.call("towers.verify_deformation", towers.verify_deformation, tower, target, scale)

            ops.append(Op(f"deform{k}", deform, lambda v, target=target: v.ok and v.predicted == target))

        for spec in (tower, raw):
            if spec is None:
                continue
            path = os.path.join(workdir, f"tower{k}{'raw' if spec is raw else ''}.txt")
            with open(path, "w", encoding="ascii") as fh:
                fh.write(towers.format_tower_spec(spec))

            def roundtrip(tr, path=path):
                with open(path, encoding="ascii") as fh:
                    text = fh.read()
                return tr.call("towers.parse_tower_spec", towers.parse_tower_spec, text)

            ops.append(Op(f"file{k}", roundtrip, lambda parsed, spec=spec: parsed == spec))
    rng.shuffle(ops)
    return Plan(ops)


# ---------------------------------------------------------------------------
# enumerate-tails: ramification, the tail solver and SmallGroup searches

ENUM_PRIMES = (3, 5, 7, 11)
ENUM_MS = (1, 2, 3, 4, 6)
# cap on m * bound per r, which keeps the grid-filter oracle near 0.1 s
ENUM_TOP = {1: 360, 2: 150, 3: 48}
SEQS_PER_SHAPE = 80
TAIL_CASES = ((6, 2), (7, 3), (8, 2), (9, 3))
# (p, r, m): generation_obstruction runs at vp_gen = r - 1 (obstructed,
# exhaustive) and at vp_gen = r.  The golden is "obstructed iff vp_gen < r":
# a wild generator (a, b) has b acting trivially, conjugating it by the
# tame generator and dividing shows <x, y> meets Z/p^r exactly in <a>.
OBSTRUCTION_GROUPS = ((3, 5, 2), (3, 4, 4), (11, 2, 2), (5, 3, 2), (7, 2, 6), (7, 2, 4), (5, 2, 8))
# (p, r, m) or ("cyclic", n), branch orders, golden.  Two orders force a
# cyclic group; (k, k, p) needs the product to reach Z/p^r outside p Z/p^r,
# which fails for r >= 2; reflections (2, 2, n) generate every D_n.
BRANCH_CASES = (
    ((7, 1, 2), (2, 2, 7), True),
    ((7, 1, 2), (2, 2, 2), False),
    ((3, 2, 2), (2, 3), False),
    (("cyclic", 12), (12, 12), True),
    ((3, 4, 2), (2, 2, 81), True),
    ((5, 2, 4), (4, 4, 5), False),
    ((7, 2, 3), (3, 3, 7), False),
    ((11, 1, 10), (10, 10, 11), True),
    ((13, 1, 12), (12, 12, 13), True),
)


def enumerate_tails(mods, seed, workdir, smoke):
    ram, tails = mods.ramification, mods.tails
    naive = mods.checks.naive_admissible_filter
    rng = Random(seed)
    ops = []

    for p in ENUM_PRIMES[:2] if smoke else ENUM_PRIMES:
        for m in ENUM_MS:
            if gcd(m, p) != 1:
                continue
            for r in (1, 2, 3):
                g = gcd(m, p - 1)
                m_I = rng.choice([d for d in range(1, g + 1) if g % d == 0])
                inertia = mods.psl2.InertiaType(p=p, r=r, m=m, m_I=m_I)
                top_max = min(60 * m, ENUM_TOP[r]) // (3 if smoke else 1)
                bound = Fraction(rng.randint(top_max * 4 // 5, top_max), m)
                ops.append(_enumerate_op(ram, naive, inertia, bound))
                # r = 3 shapes are often empty at these bounds, so genus and
                # Herbrand draw a fixed number of sequences from each r <= 2
                # shape, which keeps the mix the same for every seed
                seqs = ram.enumerate_admissible(inertia, bound) if r < 3 else []
                for seq in rng.choices(seqs, k=4 if smoke else SEQS_PER_SHAPE) if seqs else ():
                    order = 2 * m * p**r * rng.randint(1, 50)
                    ops.append(_genus_op(ram, order, inertia, seq))
                    ops.append(_herbrand_op(ram, inertia, seq))

    for m_G, n_prim in ((4, 1), (5, 2)) if smoke else TAIL_CASES:
        n_new_min = rng.randint(0, 1)

        def solve(tr, m_G=m_G, n_prim=n_prim, n_new_min=n_new_min):
            return tr.call("tails.solve_tail_configs", tails.solve_tail_configs,
                           m_G, n_prim=n_prim, n_new_min=n_new_min)

        ops.append(Op(f"tails({m_G},{n_prim})", solve,
                      lambda out, a=(m_G, n_prim, n_new_min): tail_configs_ok(out, *a)))

    for p, r, m in OBSTRUCTION_GROUPS[-2:] if smoke else OBSTRUCTION_GROUPS:
        for vp_gen in (r - 1, r):
            def obstruction(tr, args=(r, m, vp_gen, p)):
                return tr.call("tails.generation_obstruction", tails.generation_obstruction, *args)

            ops.append(Op(f"obstruction{(p, r, m, vp_gen)}", obstruction,
                          lambda out, golden=vp_gen < r: out is golden))

    for shape, orders, golden in BRANCH_CASES[:4] if smoke else BRANCH_CASES:
        def branch(tr, shape=shape, orders=orders):
            if shape[0] == "cyclic":
                group = tails.SmallGroup.cyclic(shape[1])
            else:
                group = tails.SmallGroup.semidirect(*shape)
            return tr.call("tails.branch_cycle_feasible", tails.branch_cycle_feasible, group, orders)

        ops.append(Op(f"branch{shape}{orders}", branch, lambda out, golden=golden: out is golden))

    rng.shuffle(ops)
    return Plan(ops)


def _enumerate_op(ram, naive, inertia, bound):
    reference = []

    def run(tr):
        return tr.call("ramification.enumerate_admissible", ram.enumerate_admissible, inertia, bound)

    def check(seqs):
        # the grid filter runs once, in the warm-up cycle
        if not reference:
            reference.append(naive(inertia, bound))
        return seqs == reference[0]

    return Op(f"enumerate({inertia.label()},{bound})", run, check)


def _genus_op(ram, order, inertia, seq):
    want = hilbert_genus(order, inertia.p, inertia.m, list(seq))

    def run(tr):
        return tr.call("ramification.genus", ram.genus, order, inertia, seq)

    return Op(f"genus({order},{seq})", run,
              lambda out: (out.genus, out.divisor_degree) == want and out.realizable == (want[0] >= 0))


def _herbrand_op(ram, inertia, seq):
    want = lower_jumps(inertia.p, inertia.m, list(seq))

    def roundtrip(inertia, seq):
        lower = ram.lower_from_upper(inertia, seq)
        return lower, ram.upper_from_lower(inertia, list(lower))

    def run(tr):
        return tr.call("ramification.herbrand", roundtrip, inertia, seq)

    return Op(f"herbrand({seq})", run, lambda out: list(out[0]) == want and out[1] == seq)


# ---------------------------------------------------------------------------
# cli-check: cli.main(argv) in process, stdout and stderr captured

SUITE_LINE = re.compile(r"^\s*(pass|fail|skip)\s+(\S+)\s+\((\d+\.\d+)s\)$")
HOSTILE_TOWER = "7 2 1 1\n0 x 1\n"


def cli_check(mods, seed, workdir, smoke):
    rng = Random(seed)
    psl2 = mods.psl2
    towers = mods.towers
    cases = []  # (argv, expected exit code, validator of the first payload)

    def add(argv, code, validate=None):
        cases.append(([str(a) for a in argv], code, validate))

    def pair():
        p = rng.choice((3, 5, 7, 11))
        ell = rng.choice([e for e in odd_primes(5, 200) if e != p])
        return p, ell

    for _ in range(2):
        p, ell = pair()
        a = valuation(ell * ell - 1, p)
        add(["params", "--p", p, "--ell", ell], 0,
            lambda d, ell=ell, a=a: d["order"] == ell * (ell * ell - 1) // 2 and d["a"] == a)
        p, ell = pair()
        add(["candidates", "--p", p, "--ell", ell], 0,
            lambda d, a=valuation(ell * ell - 1, p): len(d["candidates"]) == 2 * a)

    p = rng.choice((3, 5, 7))
    ell = rng.choice([e for e in odd_primes(2 * p + 7, 400) if valuation(e * e - 1, p) >= 2])
    a = valuation(ell * ell - 1, p)
    add(["triple", "--p", p, "--ell", ell], 0, lambda d, a=a: d["vp_chain"] == [0, a - 1, a])

    p = rng.choice((5, 7, 11, 13))
    n1 = rng.choice([n for n in range(1, 60, 2) if n % p])
    add(["admissible", "--p", p, "--m", 2, "--mI", 2, "--jumps", f"{n1}/2"], 0,
        lambda d: d["admissible"] is True)
    add(["admissible", "--p", p, "--m", 2, "--mI", 2, "--jumps", f"{p * rng.randrange(1, 9, 2)}/2"], 0,
        lambda d: d["admissible"] is False and d["failed"] == "c")
    order = 2 * 2 * p * rng.randint(1, 50)
    add(["genus", "--order", order, "--p", p, "--m", 2, "--mI", 2, "--r", 1, "--jumps", f"{n1}/2"], 0,
        lambda d, w=hilbert_genus(order, p, 2, [Fraction(n1, 2)]): (d["genus"], d["divisor_degree"]) == w)

    p, m, r = rng.choice((3, 5, 7)), rng.choice((1, 2)), rng.choice((1, 2))
    bound = Fraction(rng.randint(8, 20), m) if r == 1 else Fraction(rng.randint(6, 10), 1)
    inertia = psl2.InertiaType(p=p, r=r, m=m, m_I=gcd(m, p - 1))
    expected = [s.to_strings() for s in mods.checks.naive_admissible_filter(inertia, bound)]
    add(["enumerate", "--p", p, "--m", m, "--r", r, "--bound", bound], 0,
        lambda d: d["sequences"] == expected)

    p = rng.choice((3, 5, 7))
    ell = rng.choice([e for e in odd_primes(11, 200) if valuation(e * e - 1, p) >= 1])
    add(["base-sigma", "--p", p, "--ell", ell, "--m", 2, "--r", 1], 0, lambda d: d["sigma"] == ["3/2"])
    add(["base-sigma", "--p", p, "--ell", ell, "--m", 1, "--r", 1], 0,
        lambda d, s="2" if ell % 8 in (1, 7) else "3": d["sigma"] == [s])

    pairs = make_towers(mods, rng, (5,), 2)
    tower, raw = rng.choice([pair for pair in pairs if pair[1] is not None])
    tower2 = rng.choice([t for t, shifted in pairs if shifted is None and t.r == 2])
    paths = {}
    for key, spec in (("tower", tower), ("raw", raw), ("tower2", tower2)):
        paths[key] = os.path.join(workdir, f"cli-{key}.txt")
        with open(paths[key], "w", encoding="ascii") as fh:
            fh.write(towers.format_tower_spec(spec))
    jumps = towers.oracle_jumps(tower).to_strings()
    add(["tower-predict", "--spec", paths["tower"]], 0, lambda d: d["valid"] and d["jumps"] == jumps)
    add(["tower-oracle", "--spec", paths["raw"]], 0, lambda d: d["jumps"] == jumps)
    add(["tower-oracle", "--spec", paths["tower2"]], 0,
        lambda d: d["agrees_with_recurrence"] is True
        and d["jumps"] == towers.oracle_jumps(tower2).to_strings())
    target = deformation_target(mods, rng, tower2)
    add(["deform", "--spec", paths["tower2"], "--target", ",".join(target.to_strings()),
         "--scale", rng.randint(1, tower2.p - 1), "--out", os.path.join(workdir, "cli-deformed.txt")], 0,
        lambda d: d["ok"] is True and d["predicted"] == target.to_strings())

    m_G, n_prim = rng.randint(2, 5), rng.randint(1, 2)
    count = tail_config_count(m_G, n_prim, 0)
    add(["tails", "--mG", m_G, "--prim", n_prim], 0,
        lambda d: d["count"] == count and all(_config_sum(c) == 1 for c in d["configurations"]))
    p, m_G = rng.choice((3, 5, 7)), rng.randint(1, 4)
    sigma = Fraction(rng.randint(1, 4 * m_G), m_G)
    allowed = [r for r in range(1, 20) if Fraction(p ** (r - 1), m_G) <= sigma]
    add(["infer", "--sigma", sigma, "--p", p, "--mG", m_G], 0,
        lambda d: d["allowed_r"] == allowed and d["abelian_possible"] == (sigma.denominator == 1))

    for ell in (5, 7):
        add(["verify-group", "--p", 3, "--ell", ell], 0,
            lambda d, ell=ell: d["subgroup_count"] == SUBGROUP_COUNTS[ell]
            and [c["status"] for c in d["claims"]] == list(CLAIM_STATUS[ell]))
    ell = rng.choice(REFUSED_ELLS)
    add(["verify-group", "--p", 3, "--ell", ell], 0, lambda d: d["status"] == "refused")

    if not smoke:
        add(["check-all", "--budget-subgroup", 1000], 0,
            lambda d: (d["passed"], d["skipped"], d["failed"]) == (len(d["results"]) - 1, 1, 0)
            and [r["check"] for r in d["results"] if r["status"] == "skip"] == ["subgroup-claims-1092"])

    # bounded hostile inputs: each a usage error with nothing on stdout
    bad = os.path.join(workdir, "cli-malformed.txt")
    with open(bad, "w", encoding="ascii") as fh:
        fh.write(HOSTILE_TOWER)
    add(["infer", "--sigma", "3/0", "--p", 7, "--mG", 2], 2)
    add(["params", "--p", rng.choice((9, 15, 21, 25)), "--ell", 13], 2)
    p = rng.choice((5, 7, 11))
    add(["verify-group", "--p", p, "--ell", p], 2)
    add(["tower-predict", "--spec", bad], 2)
    add(["tower-oracle", "--spec", os.path.join(workdir, "cli-missing.txt")], 2)
    add(["tails", "--mG", 0, "--prim", 1], 2)

    ops = [_cli_op(mods, argv, code, validate) for argv, code, validate in cases]
    rng.shuffle(ops)
    # exit code 1 costs a full PSL2(F_11) certification, so it runs once, untimed
    contract = [] if smoke else [_cli_op(
        mods, ["verify-group", "--p", "3", "--ell", "11"], 1,
        lambda d: [c["status"] for c in d["claims"]] == list(CLAIM_STATUS[11]))]
    return Plan(ops, contract_ops=contract)


def _config_sum(config):
    return sum(Fraction(t["sigma"]) - (t["kind"] == "new") for t in config)


def _cli_op(mods, argv, code, validate):
    main = mods.cli.main
    first = []

    def run(tr):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            exit_code = tr.call(f"cli.{argv[0]}", main, list(argv))
        if tr.enabled and argv[0] == "check-all":
            for line in err.getvalue().splitlines():
                match = SUITE_LINE.match(line)
                if match:
                    status, suite, seconds = match.groups()
                    tr.record(f"checks.{suite}", float(seconds), failed=status == "fail")
        return exit_code, out.getvalue(), err.getvalue()

    def check(output):
        exit_code, out, err = output
        if exit_code != code or "Traceback" in err:
            return False
        if code == 2:
            return out == "" and err.startswith("error:")
        if first:
            return out == first[0]
        first.append(out)
        return validate(json.loads(out))

    return Op(" ".join(argv), run, check, reset=mods.psl2.psl2_atlas.cache_clear)


WORKLOADS = {
    "group-certify": group_certify,
    "tower-verify": tower_verify,
    "enumerate-tails": enumerate_tails,
    "cli-check": cli_check,
}
