"""The shared finite-group core on SmallGroup and PSL2(F_ell)."""

import gc
import hashlib
import json
from dataclasses import replace
from itertools import product
from math import gcd
from pathlib import Path
from random import Random

import pytest

from wildram import cli
from wildram.exactmath import is_prime, prime_factors, vp
from wildram.groups import ORDER_LIMIT, Subgroup, _conjugate
from wildram.psl2 import Psl2Atlas, _mat_mul, primitive_root, psl2_atlas
from wildram.tails import SmallGroup, generation_obstruction

GOLDEN = Path(__file__).parent / "golden"

# every SmallGroup shape that checks.py and the tests build
SHAPES = [
    ("semidirect", (3, 2, 2)),
    ("semidirect", (3, 2, 2, 1)),
    ("semidirect", (3, 3, 2)),
    ("semidirect", (5, 1, 2)),
    ("semidirect", (5, 1, 4)),
    ("semidirect", (7, 1, 1)),
    ("semidirect", (7, 1, 2)),
    ("semidirect", (7, 1, 3)),
    ("cyclic", (9,)),
    ("cyclic", (12,)),
]

# the Z/p^r x| Z/m shapes, (p, r, m), of the generation obstruction searches
# the benchmark's enumerate-tails workload runs
OBSTRUCTION_SHAPES = [
    ("semidirect", args)
    for args in ((3, 5, 2), (3, 4, 4), (11, 2, 2), (5, 3, 2), (7, 2, 6), (7, 2, 4), (5, 2, 8))
]


def build(kind, args):
    return getattr(SmallGroup, kind)(*args)


def _assert_group_axioms(g):
    """Identity, each row of the Cayley table a permutation, inverses and
    element orders, all read through ``mul``."""
    n, mul, e = g.n, g.mul, g.identity_id
    for x in range(n):
        assert mul(e, x) == x and mul(x, e) == x
        assert sorted(mul(x, y) for y in range(n)) == list(range(n))
        assert mul(x, g.inverses[x]) == e and mul(g.inverses[x], x) == e
        acc, k = x, 1
        while acc != e:
            acc, k = mul(acc, x), k + 1
        assert g.orders[x] == k


@pytest.mark.parametrize("kind,args", SHAPES)
def test_table_axioms(kind, args):
    g = build(kind, args)
    _assert_group_axioms(g)
    # the product against residue-pair arithmetic on ids a + q*b
    q, m = (args[0], 1) if kind == "cyclic" else (args[0] ** args[1], args[2])
    u = g.action_unit
    assert q * m == g.n
    for x, y in product(range(g.n), repeat=2):
        (b1, a1), (b2, a2) = divmod(x, q), divmod(y, q)
        assert g.mul(x, y) == (a1 + pow(u, b1, q) * a2) % q + q * ((b1 + b2) % m)


def _unit_order(u, q):
    """The multiplicative order of the unit u mod q, by walking u, u^2, ...
    until 1."""
    k, x = 1, u % q
    while x != 1:
        x, k = x * u % q, k + 1
    return k


@pytest.mark.parametrize("kind,args", [shape for shape in SHAPES if shape[0] == "semidirect"])
def test_semidirect_acts_by_the_least_unit_of_its_order(kind, args):
    p, r, m = args[:3]
    m_I = args[3] if len(args) > 3 else gcd(m, p - 1)
    q, unit = p**r, build(kind, args).action_unit
    assert _unit_order(unit, q) == m_I
    assert all(_unit_order(u, q) != m_I for u in range(1, unit) if u % p)


def test_primitive_root_is_the_least_unit_of_full_order():
    for ell in filter(is_prime, range(3, 2000)):
        g = primitive_root(ell)
        assert _unit_order(g, ell) == ell - 1
        assert all(_unit_order(h, ell) < ell - 1 for h in range(2, g))


@pytest.mark.parametrize("kind,args", OBSTRUCTION_SHAPES)
def test_small_group_products_match_mul(kind, args):
    g = build(kind, args)
    xs = list(range(g.n))
    for y in range(g.n):
        assert g.products(xs, y) == [g.mul(x, y) for x in xs]


def _matrix_oracle(atlas):
    """The product, as ids, by _mat_mul and a lookup of the sign-canonical
    form (of M and -M the lexicographically first is listed), and the
    conjugate g x g^-1 by two such products with g^-1 the adjugate of g."""
    ell, elements = atlas.ell, atlas.elements
    assert all(m < tuple(-v % ell for v in m) for m in elements)
    index = {}  # both signs of each listed matrix
    for i, m in enumerate(elements):
        index[m] = index[tuple(-v % ell for v in m)] = i
    lookup = index.__getitem__

    def times(x, y):
        return lookup(_mat_mul(elements[x], elements[y], ell))

    def conjugate(g, x):
        a, b, c, d = elements[g]
        inverse = (d, -b % ell, -c % ell, a)
        return lookup(_mat_mul(_mat_mul(elements[g], elements[x], ell), inverse, ell))

    return times, conjugate


def _assert_kernels_match_the_matrices(atlas, pairs):
    """mul on each pair (x, y), and products and conjugates on the xs of
    every y, each against the matrix oracle."""
    times, conjugate = _matrix_oracle(atlas)
    xs_of = {}
    for x, y in pairs:
        assert atlas.mul(x, y) == times(x, y)
        xs_of.setdefault(y, []).append(x)
    for y, xs in xs_of.items():
        assert atlas.products(xs, y) == [times(x, y) for x in xs]
        assert atlas.conjugates(y, xs) == [conjugate(y, x) for x in xs]


@pytest.mark.parametrize("ell", [5, 7])
def test_psl2_axioms_and_matrix_products(ell):
    g = psl2_atlas(ell)
    _assert_group_axioms(g)
    _assert_kernels_match_the_matrices(g, product(range(g.n), repeat=2))


@pytest.mark.parametrize("ell", [13, 43])
def test_psl2_kernels_on_random_pairs(ell):
    g = Psl2Atlas(ell)  # a private atlas: psl2_atlas keeps one
    rng = Random(ell)
    pairs = [(rng.randrange(g.n), rng.randrange(g.n)) for _ in range(10**5)]
    _assert_kernels_match_the_matrices(g, pairs)


def _nested_loop_elements(ell):
    """PSL2(F_ell) as the atlas first enumerated it, which fixed the ids:
    (a, b, c) in lexicographic order, d solved from ad - bc = 1 (every d
    when a = 0), each matrix kept unless its negative was kept before."""
    kept, elements = set(), []
    for a, b, c in product(range(ell), repeat=3):
        if a:
            mats = [(a, b, c, (1 + b * c) * pow(a, ell - 2, ell) % ell)]
        elif b and c == -pow(b, ell - 2, ell) % ell:
            mats = [(a, b, c, d) for d in range(ell)]
        else:
            continue
        for m in mats:
            if m not in kept:
                kept.update((m, tuple(-v % ell for v in m)))
                elements.append(m)
    return elements


def test_psl2_ids_are_those_of_the_nested_loop_enumeration():
    for ell in range(3, 44, 2):
        if is_prime(ell):
            atlas = Psl2Atlas(ell)
            assert atlas.elements == _nested_loop_elements(ell), ell
            assert atlas.elements[atlas.identity_id] == (1, 0, 0, 1)


def test_cyclic_orders_and_inverses():
    g = SmallGroup.cyclic(ORDER_LIMIT)  # ids are the residues a mod n
    n = g.n
    assert g.orders == [n // gcd(a, n) for a in range(n)]
    assert g.inverses == [-a % n for a in range(n)]


def test_size_cap_refuses_the_table():
    # one order limit for both group models, PSL2(F_43)'s order
    assert ORDER_LIMIT == 39732
    with pytest.raises(ValueError, match="exceeds the order limit 39732"):
        SmallGroup.semidirect(3, 10, 1)  # 59049 elements
    with pytest.raises(ValueError, match="exceeds the order limit 39732"):
        SmallGroup.cyclic(ORDER_LIMIT + 1)
    assert SmallGroup.cyclic(ORDER_LIMIT).n == ORDER_LIMIT
    assert SmallGroup.semidirect(3, 7, 1).n == 2187  # refused by the old 2000 cap
    assert SmallGroup.semidirect(3, 9, 1).n == 19683  # refused by the old 12180 limit


@pytest.mark.parametrize(
    "args,count",
    [
        # D_9: one subgroup per divisor d of 9 (the rotations) plus 9/d
        # dihedral subgroups of order 2d, tau(9) + sigma(9) = 3 + 13
        ((3, 2, 2), 16),
        # Z/7 x| Z/3: trivial, Z/7, seven Sylow 3-subgroups, whole
        ((7, 1, 3), 10),
    ],
)
def test_subgroup_search_on_small_groups(args, count):
    g = SmallGroup.semidirect(*args)
    assert len(g.subgroups()) == count
    assert g.three_generator_stability()


@pytest.mark.parametrize(
    "group",
    [lambda: Psl2Atlas(7), lambda: SmallGroup.semidirect(3, 2, 2)],
    ids=["psl2-7", "dihedral-9"],
)
def test_certificate_reuses_the_search_conjugation_maps(group, monkeypatch):
    # the search builds one conjugation map over all n ids per generator of
    # the group; the certificate reads the same maps and builds none
    g = group()
    g.subgroups()
    lengths = []
    conjugates = g.conjugates

    def counted(h, xs):
        xs = list(xs)
        lengths.append(len(xs))
        return conjugates(h, xs)

    monkeypatch.setattr(g, "conjugates", counted)
    assert g.three_generator_stability()
    assert lengths and g.n not in lengths


def _all_pairs_subgroups(g):
    """The closure of every pair of cyclic subgroups, in cyclic_subgroups()
    order; a new closure keeps the first pair that reached it, and a pair
    nested as sets is skipped.  Closures
    are taken here, on the columns x -> xs of the generators s, not by
    ``closure_ids``."""
    n, e, whole_ids = g.n, g.identity_id, tuple(range(g.n))
    columns = {}

    def closure(gens):  # stops once past n/2, where Lagrange forces the whole group
        for s in gens:
            if s not in columns:
                columns[s] = [g.mul(x, s) for x in range(n)]
        cols = [columns[s] for s in gens]
        members, frontier = {e}, [e]
        while frontier and 2 * len(members) <= n:
            frontier = {col[x] for col in cols for x in frontier} - members
            members |= frontier
        return tuple(sorted(members)) if 2 * len(members) <= n else whole_ids

    # built here, not taken from subgroups(), which this oracle checks
    whole = Subgroup(whole_ids, ())
    found = {whole_ids: whole}
    cyclic = g.cyclic_subgroups()
    for sub in cyclic:
        found.setdefault(sub.ids, sub)
    for i, ci in enumerate(cyclic):
        members = set(ci.ids)
        for cj in cyclic[i + 1 :]:
            if members <= set(cj.ids) or members >= set(cj.ids):
                continue
            ids = closure(ci.generators + cj.generators)
            if len(ids) == g.n:
                continue
            if ids not in found:
                found[ids] = Subgroup(ids, ci.generators + cj.generators)
    return sorted(found.values(), key=lambda s: (s.size, s.ids))


def _all_pairs_stability(g):
    """The unreduced certificate: closing any listed subgroup with any
    cyclic subgroup not inside it gives a listed subgroup.  A listed
    subgroup is closed on the generators the all-pairs walk reached it
    from, not on anything subgroups() records."""
    generators = {s.ids: s.generators for s in _all_pairs_subgroups(g)}
    listed = {s.ids for s in g.subgroups()}
    for sub in g.subgroups():
        members = set(sub.ids)
        for cyc in g.cyclic_subgroups():
            if members.issuperset(cyc.ids):
                continue
            if g.closure_ids(generators[sub.ids] + cyc.generators) not in listed:
                return False
    return True


def _all_pairs_closed(g):
    """The unreduced closedness test: every product of two members and
    every inverse of a member stays in the listed subgroup."""
    for sub in g.subgroups():
        members = set(sub.ids)
        for a in sub.ids:
            if g.inverses[a] not in members:
                return False
            if any(g.mul(a, b) not in members for b in sub.ids):
                return False
    return True


def _assert_matches_all_pairs(g):
    """The same subgroups in the same order, carrying no generators; a
    non-cyclic one's first generating pair, searched on demand, is the pair
    the all-pairs walk closed it from; and the certificate passes."""
    expected = _all_pairs_subgroups(g)
    subs = g.subgroups()
    assert [s.ids for s in subs] == [s.ids for s in expected]
    assert all(s.generators == () for s in subs)
    for sub, oracle in zip(subs, expected):
        if len(oracle.generators) == 2:
            assert g._first_generating_pair(sub.ids) == oracle.generators, sub.ids
    assert g.three_generator_stability()
    assert _all_pairs_closed(g)


@pytest.mark.parametrize("kind,args", SHAPES)
def test_subgroups_match_all_pairs_on_small_groups(kind, args):
    g = build(kind, args)
    _assert_matches_all_pairs(g)
    assert _all_pairs_stability(g)


@pytest.mark.parametrize("ell,count", [(5, 59), (7, 179), (11, 620)])
def test_subgroups_match_all_pairs_on_psl2(ell, count):
    atlas = psl2_atlas(ell)
    _assert_matches_all_pairs(atlas)
    assert len(atlas.subgroups()) == count
    if ell < 11:  # the unreduced certificate closes 147357 pairs on PSL2(F_11)
        assert _all_pairs_stability(atlas)


def _subgroup_digest(atlas):
    """sha256 of the subgroup list as (ids, class_number) pairs; CI compares
    it with the same golden at every prime ell from 5 to 43."""
    pairs = [(s.ids, s.class_number) for s in atlas.subgroups()]
    return hashlib.sha256(repr(pairs).encode()).hexdigest()


@pytest.mark.parametrize("ell", [5, 7, 11, 13])
def test_subgroup_list_matches_its_golden_digest(ell):
    # the list, its order and every class number against the recorded
    # digests
    golden = json.loads((GOLDEN / "psl2-subgroup-digests.json").read_text(encoding="ascii"))
    assert _subgroup_digest(psl2_atlas(ell)) == golden[str(ell)]


def _conjugates(g, sub):
    mul, inv = g.mul, g.inverses
    return {tuple(sorted(mul(mul(a, x), inv[a]) for x in sub.ids)) for a in range(g.n)}


@pytest.mark.parametrize("size", [7, 24])
def test_certificates_fail_on_a_list_with_subgroups_dropped(size):
    g = Psl2Atlas(7)  # a private atlas: the list is edited below
    full = g.subgroups()
    sub = next(s for s in full if s.size == size)
    conjugates = _conjugates(g, sub)
    assert len(conjugates) > 1
    for dropped in (conjugates, {sub.ids}):
        g._subgroups = [s for s in full if s.ids not in dropped]
        assert not g.three_generator_stability()
        assert not _all_pairs_stability(g)


def test_certificate_fails_on_a_damaged_list():
    # each damage returns False, never raises; a damaged member of a class
    # is caught whether it is met first in list order or later
    g = Psl2Atlas(7)  # a private atlas: the list is edited below
    full = g.subgroups()
    assert g.three_generator_stability()
    first = next(k for k, s in enumerate(full) if s.size == 24)
    number = full[first].class_number
    later = next(k for k, s in enumerate(full) if k > first and s.class_number == number)
    other = next(s.class_number for s in full if s.size == 21)
    outside = max(set(range(g.n)) - set(full[first].ids))
    assert outside > max(full[first].ids)

    def damaged(k, **changes):
        return full[:k] + [replace(full[k], **changes)] + full[k + 1 :]

    for k in (first, later):
        largest = max(full[k].ids)
        # its largest id removed, or swapped for the largest id outside the
        # first member: no longer a subgroup; for the first member, the
        # generators picked from the swapped ids close to the true subgroup
        for ids in (full[k].ids[:-1], full[k].ids[:-1] + (outside,)):
            assert largest not in ids
            g._subgroups = damaged(k, ids=ids)
            assert not g.three_generator_stability(), (k, ids)
            assert not _all_pairs_closed(g)
        # a member, the first of its class or a later one, with another
        # class's number
        g._subgroups = damaged(k, class_number=other)
        assert not g.three_generator_stability(), k
        assert _all_pairs_closed(g)  # the product test cannot see it
    # two classes sharing a number: the size-21 class takes that of the S4s
    g._subgroups = [replace(s, class_number=number) if s.class_number == other else s for s in full]
    assert not g.three_generator_stability()
    g._subgroups = full
    assert g.three_generator_stability()


def test_certificate_closes_the_generators_it_picks():
    # in an abelian group every set of ids is its own conjugacy class, so a
    # listed set that is no subgroup, alone in its class and with every
    # subgroup still listed, is seen only by the generators picked from it:
    # a subgroup less its largest id, where they generate a group of
    # another order and the walk refuses, or with that id swapped for the
    # largest one outside it, where they close to the subgroup
    g = SmallGroup(3, 6, 1)  # Z/3 x Z/6, the trivial action
    full = g.subgroups()
    assert all(s.class_number == k for k, s in enumerate(full))
    sub = next(s for s in full if s.size == 9)
    outside = max(set(range(g.n)) - set(sub.ids))
    for ids in (sub.ids[:-1], sub.ids[:-1] + (outside,)):
        listed = sorted([s.ids for s in full] + [ids], key=lambda x: (len(x), x))
        g._subgroups = [Subgroup(x, class_number=k) for k, x in enumerate(listed)]
        assert not g.three_generator_stability(), ids
        assert not _all_pairs_closed(g)


# -- the conjugacy classes the subgroup search records


def _classes(g):
    """The recorded classes, each a list of listed subgroups in list order."""
    classes = {}
    for sub in g.subgroups():
        classes.setdefault(sub.class_number, []).append(sub)
    return classes


def _make(kind, args):
    return psl2_atlas(*args) if kind == "psl2" else build(kind, args)


def _primes(g):
    """The odd primes of the group order, but ell on PSL2(F_ell)."""
    return [p for p in prime_factors(g.n) if p not in (2, getattr(g, "ell", None))]


CLASS_GROUPS = [("psl2", (ell,)) for ell in (5, 7, 11, 13)] + SHAPES


@pytest.mark.parametrize("kind,args", CLASS_GROUPS)
def test_recorded_classes_are_the_conjugacy_classes(kind, args):
    g = _make(kind, args)
    subs = g.subgroups()
    classes = _classes(g)
    # numbered 0, 1, ... by first member in list order, and a partition
    assert list(classes) == list(range(len(classes)))
    # only the listed records carry a class
    assert all(c.class_number is None for c in g.cyclic_subgroups())
    assert sum(len(members) for members in classes.values()) == len(subs)
    # each class is the conjugacy class of its first member, closed here
    # under conjugation by a generating set with maps built by this test
    mul, inv = g.mul, g.inverses
    conjugators = [
        (a, [mul(mul(a, x), inv[a]) for x in range(g.n)]) for a in g._generating_set(g.n)
    ]
    for members in classes.values():
        expected, _ = g._class_walk(members[0].ids, conjugators, _conjugate)
        assert sorted(s.ids for s in members) == sorted(expected), members[0]


@pytest.mark.parametrize("kind,args", CLASS_GROUPS)
def test_class_table_is_the_listed_classes(kind, args):
    # the table the search records, read before the list is built, against
    # the classes of subgroups(): the count, each class's first member in
    # list order as the same record, and each class's length
    g = Psl2Atlas(*args) if kind == "psl2" else build(kind, args)
    table = g.subgroup_classes()
    assert g._subgroups is None
    subs = g.subgroups()
    assert g._found is None  # the list replaces the search's dict
    classes = _classes(g)
    assert sum(length for _, length in table) == len(subs)
    assert len(table) == len(classes)
    for (first, length), members in zip(table, classes.values()):
        assert first is members[0], first.ids
        assert length == len(members), first.ids
    assert g.subgroup_classes() is table


@pytest.mark.parametrize("kind,args", [("psl2", (7,))] + SHAPES)
def test_conjugacy_class_matches_conjugation_by_every_element(kind, args):
    # the closure under a generating set's maps against g H g^-1 for every g
    # (each member reached once, the subgroup itself first)
    g = _make(kind, args)
    conjugators = g._conjugators()
    for sub in g.subgroups():
        members, _ = g._class_walk(sub.ids, conjugators, _conjugate)
        assert members[0] == sub.ids and len(set(members)) == len(members)
        assert set(members) == _conjugates(g, sub), sub.ids


@pytest.mark.parametrize("kind,args", CLASS_GROUPS)
def test_claim_predicates_are_constant_on_classes(kind, args):
    g = _make(kind, args)
    subs = g.subgroups()
    classes = _classes(g)
    for p in _primes(g):
        predicates = [
            g.is_abelian_subgroup,
            lambda s: g.semidirect_p_form(s, p),
            lambda s: g.is_quasi_p(s, p),
            lambda s: g.contains_dihedral(s, p),
        ]
        for predicate in predicates:
            for members in classes.values():
                assert len({predicate(s) for s in members}) == 1, (p, members[0])


@pytest.mark.parametrize("kind,args", CLASS_GROUPS)
def test_contains_dihedral_matches_the_listed_dihedrals(kind, args):
    # an order-p element and an involution inverting it, against "a listed
    # nonabelian subgroup of order 2p lies inside", on every listed subgroup
    g = _make(kind, args)
    subs = g.subgroups()
    for p in _primes(g):
        dihedrals = [set(s.ids) for s in subs if s.size == 2 * p and not g.is_abelian_subgroup(s)]
        for sub in subs:
            members = set(sub.ids)
            expected = any(d <= members for d in dihedrals)
            assert g.contains_dihedral(sub, p) == expected, (p, sub.ids)


# PSL2 and every dihedral shape, Z/p^r x| Z/2 with Z/2 acting by inversion
INVOLUTION_GROUPS = [("psl2", (7,)), ("psl2", (11,))] + [
    (kind, args) for kind, args in SHAPES if kind == "semidirect" and args[2:] == (2,)
]


@pytest.mark.parametrize("kind,args", INVOLUTION_GROUPS)
def test_two_involutions_generate_a_dihedral_group(kind, args):
    # closure_ids against an identity of every group: two distinct
    # involutions x, y generate the dihedral group of order 2 ord(xy)
    g = _make(kind, args)
    involutions = [x for x in range(g.n) if g.orders[x] == 2]
    pairs = [(x, y) for i, x in enumerate(involutions) for y in involutions[i + 1 :]]
    assert pairs
    for x, y in pairs:
        assert len(g.closure_ids((x, y))) == 2 * g.orders[g.mul(x, y)], (x, y)


def test_semidirect_p_form_on_a_group_of_order_p():
    # Z/7 x| Z/1: the p-elements generate the whole group
    g = SmallGroup.semidirect(7, 1, 1)
    whole = Subgroup(tuple(range(g.n)), ())
    assert g.semidirect_p_form(whole, 7)
    assert g.is_quasi_p(whole, 7)


def _brute_obstruction(p, r, m, vp_gen):
    """Every element pair, multiplied by the defining formula on (a, b)."""
    g = SmallGroup.semidirect(p, r, m)
    q, u = p**r, g.action_unit

    def mul(x, y):
        return ((x[0] + pow(u, x[1], q) * y[0]) % q, (x[1] + y[1]) % m)

    elements = list(product(range(q), range(m)))
    one = (0, 0)

    def order(x):
        acc, k = x, 1
        while acc != one:
            acc, k = mul(acc, x), k + 1
        return k

    def generated(gens):
        seen, frontier = {one}, [one]
        while frontier:
            frontier = [mul(x, s) for x in frontier for s in gens]
            frontier = [y for y in set(frontier) if y not in seen]
            seen.update(frontier)
        return len(seen)

    orders = {x: order(x) for x in elements}
    wild = [x for x in elements if orders[x] % p == 0 and vp(orders[x], p) <= vp_gen]
    tame = [y for y in elements if orders[y] % p != 0]
    return not any(generated((x, y)) == q * m for x in wild for y in tame)


@pytest.mark.parametrize("p,r,m", [(3, 2, 2), (3, 3, 2), (5, 1, 4), (7, 1, 3)])
def test_generation_obstruction_matches_all_pairs(p, r, m):
    for vp_gen in range(r + 1):
        assert generation_obstruction(r, m, vp_gen, p) is _brute_obstruction(p, r, m, vp_gen)


# -- the whole-group test of the extension step, against BFS closure


def _extension_generating_sets(ell):
    """Every generating set the extension step closes on PSL2(F_ell), in the
    subgroup search and in the three-generator certificate, with the
    verdict of _proves_whole on each (a private atlas, so no other test
    shares the recording)."""
    g = Psl2Atlas(ell)
    seen = []

    def record(gens):
        verdict = Psl2Atlas._proves_whole(g, gens)
        seen.append((tuple(gens), verdict))
        return verdict

    g._proves_whole = record
    g.subgroups()
    assert g.three_generator_stability()
    return g, seen


@pytest.mark.parametrize("ell", [3, 5, 7, 11])
def test_proves_whole_matches_closure_on_every_extension(ell):
    g, seen = _extension_generating_sets(ell)
    assert {verdict for _, verdict in seen} == {True, False}
    for gens, verdict in seen:
        # a True verdict is never false, and every whole closure is proven
        assert verdict == (len(g.closure_ids(gens)) == g.n), gens


@pytest.mark.parametrize("ell", [13, 17])
def test_proves_whole_on_random_generating_sets(ell):
    g = psl2_atlas(ell)
    proper = [s for s in g.subgroups() if 1 < s.size < g.n]
    rng = Random(ell)
    wholes = 0
    for k in range(200):
        size = 2 + k % 2
        # half from the whole group, half from inside a listed proper subgroup
        ids = range(g.n) if k < 100 else rng.choice(proper).ids
        gens = [rng.choice(ids) for _ in range(size)]
        whole = len(g.closure_ids(gens)) == g.n
        assert g._proves_whole(gens) == whole, gens
        wholes += whole
    assert 50 <= wholes <= 100


@pytest.mark.parametrize("ell", [11, 13])
def test_proves_whole_never_calls_a_large_proper_subgroup_whole(ell):
    g = psl2_atlas(ell)
    largest = sorted(g.subgroups(), key=lambda s: s.size)[-4:-1]
    assert all(s.size < g.n for s in largest)
    for sub in largest:
        gens = tuple(_greedy_generators(g, sub.ids))
        assert not g._proves_whole(gens)
        assert not g._proves_whole(sub.ids[:4] + gens)


def _schreier_oracle(g, gens):
    """The orbit of infinity (None) on P^1(F_ell) under gens, breadth first,
    and its Schreier generators other than the identity, in (point,
    generator) order: trans(y)^-1 x trans(o) for each edge o -> y = x(o)
    that does not reach y first, with the transversal built as each point
    is reached and products taken on the matrices."""
    ell, elements, identity = g.ell, g.elements, g.identity_id
    times, _ = _matrix_oracle(g)

    def image(x, z):
        a, b, c, d = elements[x]
        num, den = (a, c) if z is None else (a * z + b, (c * z + d) % ell)
        return num * pow(den, -1, ell) % ell if den else None

    trans, points, edges = {None: identity}, [None], []
    for o in points:
        for x in gens:
            y = image(x, o)
            if y in trans:
                edges.append((o, x, y))
            else:
                trans[y] = times(x, trans[o])
                points.append(y)
    schreier = [times(g.inverses[trans[y]], times(x, trans[o])) for o, x, y in edges]
    return points, [s for s in schreier if s != identity]


@pytest.mark.parametrize("ell", [5, 7, 11])
def test_schreier_generators_generate_the_stabilizer_of_infinity(ell):
    # Schreier's lemma on the matrices of K = <gens>: the orbit of infinity,
    # read here off every member (a/c, or infinity where c = 0), is short
    # exactly when the pass returns None; otherwise the yielded elements
    # are the oracle's, in its order, and generate K_inf, the members with
    # lower-left entry 0
    g = psl2_atlas(ell)
    elements = g.elements
    proper = [s for s in g.subgroups() if 1 < s.size < g.n]
    rng = Random(ell)
    outcomes = set()
    for k in range(120):
        # half from the whole group, half from inside a listed proper subgroup
        ids = range(g.n) if k % 2 else rng.choice(proper).ids
        gens = [rng.choice(ids) for _ in range(2 + k // 2 % 2)]
        members = g.closure_ids(gens)
        orbit = set()
        for x in members:
            a, _, c, _ = elements[x]
            orbit.add(a * pow(c, -1, ell) % ell if c else ell)
        points, expected = _schreier_oracle(g, gens)
        assert len(points) == len(orbit), gens
        schreier = g._schreier_generators(gens)
        outcomes.add(schreier is None)
        if len(orbit) <= ell:
            assert schreier is None, gens
        else:
            yielded = list(schreier)
            stabilizer = tuple(x for x in members if elements[x][2] == 0)
            assert yielded == expected and g.closure_ids(yielded) == stabilizer, gens
    assert outcomes == {True, False}


def test_the_orbit_pass_leaves_no_reference_cycles():
    # what each class walk and each _proves_whole call builds (parent map,
    # edges, the Schreier generators and their transversal) is freed by
    # reference counting, not left for the cyclic collector, on PSL2 and on
    # a SmallGroup
    groups = [Psl2Atlas(7), SmallGroup.semidirect(3, 2, 2)]
    gc.collect()
    gc.disable()
    try:
        for g in groups:
            g.subgroups()
            assert g.three_generator_stability()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_schreier_generator_that_moves_infinity_is_an_internal_error(monkeypatch, capsys):
    # every Schreier generator must fix infinity; one that does not, here
    # z -> -1/z, raises instead of entering the order bound, and the CLI
    # reports it as an internal fault: one stderr line, no stdout, exit 2
    def moving_infinity(atlas, gens):
        yield 0

    g = Psl2Atlas(7)
    assert g.elements[0] == (0, 1, 6, 0)
    whole = next(gens for gens, verdict in _extension_generating_sets(7)[1] if verdict)
    monkeypatch.setattr(Psl2Atlas, "_schreier_generators", moving_infinity)
    with pytest.raises(RuntimeError, match=r"Schreier generator \(0, 1, 6, 0\) .* does not fix infinity"):
        g._proves_whole(whole)
    psl2_atlas.cache_clear()
    try:
        code = cli.main(["verify-group", "--p", "3", "--ell", "7"])
    finally:
        psl2_atlas.cache_clear()
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("internal error: PSL2(F_7): the Schreier generator (0, 1, 6, 0)")
    assert captured.err.endswith(" does not fix infinity\n") and captured.err.count("\n") == 1


def test_schreier_generators_forced_to_the_identity_prove_nothing(monkeypatch):
    # with every Schreier generator the identity the order bound never
    # passes n/2, so _proves_whole says False and every closure of the
    # search is searched: the list still matches the all-pairs oracle
    def identities(atlas, gens):
        for _ in range(atlas.ell + 1):
            yield atlas.identity_id

    g = Psl2Atlas(7)  # a private atlas, as the search runs under the patch
    whole = next(gens for gens, verdict in _extension_generating_sets(7)[1] if verdict)
    monkeypatch.setattr(Psl2Atlas, "_schreier_generators", identities)
    assert not g._proves_whole(whole)
    _assert_matches_all_pairs(g)


# -- the normalizer generators of the extension step, from the class walks


def _bfs(g, gens):
    """The elements of <gens>, closed here by breadth-first search on ``mul``."""
    seen, frontier = {g.identity_id}, [g.identity_id]
    while frontier:
        frontier = [y for y in {g.mul(x, s) for x in frontier for s in gens} if y not in seen]
        seen.update(frontier)
    return seen


def _greedy_generators(g, ids):
    """The generating set the scan over all of ``ids`` picks: each id in
    order that is not yet in the closure of those kept."""
    gens, reached = [], {g.identity_id}
    for x in ids:
        if x not in reached:
            gens.append(x)
            reached = _bfs(g, gens)
    return gens


def _brute_normalizer(g, sub):
    """Every g with g H g^-1 = H, tested on each element of H."""
    mul, inverses, inside = g.mul, g.inverses, set(sub.ids)
    return [
        a for a in range(g.n) if all(mul(mul(a, h), inverses[a]) in inside for h in sub.ids)
    ]


def _extension_normalizers(g):
    """(H, the generators of N(H) handed to the extension step) for every
    step the subgroup search and the certificate take on the fresh group g,
    caught as they enter _extensions."""
    steps = []
    extensions = g._extensions

    def record(ids, hs, normalizer, skip=None):
        steps.append((ids, list(normalizer)))
        return extensions(ids, hs, normalizer, skip)

    g._extensions = record
    try:
        g.subgroups()
        assert g.three_generator_stability()
    finally:
        del g._extensions
    return steps


@pytest.mark.parametrize("kind,args", CLASS_GROUPS)
def test_stopped_normalizer_scan_matches_the_full_scan(kind, args):
    # the Schreier generators of both class walks, the search's over the
    # positions of the cyclic subgroups and the certificate's over listed
    # subgroups, closed greedily and stopped at n / |class|, generate N(H)
    # as a scan of every element finds it, on every class the step extends
    g = Psl2Atlas(*args) if kind == "psl2" else build(kind, args)
    assert g._generating_set(g.n) == _greedy_generators(g, range(g.n))
    steps = _extension_normalizers(g)
    classes = _classes(g)
    class_size = {s.ids: len(classes[s.class_number]) for s in g.subgroups()}
    # every class but the trivial subgroup and the whole group, each once
    # by the certificate, and the cyclic classes once more by the search
    extended = [members[0].ids for members in classes.values() if 1 < members[0].size < g.n]
    certified = [ids for ids, _ in steps[len(steps) - len(extended) :]]
    assert certified == extended
    for ids, gens in steps:
        normalizer = _brute_normalizer(g, Subgroup(ids))
        assert len(normalizer) * class_size[ids] == g.n  # orbit-stabilizer
        assert _bfs(g, gens) == set(normalizer), ids
        assert 2 ** len(gens) <= len(normalizer)  # each kept one doubles the closure


@pytest.mark.parametrize("kind,args", [("psl2", (7,)), ("semidirect", (3, 2, 2))])
def test_a_class_size_too_small_is_caught(kind, args, monkeypatch):
    # one conjugate dropped from class walks the certificate takes: from
    # every walk, where the dropped conjugate is met later in list order as
    # the first member of a class whose number is used, and from the walks
    # whose shorter class asks for a larger normalizer, where the Schreier
    # generators fall short of n / |class| and the certificate catches the
    # RuntimeError; it says False either way
    g = Psl2Atlas(*args) if kind == "psl2" else build(kind, args)
    g.subgroups()
    class_walk, generating_set = g._class_walk, g._generating_set
    raised = []

    def spied(order, candidates=None):
        try:
            return generating_set(order, candidates)
        except RuntimeError:
            raised.append(order)
            raise

    for drops in (lambda size: True, lambda size: g.n // (size - 1) != g.n // size):

        def short(start, conjugators, image):
            members, schreier = class_walk(start, conjugators, image)
            if len(members) > 1 and drops(len(members)):
                members = members[:1] + members[2:]
            return members, schreier

        monkeypatch.setattr(g, "_class_walk", short)
        monkeypatch.setattr(g, "_generating_set", spied)
        assert not g.three_generator_stability()
        monkeypatch.undo()
    assert raised
    # handed a class size one too small, the greedy closure looks for a
    # normalizer larger than N(H), runs out of Schreier generators, and
    # refuses instead of extending by a subgroup of the wrong order
    refused = 0
    for members in _classes(g).values():
        size = len(members)
        if size > 1 and g.n // (size - 1) != g.n // size:
            walked, schreier = g._class_walk(members[0].ids, g._conjugators(), _conjugate)
            assert len(walked) == size
            with pytest.raises(RuntimeError, match="not the expected"):
                g._generating_set(g.n // (size - 1), schreier)
            refused += 1
    assert refused


def _eager_class_walk(g, start, conjugators, image, conjugate):
    """The class walk of ``start`` with its transversal multiplied out as
    each member is reached, t_y = a t_x over the edge x -> y by a, each
    checked by ``conjugate(t_y, start) == y``, and the Schreier generators
    t_y^-1 a t_x of the other edges in walk order, the identity left out."""
    mul, inverses, e = g.mul, g.inverses, g.identity_id
    trans, members, schreier = {start: e}, [start], []
    for x in members:
        for a, conj in conjugators:
            y = image(conj, x)
            if y in trans:
                s = mul(inverses[trans[y]], mul(a, trans[x]))
                if s != e:
                    schreier.append(s)
            else:
                trans[y] = mul(a, trans[x])
                members.append(y)
    assert all(conjugate(t, start) == y for y, t in trans.items())
    return members, schreier


@pytest.mark.parametrize("kind,args", CLASS_GROUPS)
def test_lazy_schreier_generators_match_an_eager_transversal(kind, args):
    # both kinds of class walk, over the positions of the cyclic subgroups
    # (the search's) and over sorted ids (the certificate's, and the
    # search's on new closures): the lazily multiplied Schreier generators
    # are the eager oracle's, element for element and in order, and each
    # maps the class's first member to itself
    g = _make(kind, args)
    mul, inverses = g.mul, g.inverses
    cyclic, cyclic_of = g.cyclic_subgroups(), g._cyclic_of
    conjugators = g._conjugators()
    maps = [(a, [cyclic_of[conj[c.generators[0]]] for c in cyclic]) for a, conj in conjugators]

    def on_position(t, c):
        return cyclic_of[mul(mul(t, cyclic[c].generators[0]), inverses[t])]

    def on_ids(t, ids):
        return tuple(sorted(mul(mul(t, h), inverses[t]) for h in ids))

    seen = set()
    positions = []
    for c in range(len(cyclic)):
        if c not in seen:
            positions.append(c)
            seen.update(_eager_class_walk(g, c, maps, list.__getitem__, on_position)[0])
    firsts = [members[0].ids for members in _classes(g).values()]
    walks = [
        (positions, maps, list.__getitem__, on_position),
        (firsts, conjugators, _conjugate, on_ids),
    ]
    for starts, conjugators, image, conjugate in walks:
        for start in starts:
            members, schreier = g._class_walk(start, conjugators, image)
            expected_members, expected = _eager_class_walk(g, start, conjugators, image, conjugate)
            yielded = list(schreier)
            assert (members, yielded) == (expected_members, expected), start
            assert all(conjugate(s, start) == start for s in yielded), start
