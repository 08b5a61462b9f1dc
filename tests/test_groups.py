"""The shared finite-group core on SmallGroup tables."""

from itertools import product
from math import gcd

import pytest

from wildram.exactmath import vp
from wildram.groups import Subgroup
from wildram.psl2 import Psl2Atlas, psl2_atlas
from wildram.tails import GROUP_SIZE_LIMIT, SmallGroup, generation_obstruction

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


def build(kind, args):
    return getattr(SmallGroup, kind)(*args)


@pytest.mark.parametrize("kind,args", SHAPES)
def test_table_axioms(kind, args):
    g = build(kind, args)
    n, t, e = g.n, g.table, g.identity_id
    assert len(t) == n * n
    for x in range(n):
        assert t[e * n + x] == x and t[x * n + e] == x
        assert sorted(t[x * n : (x + 1) * n]) == list(range(n))
        assert t[x * n + g.inverses[x]] == e and t[g.inverses[x] * n + x] == e
        acc, k = x, 1
        while acc != e:
            acc, k = t[acc * n + x], k + 1
        assert g.orders[x] == k


def test_cyclic_orders_and_inverses():
    g = SmallGroup.cyclic(GROUP_SIZE_LIMIT)  # ids are the residues a mod n
    n = g.n
    assert g.orders == [n // gcd(a, n) for a in range(n)]
    assert g.inverses == [-a % n for a in range(n)]


def test_size_cap_refuses_the_table():
    assert GROUP_SIZE_LIMIT == 2000
    with pytest.raises(ValueError, match="exceeds the limit"):
        SmallGroup.semidirect(3, 7, 1)  # 2187 elements
    with pytest.raises(ValueError, match="exceeds the limit"):
        SmallGroup.cyclic(GROUP_SIZE_LIMIT + 1)
    assert SmallGroup.cyclic(GROUP_SIZE_LIMIT).n == GROUP_SIZE_LIMIT


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
    assert g.check_subgroups_closed()
    assert g.three_generator_stability()


def _all_pairs_subgroups(g):
    """The closure of every pair of cyclic subgroups, in cyclic_subgroups()
    order; a new closure keeps the first pair that reached it."""
    found = {}
    whole = g.whole_group()
    found[whole.mask] = whole
    cyclic = g.cyclic_subgroups()
    for sub in cyclic:
        found.setdefault(sub.mask, sub)
    for i, ci in enumerate(cyclic):
        for cj in cyclic[i + 1 :]:
            if ci.mask & cj.mask in (ci.mask, cj.mask):
                continue
            ids = g.closure_ids(ci.generators + cj.generators)
            if len(ids) == g.n:
                continue
            mask = sum(1 << x for x in ids)
            if mask not in found:
                found[mask] = Subgroup(ids, mask, ci.generators + cj.generators)
    return sorted(found.values(), key=lambda s: (s.size, s.ids))


def _all_pairs_stability(g):
    """The unreduced certificate: closing any listed subgroup with any
    cyclic subgroup not inside it gives a listed subgroup."""
    listed = {s.ids for s in g.subgroups()}
    for sub in g.subgroups():
        for cyc in g.cyclic_subgroups():
            if cyc.mask & sub.mask == cyc.mask:
                continue
            if g.closure_ids(sub.generators + cyc.generators) not in listed:
                return False
    return True


def _assert_matches_all_pairs(g):
    expected = [(s.mask, s.generators) for s in _all_pairs_subgroups(g)]
    assert [(s.mask, s.generators) for s in g.subgroups()] == expected
    assert g.check_subgroups_closed()


@pytest.mark.parametrize("kind,args", SHAPES)
def test_subgroups_match_all_pairs_on_small_groups(kind, args):
    g = build(kind, args)
    _assert_matches_all_pairs(g)
    assert g.three_generator_stability()
    assert _all_pairs_stability(g)


@pytest.mark.parametrize("ell,count", [(5, 59), (7, 179), (11, 620)])
def test_subgroups_match_all_pairs_on_psl2(ell, count):
    atlas = psl2_atlas(ell)
    _assert_matches_all_pairs(atlas)
    assert len(atlas.subgroups()) == count
    assert atlas.three_generator_stability()
    if ell < 11:  # the unreduced certificate closes 147357 pairs on PSL2(F_11)
        assert _all_pairs_stability(atlas)


def _conjugates(g, sub):
    n, t, inv = g.n, g.table, g.inverses
    return {tuple(sorted(t[t[a * n + x] * n + inv[a]] for x in sub.ids)) for a in range(n)}


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


def test_semidirect_p_form_on_a_group_of_order_p():
    # Z/7 x| Z/1: the p-elements generate the whole group
    g = SmallGroup.semidirect(7, 1, 1)
    assert g.semidirect_p_form(g.whole_group(), 7)
    assert g.is_quasi_p(g.whole_group(), 7)


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
