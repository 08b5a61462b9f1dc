"""Finite groups on element ids 0..n-1, multiplied on demand.

``mul(a, b)`` is the id of the product ab.  Two batch primitives sit next to
it: ``products(xs, g)``, the ids of x g for each x in xs, and
``conjugates(g, xs)``, the ids of g x g^-1.  Each model implements
``products``; ``conjugates`` defaults to ``mul``, and a model whose product
is cheaper inline overrides it.  The engine's hot loops (the closure
frontier, the conjugation maps and the orbit maps of the extension step) go
through them.  Subclasses implement the product on a concrete model (2x2
matrices, residue pairs) and this class owns everything computed from it:
element orders and inverses, closures, cyclic subgroups, the subgroups
generated by at most two elements, and the structural predicates the
subgroup and generation checks ask about.  No product is stored, so memory
grows with n and with the subgroup list, never with n^2.

The subgroup search works up to conjugacy, after the conjugacy-class
lattice method (Holt, Eick and O'Brien, *Handbook of Computational Group
Theory*).  Since g<x, y>g^-1 = <gxg^-1, gyg^-1>, every subgroup generated
by two cyclic subgroups is conjugate to some <x, y> with <x> one
representative per conjugacy class of cyclic subgroups and <y> one
representative per orbit of the normalizer N(<x>) on the cyclic subgroups;
as <x, y> = <y, x>, the class of <y> can be taken to come no earlier than
that of <x>.  Only those pairs are closed; each new closure brings its
whole conjugacy class.  The search records each class as it walks it, its
first member and its length, and keeps one dict of every subgroup's ids:
questions invariant under conjugation read that class table
(``subgroup_classes``), and the sorted list (``subgroups``) is built from
the dict only when asked.  A listed subgroup is its sorted ids and the
number of its conjugacy class (``class_number`` on the record); it carries
no generators.  The first pair of cyclic subgroups that generates it, which
a walk over all pairs would have met first, is searched only when asked for
(``_first_generating_pair``).

The search and its completeness certificate share one extension step: for
a subgroup H, close <H, y> for one <y> per N(H)-orbit.  The search takes
the steps from the cyclic class representatives; the certificate takes one
from the first member of every class of listed subgroups, on generators it
picks from that member's ids, and finds nothing new.  Each walks the class
of H under a generating set of the whole group before its step, and the
walk gives N(H) too: its non-tree edges give Schreier generators of N(H)
(``_schreier``, which PSL2 shares for the orbit of infinity), closed
greedily up to |N(H)| = n / |class|.
Most of those closures are the whole group, the costliest to search; a
subclass that can prove a closure whole without searching it overrides
``_proves_whole`` (PSL2 does, by the orbit of infinity on the projective
line and Lagrange's theorem on its stabilizer).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

from .exactmath import vp

# The order of PSL2(F_43), the largest group either model is built for.  At
# every ell up to 43 the PSL2 claims and the certificate of the subgroup list
# take at most 3.5 to 4.5 s and 45 MB on a 2-vCPU host in a slow spell, at
# PSL2(F_41) with its 36129 subgroups.
ORDER_LIMIT = 39732


def check_order(n: int):
    """Refuse a group above ORDER_LIMIT elements, before any of it is built."""
    if n > ORDER_LIMIT:
        raise ValueError(f"group order {n} exceeds the order limit {ORDER_LIMIT}")


@dataclass(frozen=True, slots=True)
class Subgroup:
    ids: tuple[int, ...]
    generators: tuple[int, ...] = ()  # the least generator, on cyclic_subgroups() only
    # the conjugacy class of a subgroup in subgroups(); None on the records of
    # cyclic_subgroups() and on any record built outside the search
    class_number: int | None = field(default=None, compare=False)

    @property
    def size(self) -> int:
        return len(self.ids)


def _conjugate(conj, ids) -> tuple[int, ...]:
    """The sorted ids of g H g^-1, H = ids and conj the map x -> g x g^-1."""
    return tuple(sorted(map(conj.__getitem__, ids)))


class FiniteGroup:
    """A finite group on ids 0..n-1; subclasses define the product: ``mul``
    and ``products``."""

    def __init__(self, n: int, identity_id: int):
        self.n = n
        self.identity_id = identity_id
        self._whole_ids = tuple(range(n))
        self._walk_cyclic_subgroups()
        self._classes = None  # the class table, once the search has run
        self._found = None  # the search's dict of ids, until subgroups() lists it
        self._subgroups = None
        self._conjugation_maps = None

    def mul(self, a: int, b: int) -> int:
        """The id of the product ab."""
        raise NotImplementedError

    def conjugates(self, g: int, xs) -> list[int]:
        """The ids of g x g^-1 for each x in xs, in order."""
        mul, g_inverse = self.mul, self.inverses[g]
        return [mul(mul(g, x), g_inverse) for x in xs]

    def _walk_cyclic_subgroups(self):
        """Orders, inverses and the cyclic subgroups from one walk x, x^2, ...,
        x^k = 1 per cyclic subgroup.

        Each walk starts at an element not yet reached, which is the least
        id generating its cyclic subgroup.  The generators x^j, gcd(j, k) = 1,
        get order k and inverse x^(k - j) and are marked, so each cyclic
        subgroup is walked once; every element generates exactly one cyclic
        subgroup, so every element is reached.  The cyclic subgroups are
        then sorted by (size, ids), and ``_cyclic_of`` maps each element to
        the position of the one it generates: its members of full order.
        """
        n, mul, e = self.n, self.mul, self.identity_id
        orders = [0] * n
        inverses = [0] * n
        found = []
        for i in range(n):
            if orders[i]:
                continue
            powers = [e]
            acc = i
            while acc != e:
                powers.append(acc)
                acc = mul(acc, i)
            k = len(powers)
            for j in range(k):
                if gcd(j, k) == 1:
                    x = powers[j]
                    orders[x] = k
                    inverses[x] = powers[-j]
            found.append(Subgroup(ids=tuple(sorted(powers)), generators=(i,)))
        cyclic = sorted(found, key=lambda s: (s.size, s.ids))
        cyclic_of = [0] * n
        for pos, sub in enumerate(cyclic):
            size = len(sub.ids)
            for x in sub.ids:
                if orders[x] == size:
                    cyclic_of[x] = pos
        self.orders = orders
        self.inverses = inverses
        self._cyclic = cyclic
        self._cyclic_of = cyclic_of

    # -- closures

    def closure_ids(self, gens) -> tuple[int, ...]:
        """Sorted ids of <gens>; the whole group once it passes n/2 elements."""
        members = self._closure(gens, self.n)
        return self._whole_ids if members is None else tuple(sorted(members))

    def _closure(self, gens, size: int) -> list[int] | None:
        """The elements of <gens>, or None once more than size/2 are reached.

        Inside a subgroup of order ``size`` that holds gens, <gens> is a
        subgroup whose order divides ``size``, so None then means <gens> is
        all of it and the search stops early.
        """
        products = self.products
        gens = sorted(set(gens))
        seen = bytearray(self.n)
        e = self.identity_id
        seen[e] = 1
        members = [e]
        frontier = [e]
        half = size // 2
        while frontier:
            nxt = []
            for g in gens:
                for y in products(frontier, g):
                    if not seen[y]:
                        seen[y] = 1
                        nxt.append(y)
            members += nxt
            if len(members) > half:
                return None
            frontier = nxt
        return members

    def _proves_whole(self, gens) -> bool:
        """True only when <gens> is proven to be the whole group without a
        closure; False leaves the question to closure_ids."""
        return False

    def generates(self, gens) -> bool:
        return len(self.closure_ids(gens)) == self.n

    def cyclic_subgroups(self) -> list[Subgroup]:
        """One Subgroup per distinct cyclic subgroup, generator = least id,
        ordered by (size, ids)."""
        return self._cyclic

    def subgroup_classes(self) -> list[tuple[Subgroup, int]]:
        """The conjugacy classes of subgroups(), numbered in list order, as
        (first member, length): the class table the search records as it
        walks each class, read without the list being built.  The first
        members are the records subgroups() lists."""
        if self._classes is None:
            self._search()
        return self._classes

    def subgroups(self) -> list[Subgroup]:
        """Every closure of a one- or two-element generating set, deduplicated,
        ordered by (size, ids), each with its conjugacy class: classes are
        numbered 0, 1, ... by their first member in this list.

        Built from the search's dict of ids when first asked (_search),
        which it then replaces; the first member of each class is the
        record of subgroup_classes().  The records carry no generators;
        _first_generating_pair finds the first pair of cyclic subgroups that
        generates one, for a subgroup that is printed.
        """
        if self._subgroups is None:
            self.subgroup_classes()
            found, firsts = self._found
            order = sorted(found)
            order.sort(key=len)  # stable, so (size, ids) order
            subs = []
            for ids in order:
                sub = firsts[found[ids]]  # the first member of its class
                if sub.ids != ids:
                    sub = Subgroup(ids, class_number=sub.class_number)
                subs.append(sub)
            self._subgroups = subs
            self._found = None
        return self._subgroups

    def _search(self):
        """The subgroup search up to conjugacy: ``_found``, the pair (dict of
        every subgroup's ids -> its class label, first-member record of each
        label), and ``_classes``, the class table of subgroup_classes().

        <g, h> depends only on (<g>, <h>), <g, h> = <h, g>, and
        conjugating the pair conjugates the closure, so only pairs (class
        representative <x>, N(<x>)-orbit representative <y>) with <y> in
        the class of <x> or a later one are closed, and each new closure is
        added with its conjugacy class.  The walk that finds the class of
        <x> also gives N(<x>) (_class_walk).  Each class is recorded as it
        is walked, with its length and its first member in (size, ids)
        order: the least position of a cyclic class, and the least ids of
        any other, as its members share one size.
        """
        n, cyclic = self.n, self.cyclic_subgroups()
        conjugators = self._conjugators()
        cyclic_of = self._cyclic_of
        # each conjugation as a map over the positions in cyclic
        maps = [
            (g, [cyclic_of[conj[c.generators[0]]] for c in cyclic]) for g, conj in conjugators
        ]
        # ids -> class label, labelled as the search meets each class
        found = {self._whole_ids: 0}
        table = [(self._whole_ids, 1)]  # class label -> (first member's ids, length)
        classes = []  # (positions, Schreier generators) of each class walk
        seen = bytearray(len(cyclic))
        for start in range(len(cyclic)):
            if not seen[start]:
                positions, schreier = self._class_walk(start, maps, list.__getitem__)
                classes.append((positions, schreier))
                for c in positions:
                    seen[c] = 1
                # start is the least position in its class; only the whole
                # group, alone in its class, can have been found already
                if cyclic[start].ids not in found:
                    for c in positions:
                        found[cyclic[c].ids] = len(table)
                    table.append((cyclic[start].ids, len(positions)))
        lower = bytearray(len(cyclic))  # the positions of the classes done
        for positions, schreier in classes:
            first = cyclic[positions[0]]
            if 1 < first.size < n:  # as in the certificate, see _extensions
                normalizer = self._generating_set(n // len(positions), schreier)
                for ids in self._extensions(first.ids, first.generators, normalizer, lower):
                    # a whole closure is the whole group, found already
                    if len(ids) < n and ids not in found:
                        members = self._class_walk(ids, conjugators, _conjugate)[0]
                        for image in members:
                            found[image] = len(table)
                        table.append((min(members), len(members)))
            for c in positions:
                lower[c] = 1
        order = sorted(range(len(table)), key=lambda k: (len(table[k][0]), table[k][0]))
        firsts = [None] * len(table)
        for number, label in enumerate(order):
            firsts[label] = Subgroup(table[label][0], class_number=number)
        self._found = found, firsts
        self._classes = [(firsts[label], table[label][1]) for label in order]

    # -- conjugation, used by the subgroup search and its certificate

    def _conjugators(self) -> list[tuple[int, list[int]]]:
        """The pairs (g, the map x -> g x g^-1 as a list over ids) for g in a
        generating set of the whole group; built once, by the first of the
        search and its certificate to ask, and kept on the group for the
        other."""
        if self._conjugation_maps is None:
            self._conjugation_maps = [
                (g, self.conjugates(g, range(self.n))) for g in self._generating_set(self.n)
            ]
        return self._conjugation_maps

    def _generating_set(self, order: int, candidates=None) -> list[int]:
        """Generators of a subgroup K of the given order, picked greedily from
        ``candidates``, elements of K (every id in order when None): each
        one not yet in the closure of those kept is kept.  Each kept one at
        least doubles the closure, so there are at most log2 |K|; the walk
        stops once the closure has ``order`` elements, so the candidates
        after the last generator are never read; for the whole group it
        stops once _proves_whole proves the kept ones generate it, before
        their closure is searched.  Three callers: the whole
        group (_conjugators), a listed subgroup from its sorted ids, and
        N(R), of order n / |class| (orbit-stabilizer), from the Schreier
        generators of R's class walk (_class_walk).  RuntimeError if the
        candidates generate a subgroup of another order: ``order`` was
        wrong, as when a class walk lost a member."""
        gens = []
        reached = {self.identity_id}
        for g in range(self.n) if candidates is None else candidates:
            if len(reached) == order:
                break
            if g not in reached:
                gens.append(g)
                if order == self.n and self._proves_whole(gens):
                    return gens
                reached = set(self.closure_ids(gens))
        if len(reached) != order:
            raise RuntimeError(
                f"the generating set reaches {len(reached)} elements, not the expected {order}"
            )
        return gens

    def _class_walk(self, start, conjugators, image):
        """The class of R = ``start`` under conjugation by the whole group:
        its members in the order reached, R first, and the Schreier
        generators of the walk (_schreier), which generate N(R).
        ``conjugators`` are the pairs (g, map) of _conjugators, the map
        possibly over other objects than ids, and ``image(map, S)`` is the
        member g S g^-1."""
        parent = {start: ()}
        members, edges = [start], []
        for x in members:  # grows while it is read
            for g, conj in conjugators:
                y = image(conj, x)
                if y in parent:
                    edges.append((x, g, y))
                else:
                    parent[y] = (x, g)
                    members.append(y)
        return members, self._schreier(start, parent, edges)

    def _schreier(self, root, parent, edges):
        """Schreier's lemma (Holt, Eick and O'Brien, *Handbook of
        Computational Group Theory*, 4.1) on an orbit walk from ``root``:
        ``parent[y]`` is (x, g) for the edge x -> y = g.x that first reached
        y, and ``edges`` are the other edges (x, g, y).  Yields
        t_y^-1 g t_x for each of those edges, in order, unless it is the
        identity, where t_x is the product of the tree's labels from root to
        x, multiplied out when a generator first asks for it.  They fix
        root and generate its stabilizer in the group the labels generate.
        """
        mul, inverses, identity = self.mul, self.inverses, self.identity_id
        known = {root: identity}

        def trans(y):  # a loop: a closure that calls itself is a reference cycle
            path = []
            while y not in known:
                path.append(y)
                y = parent[y][0]
            t = known[y]
            for y in reversed(path):
                t = known[y] = mul(parent[y][1], t)
            return t

        for x, g, y in edges:
            s = mul(inverses[trans(y)], mul(g, trans(x)))
            if s != identity:
                yield s

    def _cyclic_orbits(self, maps, skip) -> list[list[int]]:
        """Orbits of the cyclic subgroups, as positions in cyclic_subgroups(),
        under the group generated by ``maps``, each a conjugation as a list
        over those positions; each orbit starts with its least position.
        Positions marked in ``skip``, a union of orbits, are left out."""
        seen = bytearray(skip)
        orbits = []
        for start in range(len(seen)):
            if seen[start]:
                continue
            seen[start] = 1
            orbit = [start]
            for c in orbit:  # grows while it is read
                for m in maps:
                    d = m[c]
                    if not seen[d]:
                        seen[d] = 1
                        orbit.append(d)
            orbits.append(orbit)
        return orbits

    def _extensions(self, ids, hs, normalizer, skip=None):
        """Yield the ids of <H, y>, H = <hs> the subgroup ``ids``, for one
        cyclic <y> per N(H)-orbit, skipping any <y> nested with H; since
        <H, gyg^-1> = g<H, y>g^-1 for g in N(H), these stand for every
        <H, y'> up to conjugacy.  ``normalizer`` generates N(H); both
        callers take it from the walk that lists the class of H
        (_class_walk).  The cyclic subgroups inside H form whole
        N(H)-orbits and are left out before the orbits are taken, with the
        positions in cyclic_subgroups() marked in ``skip``, which must be a
        union of N(H)-orbits too; only the generators of the others are
        conjugated, and a closure that _proves_whole proves whole is not
        searched.

        H is neither the trivial subgroup nor the whole group, which the
        callers do not extend: every <y> holds the one and lies in the
        other."""
        n, conjugates, size = self.n, self.conjugates, len(ids)
        inside = bytearray(n)
        for x in ids:
            inside[x] = 1
        cyclic, cyclic_of = self.cyclic_subgroups(), self._cyclic_of
        skip = bytearray(len(cyclic)) if skip is None else bytearray(skip)
        for c, cy in enumerate(cyclic):
            if inside[cy.generators[0]]:
                skip[c] = 1
        outside = [c for c in range(len(cyclic)) if not skip[c]]
        outside_gens = [cyclic[c].generators[0] for c in outside]
        maps = []
        for g in normalizer:
            image = [None] * len(cyclic)
            for c, y in zip(outside, conjugates(g, outside_gens)):
                image[c] = cyclic_of[y]
            maps.append(image)
        for orbit in self._cyclic_orbits(maps, skip):
            cy = cyclic[orbit[0]]
            if cy.size % size or not all(h in cy.ids for h in hs):  # else H is inside <y>
                gens = (*hs, *cy.generators)
                yield self._whole_ids if self._proves_whole(gens) else self.closure_ids(gens)

    def _first_generating_pair(self, ids) -> tuple[int, int]:
        """Generators of the first pair (i < j) of cyclic subgroups inside
        the subgroup ``ids``, in cyclic_subgroups() order, that generates it:
        the pair a search over all cyclic pairs in that order meets first."""
        cyclic = self.cyclic_subgroups()
        size = len(ids)
        inside = sorted({self._cyclic_of[x] for x in ids})
        for k, a in enumerate(inside):
            ca = cyclic[a]
            for b in inside[k + 1 :]:
                cb = cyclic[b]
                if cb.size % ca.size == 0 and ca.generators[0] in cb.ids:
                    continue  # <a> is inside <b>, as a < b puts the smaller first
                pair = ca.generators + cb.generators
                if self._closure(pair, size) is None:
                    return pair
        raise RuntimeError(f"no two cyclic subgroups generate a subgroup of order {size}")

    # -- predicates

    def is_abelian_subgroup(self, sub: Subgroup) -> bool:
        mul, ids = self.mul, sub.ids
        for a in ids:
            for b in ids:
                if b >= a:
                    break
                if mul(a, b) != mul(b, a):
                    return False
        return True

    def p_element_ids(self, sub: Subgroup, p: int) -> list[int]:
        """The ids in the subgroup whose order is a power p^k > 1 of p."""
        powers, q = set(), p
        while q <= self.n:
            powers.add(q)
            q *= p
        orders = self.orders
        return [i for i in sub.ids if orders[i] in powers]

    def is_quasi_p(self, sub: Subgroup, p: int) -> bool:
        """Whether the subgroup is generated by its elements of p-power order."""
        return self._closure(self.p_element_ids(sub, p), sub.size) is None

    def semidirect_p_form(self, sub: Subgroup, p: int) -> bool:
        """Whether the subgroup is Z/p x| Z/m with p not dividing m.

        Requires |H| = p*m with v_p = 1, all p-elements in one (then
        automatically normal) subgroup of order p, and an element of order
        m, whose cyclic subgroup is then a complement.
        """
        if sub.size % p != 0 or vp(sub.size, p) != 1:
            return False
        m = sub.size // p
        p_ids = self.p_element_ids(sub, p)
        if len(p_ids) != p - 1:
            return False
        if len(self.closure_ids(p_ids)) != p:
            return False
        return any(self.orders[x] == m for x in sub.ids)

    def contains_dihedral(self, sub: Subgroup, p: int) -> bool:
        """Whether the subgroup holds a dihedral group of order 2p, p odd: an
        element x of order p and an involution t inverting it, which then
        generate one.  t x t = x^-1 says that tx is an involution too, one
        product per pair, and t inverts every power of x, so one x per
        cyclic subgroup of order p is tried."""
        orders, mul, cyclic_of = self.orders, self.mul, self._cyclic_of
        involutions = [t for t in sub.ids if orders[t] == 2]
        tried = set()
        for x in sub.ids:
            if orders[x] == p and cyclic_of[x] not in tried:
                tried.add(cyclic_of[x])
                if any(orders[mul(t, x)] == 2 for t in involutions):
                    return True
        return False

    # -- completeness certificates of the subgroup search

    def three_generator_stability(self) -> bool:
        """Whether the subgroup list is complete, with the conjugacy classes
        as its classes: it holds every cyclic subgroup, and the first member
        R of each class in list order is the closure of generators picked
        from its ids, has every conjugate listed with its class number, the
        count of classes before it, and has no extension <R, y> outside the
        list.  A damaged list gives False, not an error.

        A listed subgroup that is no conjugate of its class's first member
        is met unseen, as a first member whose number is not the count of
        classes before it.  Closed under conjugation, the list needs the
        extensions of one H per conjugacy class only, since
        <gHg^-1, C> = g<H, g^-1 C g>g^-1.
        """
        subs = self.subgroups()
        number = {s.ids: s.class_number for s in subs}
        n = self.n
        if any(c.ids not in number for c in self.cyclic_subgroups()):
            return False
        conjugators = self._conjugators()
        seen: set[tuple[int, ...]] = set()
        k = 0  # the classes met so far
        for sub in subs:
            if sub.ids in seen:
                continue
            try:
                gens = self._generating_set(sub.size, sub.ids)
            except RuntimeError:  # the ids generate a group of another order
                return False
            conjugates, schreier = self._class_walk(sub.ids, conjugators, _conjugate)
            if self.closure_ids(gens) != sub.ids or any(number.get(c) != k for c in conjugates):
                return False
            k += 1
            seen.update(conjugates)
            if 1 < sub.size < n:  # the trivial subgroup and the whole group are not extended
                try:
                    normalizer = self._generating_set(n // len(conjugates), schreier)
                except RuntimeError:  # the walk lost a conjugate
                    return False
                # a whole closure is listed; its n ids are not hashed to say so
                extensions = self._extensions(sub.ids, gens, normalizer)
                if any(len(ids) < n and ids not in number for ids in extensions):
                    return False
        return True
