"""Finite groups on element ids 0..n-1, multiplied on demand.

``mul(a, b)`` is the id of the product ab.  Two batch primitives sit next to
it: ``products(xs, g)``, the ids of x g for each x in xs, and
``conjugates(g, xs)``, the ids of g x g^-1.  Each model implements
``products``; ``conjugates`` defaults to ``mul``, and a model whose product
is cheaper inline overrides it.  The engine's hot loops (the closure
frontier, the conjugation maps, the normalizer test and the orbit maps of
the extension step) go through them.  Subclasses implement the product on a
concrete model (2x2 matrices, residue pairs) and this class owns everything
computed from it: element orders and inverses, closures, cyclic subgroups,
the subgroups generated by at most two elements, and the structural
predicates the subgroup and generation checks ask about.  No product is
stored, so memory grows with n and with the subgroup list, never with n^2.

The subgroup search works up to conjugacy, after the conjugacy-class
lattice method (Holt, Eick and O'Brien, *Handbook of Computational Group
Theory*).  Since g<x, y>g^-1 = <gxg^-1, gyg^-1>, every subgroup generated
by two cyclic subgroups is conjugate to some <x, y> with <x> one
representative per conjugacy class of cyclic subgroups and <y> one
representative per orbit of the normalizer N(<x>) on the cyclic subgroups;
as <x, y> = <y, x>, the class of <y> can be taken to come no earlier than
that of <x>.  Only those pairs are closed; each new closure brings its
whole conjugacy class.  A listed subgroup is its sorted ids and the
number of its conjugacy class (``class_number`` on the record), so
questions invariant under conjugation are asked once per class; it carries
no generators.  The first pair of cyclic subgroups that generates it, which
a walk over all pairs would have met first, is searched only when asked for
(``_first_generating_pair``).

The search and its completeness certificate share one extension step: for
a subgroup H, close <H, y> for one <y> per N(H)-orbit.  The search takes
the steps from the cyclic class representatives; the certificate takes one
from the first member of every class of listed subgroups, on generators it
picks from that member's ids, and finds nothing new.  Most of those
closures are the whole group, the costliest to search; a subclass that can
prove a closure whole without searching it overrides ``_proves_whole``
(PSL2 does, by the orbit of infinity on the projective line and Lagrange's
theorem on its stabilizer).
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


@dataclass(frozen=True)
class Subgroup:
    ids: tuple[int, ...]
    generators: tuple[int, ...] = ()  # the least generator, on cyclic_subgroups() only
    # the conjugacy class of a subgroup in subgroups(); None on the records of
    # cyclic_subgroups() and on any record built outside the search
    class_number: int | None = field(default=None, compare=False)

    @property
    def size(self) -> int:
        return len(self.ids)


class FiniteGroup:
    """A finite group on ids 0..n-1; subclasses define the product: ``mul``
    and ``products``."""

    def __init__(self, n: int, identity_id: int):
        self.n = n
        self.identity_id = identity_id
        self._whole_ids = tuple(range(n))
        self._walk_cyclic_subgroups()
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
            for x in sub.ids:
                if orders[x] == sub.size:
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

    def subgroups(self) -> list[Subgroup]:
        """Every closure of a one- or two-element generating set, deduplicated,
        ordered by (size, ids), each with its conjugacy class: classes are
        numbered 0, 1, ... by their first member in this list.

        <g, h> depends only on (<g>, <h>), <g, h> = <h, g>, and
        conjugating the pair conjugates the closure, so only pairs (class
        representative <x>, N(<x>)-orbit representative <y>) with <y> in
        the class of <x> or a later one are closed, and each new closure is
        added with its conjugacy class.  The records carry no generators;
        _first_generating_pair finds the first pair of cyclic subgroups that
        generates one, for a subgroup that is printed.
        """
        if self._subgroups is None:
            cyclic = self.cyclic_subgroups()
            conjugators = self._conjugators()
            cyclic_of = self._cyclic_of
            maps = [[cyclic_of[conj[c.generators[0]]] for c in cyclic] for conj in conjugators]
            orbits = self._cyclic_orbits(maps)
            # ids -> class label, labelled as the search meets each class
            found = {self._whole_ids: 0}
            for label, cls in enumerate(orbits, 1):
                for c in cls:
                    found.setdefault(cyclic[c].ids, label)
            label = len(orbits)
            lower = bytearray(len(cyclic))  # the positions of the classes done
            for cls in orbits:
                first = cyclic[cls[0]]
                for ids in self._extensions(first.ids, first.generators, len(cls), lower):
                    # a whole closure is the whole group, found already
                    if len(ids) < self.n and ids not in found:
                        label += 1
                        for image in self._conjugacy_class(ids, conjugators):
                            found[image] = label
                for c in cls:
                    lower[c] = 1
            number: dict[int, int] = {}  # class label -> class number, in list order
            self._subgroups = [
                Subgroup(ids, class_number=number.setdefault(label, len(number)))
                for ids, label in sorted(found.items(), key=lambda item: (len(item[0]), item[0]))
            ]
        return self._subgroups

    # -- conjugation, used by the subgroup search and its certificate

    def _conjugators(self) -> list[list[int]]:
        """The maps x -> g x g^-1, as lists over ids, for g in a generating set
        of the whole group; built once, by the first of the search and its
        certificate to ask, and kept on the group for the other."""
        if self._conjugation_maps is None:
            self._conjugation_maps = [
                self.conjugates(g, range(self.n)) for g in self._generating_set(self.n)
            ]
        return self._conjugation_maps

    def _generating_set(self, order: int, member=None) -> list[int]:
        """Generators of a subgroup K of the given order, picked greedily in
        id order: each id not yet in the closure of those kept is asked
        ``member`` (is it in K? None for K the whole group) and kept if so.
        Each kept id at least doubles the closure, so there are at most
        log2 |K|; the walk stops once the closure has ``order`` elements, so
        the ids after the last generator are never asked.  The kept ids are
        those of a walk over all of K, since an id the walk skips as reached
        is in K.  RuntimeError if the ids in K generate a subgroup of another
        order: ``order`` was wrong."""
        gens = []
        reached = {self.identity_id}
        for g in range(self.n):
            if len(reached) == order:
                break
            if g not in reached and (member is None or member(g)):
                gens.append(g)
                reached = set(self.closure_ids(gens))
        if len(reached) != order:
            raise RuntimeError(
                f"the generating set reaches {len(reached)} elements, not the expected {order}"
            )
        return gens

    def _cyclic_orbits(self, maps, skip=None) -> list[list[int]]:
        """Orbits of the cyclic subgroups, as positions in cyclic_subgroups(),
        under the group generated by ``maps``, each a conjugation as a list
        over those positions; each orbit starts with its least position.
        Positions marked in ``skip``, a union of orbits, are left out."""
        count = len(self.cyclic_subgroups())
        seen = bytearray(count) if skip is None else bytearray(skip)
        orbits = []
        for start in range(count):
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

    def _extensions(self, ids, hs, class_size: int, skip=None):
        """Yield the ids of <H, y>, H = <hs> the subgroup ``ids``, for one
        cyclic <y> per N(H)-orbit, skipping any <y> nested with H; since
        <H, gyg^-1> = g<H, y>g^-1 for g in N(H), these stand for every
        <H, y'> up to conjugacy.  The cyclic subgroups
        inside H form whole N(H)-orbits and are left out before the orbits
        are taken, with the positions in cyclic_subgroups() marked in
        ``skip``, which must be a union of N(H)-orbits too; only the
        generators of the others are conjugated, and a closure that
        _proves_whole proves whole is not searched.

        ``class_size`` is the number of conjugates of H, so |N(H)| is
        n / class_size (orbit-stabilizer) and the generators of N(H) are
        found by a scan that stops there (_generating_set).  The trivial
        subgroup and the whole group are not extended: every <y> holds the
        one and lies in the other."""
        n, conjugates, size = self.n, self.conjugates, len(ids)
        if size in (1, n):
            return
        inside = bytearray(n)
        for x in ids:
            inside[x] = 1

        def normalizes(g):  # g normalizes H iff g h g^-1 is in H for each generator h
            return all(map(inside.__getitem__, conjugates(g, hs)))

        cyclic, cyclic_of = self.cyclic_subgroups(), self._cyclic_of
        skip = bytearray(len(cyclic)) if skip is None else bytearray(skip)
        for c, cy in enumerate(cyclic):
            if inside[cy.generators[0]]:
                skip[c] = 1
        outside = [c for c in range(len(cyclic)) if not skip[c]]
        outside_gens = [cyclic[c].generators[0] for c in outside]
        maps = []
        for g in self._generating_set(n // class_size, normalizes):
            image = [None] * len(cyclic)
            for c, y in zip(outside, conjugates(g, outside_gens)):
                image[c] = cyclic_of[y]
            maps.append(image)
        for orbit in self._cyclic_orbits(maps, skip):
            cy = cyclic[orbit[0]]
            if cy.size % size or not all(h in cy.ids for h in hs):  # else H is inside <y>
                gens = (*hs, *cy.generators)
                yield self._whole_ids if self._proves_whole(gens) else self.closure_ids(gens)

    @staticmethod
    def _conjugacy_class(ids, conjugators) -> set[tuple[int, ...]]:
        """The ids of every conjugate g H g^-1 of the subgroup H = ids."""
        found = {ids}
        todo = [ids]
        while todo:
            sub = todo.pop()
            for conj in conjugators:
                image = tuple(sorted(conj[x] for x in sub))
                if image not in found:
                    found.add(image)
                    todo.append(image)
        return found

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
        out = []
        for i in sub.ids:
            o = self.orders[i]
            if o > 1 and o == p ** vp(o, p):
                out.append(i)
        return out

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
                gens = self._generating_set(sub.size, set(sub.ids).__contains__)
            except RuntimeError:  # the ids generate a group of another order
                return False
            conjugates = self._conjugacy_class(sub.ids, conjugators)
            if self.closure_ids(gens) != sub.ids or any(number.get(c) != k for c in conjugates):
                return False
            k += 1
            seen.update(conjugates)
            # a whole closure is listed; its n ids are not hashed to say so
            extensions = self._extensions(sub.ids, gens, len(conjugates))
            if any(len(ids) < n and ids not in number for ids in extensions):
                return False
        return True
