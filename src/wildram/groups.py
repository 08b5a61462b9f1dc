"""Finite groups on element ids 0..n-1 with a flat multiplication table.

``table[a * n + b]`` is the id of the product ab; any indexable sequence of
ints serves (psl2 builds a list, tails a compact array).  Subclasses build
the table from a concrete model (2x2 matrices, residue pairs) and this
class owns everything computed from it: element orders and inverses, closures,
cyclic subgroups, the subgroups generated by at most two elements, and the
structural predicates the subgroup and generation checks ask about.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .exactmath import vp


@dataclass(frozen=True)
class Subgroup:
    ids: tuple[int, ...]
    mask: int
    generators: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.ids)


def _mask(ids) -> int:
    m = 0
    for i in ids:
        m |= 1 << i
    return m


class FiniteGroup:
    """A finite group given by its full multiplication table."""

    def __init__(self, n: int, table, identity_id: int):
        self.n = n
        self.table = table
        self.identity_id = identity_id
        self._build_orders_and_inverses()
        self._cyclic = None
        self._subgroups = None

    def _build_orders_and_inverses(self):
        n, table, e = self.n, self.table, self.identity_id
        orders = [0] * n
        inverses = [0] * n
        for i in range(n):
            k = 1
            acc = i
            prev = i
            while acc != e:
                prev = acc
                acc = table[acc * n + i]
                k += 1
            orders[i] = k
            inverses[i] = prev if k > 1 else e
        self.orders = orders
        self.inverses = inverses

    # -- closures

    def closure_ids(self, gens) -> tuple[int, ...] | None:
        """Sorted ids of <gens>; None means the closure is the whole group.

        Once more than half the elements are reached the subgroup must be
        everything (its order divides the group order), so the search can
        stop early.
        """
        n, table = self.n, self.table
        gens = sorted(set(gens))
        seen = bytearray(n)
        e = self.identity_id
        seen[e] = 1
        frontier = [e]
        count = 1
        half = n // 2
        while frontier:
            nxt = []
            for x in frontier:
                base = x * n
                for g in gens:
                    y = table[base + g]
                    if not seen[y]:
                        seen[y] = 1
                        nxt.append(y)
                        count += 1
            if count > half:
                return None
            frontier = nxt
        return tuple(i for i in range(n) if seen[i])

    def generates(self, gens) -> bool:
        return self.closure_ids(gens) is None

    def whole_group(self) -> Subgroup:
        ids = tuple(range(self.n))
        return Subgroup(ids=ids, mask=(1 << self.n) - 1, generators=())

    def cyclic_subgroups(self) -> list[Subgroup]:
        """One Subgroup per distinct cyclic subgroup, generator = least id.

        Every generator x^j (gcd(j, ord x) = 1) of a subgroup found is
        marked, so each cyclic subgroup is walked once, from its least id.
        """
        if self._cyclic is None:
            n, table, e = self.n, self.table, self.identity_id
            marked = bytearray(n)
            found = []
            for i in range(n):
                if marked[i]:
                    continue
                powers = [e]
                acc = i
                while acc != e:
                    powers.append(acc)
                    acc = table[acc * n + i]
                k = len(powers)
                for j in range(k):
                    if gcd(j, k) == 1:
                        marked[powers[j]] = 1
                ids = tuple(sorted(powers))
                found.append(Subgroup(ids=ids, mask=_mask(ids), generators=(i,)))
            self._cyclic = sorted(found, key=lambda s: (s.size, s.ids))
        return self._cyclic

    def subgroups(self) -> list[Subgroup]:
        """Every closure of a one- or two-element generating set, deduplicated.

        Reducing generators to one representative per cyclic subgroup loses
        nothing: <g, h> depends only on (<g>, <h>).
        """
        if self._subgroups is None:
            found: dict[int, Subgroup] = {}
            whole = self.whole_group()
            found[whole.mask] = whole
            cyclic = self.cyclic_subgroups()
            for sub in cyclic:
                found.setdefault(sub.mask, sub)
            for i, ci in enumerate(cyclic):
                gi = ci.generators[0]
                for cj in cyclic[i + 1 :]:
                    if ci.mask & cj.mask in (ci.mask, cj.mask):
                        continue  # one cyclic inside the other: closure already known
                    ids = self.closure_ids((gi, cj.generators[0]))
                    if ids is None:
                        continue
                    mask = _mask(ids)
                    if mask not in found:
                        found[mask] = Subgroup(
                            ids=ids, mask=mask, generators=(gi, cj.generators[0])
                        )
            self._subgroups = sorted(found.values(), key=lambda s: (s.size, s.ids))
        return self._subgroups

    # -- predicates

    def is_abelian_subgroup(self, sub: Subgroup) -> bool:
        n, table = self.n, self.table
        ids = sub.ids
        for a in ids:
            for b in ids:
                if b >= a:
                    break
                if table[a * n + b] != table[b * n + a]:
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
        p_ids = self.p_element_ids(sub, p)
        if not p_ids:
            return sub.size == 1
        ids = self.closure_ids(p_ids)
        if ids is None:
            return sub.size == self.n
        return ids == sub.ids

    def semidirect_p_form(self, sub: Subgroup, p: int) -> bool:
        """Whether the subgroup is Z/p x| Z/m with p not dividing m.

        Requires |H| = p*m with v_p = 1, all p-elements in one (then
        automatically normal) subgroup of order p, and a cyclic subgroup of
        order m to act as the complement.
        """
        if sub.size % p != 0 or vp(sub.size, p) != 1:
            return False
        m = sub.size // p
        p_ids = self.p_element_ids(sub, p)
        if len(p_ids) != p - 1:
            return False
        p_closure = self.closure_ids(p_ids)
        if p_closure is None or len(p_closure) != p:
            return False
        if m == 1:
            return True
        return any(
            c.size == m and c.mask & sub.mask == c.mask for c in self.cyclic_subgroups()
        )

    # -- completeness certificates of the subgroup search

    def three_generator_stability(self) -> bool:
        """No closure of (2-generated subgroup + one more cyclic) is new."""
        subs = self.subgroups()
        masks = {s.mask for s in subs}
        for sub in subs:
            if not sub.generators:  # whole group
                continue
            for cyc in self.cyclic_subgroups():
                if cyc.mask & sub.mask == cyc.mask:
                    continue
                ids = self.closure_ids(sub.generators + (cyc.generators[0],))
                mask = (1 << self.n) - 1 if ids is None else _mask(ids)
                if mask not in masks:
                    return False
        return True

    def check_subgroups_closed(self) -> bool:
        """Every discovered subgroup is closed under product and inverse."""
        n, table = self.n, self.table
        for sub in self.subgroups():
            members = set(sub.ids)
            for a in sub.ids:
                if self.inverses[a] not in members:
                    return False
                base = a * n
                for b in sub.ids:
                    if table[base + b] not in members:
                        return False
        return True
