"""Homology classification of complexes over catalogue worlds.

Every complex reduces by one deterministic loop of moves on an exploded
cell presentation, one cell per free generator (the chain-complex
reduction of Kaczynski-Mrozek-Slusarek):

  M1  cancel a same-world unit entry (Gaussian / discrete-Morse step),
      taking cells in order from a worklist of those that may hold one;
  M0  Smith-diagonalize a same-world block to create unit entries and
      split islands, replaying the elementary operations snf records as
      basis changes of the block's cells; it runs only after M1 has
      taken every unit;
  M2  collapse a registered fracture triple: a cell of W12 receiving
      exactly +-1 entries from a W1-cell and a W2-cell contracts to a
      single cell over the registered pullback world, rewiring all
      attachments -- this is exactness of 0 -> W -> W1 (+) W2 -> W12 -> 0;
  M3/M5  harvest isolated islands (free cells, two-cell cross atoms,
      four-cell cones of localization maps) through a finite rule table.

A single-world complex reduces to lone cells and two-cell pairs only;
decompose_single reads them as atoms [W] and [W --a--> W], and
atom_classes folds atoms into classes -- and, since a localization of W
is flat, into the classes of every localization and every torsion part
of the complex too.

Every fracture triple and island rule is validated independently by the
residue-truncation oracle in the test suite; the classifier refuses
(UnsupportedMixedShape) rather than guess on anything outside the table.
"""

from __future__ import annotations

import heapq

from .classes import GradedClasses, ModuleClass, PRUEFER, PRUEFER_X, PRUEFER_Y, QUOT_KV
from .complexes import ChainComplex
from .linalg import snf
from .worlds import (World, canonical_map_exists, carrier_act, factorint, fracture_pullback,
                     inv_el, is_zero_el, map_act, mult_map_allowed)


class UnsupportedMixedShape(ValueError):
    pass


def atom_classes(w: World, atoms, wloc: World | None = None) -> GradedClasses:
    """Fold atoms over w into homology classes: of the complex they sum
    to, or with wloc, of the fibre of W -> wloc (torsion and cones
    commute with direct sums, so the rank-one rules are exact).  An atom
    is (t, None), a lone [W] in degree t, or (t, a), [W --a--> W] in
    degrees (t, t-1), as decompose_single lists them.

    Alone, a lone [W] gives Free(W) in degree t, and a pair W/(a) in
    degree t-1 (nothing for a unit a, which decompose_single never
    lists; every catalogue world is a domain).  With wloc, a lone [W]
    gives the cross-atom classes in degrees t and t-1, a pair the
    cone-atom classes in t-1 and t-2."""
    out: dict[int, ModuleClass] = {}
    rule = None     # what the rules read of W -> wloc, resolved at the first atom
    for (t, a) in atoms:
        if wloc is None:
            pieces = [(t, ModuleClass.free(w)) if a is None else (t - 1, ModuleClass.cyclic(w, a))]
        else:
            rule = _atom_rule(w, wloc) if rule is None else rule
            pieces = zip((t, t - 1), _cross_atom(w, wloc, rule, w.el_one())) if a is None else \
                zip((t - 1, t - 2), _cone_atom(w, wloc, rule, a))
        for n, cls in pieces:
            out[n] = out[n] + cls if n in out else cls
    return GradedClasses(out)


def decompose_single(C: ChainComplex) -> list[tuple[int, object]]:
    """Split a single-world complex into rank-one atoms: the components
    _Cells.reduce leaves, a lone cell as (its degree, None) and a pair
    s -> t as (deg s, the entry a), the atom [W --a--> W] in degrees
    (deg s, deg s - 1).  Unit atoms are not listed (M1 cancels them; they
    are acyclic and atom_classes drops them), so the atoms sum to C up to
    an acyclic summand.
    """
    if len(C.worlds) > 1:
        raise UnsupportedMixedShape("decompose needs a single world")
    cells = _Cells(C)
    cells.reduce()
    return [(cells.deg[top], next(iter(cells.out[top].values()), None))
            for top in (max(comp, key=cells.deg.__getitem__) for comp in cells.components())]


# -- island rules ------------------------------------------------------------------


def _zint_quot_primes(w1: World, w2: World) -> frozenset[int]:
    """Primes p with W2/W1 containing a Pruefer(p): noninvertible in W1,
    invertible in W2.  Refused across a completion edge, or unless the
    primes come out finite."""
    if w1.comp == w2.comp:
        if w1.inv.cofinite:
            return frozenset(p for p in w1.inv.primes if p in w2.inv)
        if not w2.inv.cofinite:
            return frozenset(p for p in w2.inv.primes if p not in w1.inv)
    raise UnsupportedMixedShape(f"no zint atom rule for {w1} -> {w2}")


def _val_atom_pair(w1: World, w2: World) -> bool:
    """Whether the atom rules cover the valrank2 localization W1 -> W2: it
    inverts a generator and keeps the completion, or lands in a world
    where x and y are both inverted."""
    return (w1.kind == w2.kind == "val" and w1.comp_height <= w2.comp_height
            and w1.loc_height < w2.loc_height
            and (w1.comp_height == w2.comp_height or w2.loc_height == 2))


def _atom_rule(w1: World, w2: World):
    """What the atom rules read of the pair W1 -> W2, resolved once per
    pair: on zint the primes of _zint_quot_primes (which refuses), on
    valrank2 whether _val_atom_pair covers it."""
    return _zint_quot_primes(w1, w2) if w1.backend == "zint" else _val_atom_pair(w1, w2)


def cross_atom_classes(w1: World, w2: World, e) -> tuple[ModuleClass, ModuleClass]:
    """(ker, coker) classes of W1 --e.wm--> W2 for a canonical wm."""
    return _cross_atom(w1, w2, _atom_rule(w1, w2), e)


def _cross_atom(w1: World, w2: World, rule, e) -> tuple[ModuleClass, ModuleClass]:
    if w1.backend == "zint":
        ker = ModuleClass()
        coker = ModuleClass()
        for p in sorted(rule):
            coker = coker + ModuleClass.quot(PRUEFER, p)
        coker = coker + ModuleClass.cyclic(w2, w2.canonical_generator(e))
        return ker, coker
    b, _a = w1.canonical_generator(e).val()   # exponents of y, x; b = 0 once c = 2
    if not rule:
        raise UnsupportedMixedShape(f"no cross-atom rule for {w1} -> {w2}")
    tag = {(0, 1): PRUEFER_X, (1, 2): PRUEFER_Y, (0, 2): QUOT_KV}[(w1.loc_height, w2.loc_height)]
    if tag == PRUEFER_X and b > 0:
        raise UnsupportedMixedShape(f"cross atom {w1} -> {w2} with y-power {b}")
    return ModuleClass(), ModuleClass.quot(tag)


def cone_atom_classes(w1: World, w2: World, a) -> tuple[ModuleClass, ModuleClass]:
    """(middle, bottom) homology classes of the four-cell island

        [W1 --a--> W1]  -->  [W2 --a--> W2]

    (cone of the canonical localization map on a two-term atom), with
    the W1 pair one degree above the W2 pair and a nonzero.
    """
    return _cone_atom(w1, w2, _atom_rule(w1, w2), a)


def _cone_atom(w1: World, w2: World, rule, a) -> tuple[ModuleClass, ModuleClass]:
    if w1.backend == "zint":
        g = w1.canonical_generator(a)
        a_s = 1
        for p, e in factorint(g):
            if p in rule:
                a_s *= p ** e
        mid = ModuleClass.cyclic(w1, a_s) if a_s > 1 else ModuleClass()
        return mid, ModuleClass()
    gen = w1.canonical_generator(a)
    b, _a = gen.val()
    if not rule:
        raise UnsupportedMixedShape(f"no cone-atom rule for {w1} -> {w2}")
    if (w1.loc_height, w2.loc_height) == (0, 1) and b != 0:
        return ModuleClass.quot(PRUEFER_X), ModuleClass.quot(PRUEFER_X)
    return ModuleClass.cyclic(w1, gen), ModuleClass()


# -- the cell-level classifier --------------------------------------------------------


class _Cells:
    """A complex exploded into cells, one per free generator, each
    with its world and degree.  A nonzero entry s -> t, one degree down,
    is stored once and read from both ends: out[s][t] is inn[t][s].
    world, deg, out and inn hold the same cells, so a move reads and
    rewrites only the neighbours of the cells it touches.

    M1's worklist is the heap _heap of (deg, cell), with _queued its
    cells: a live cell off it holds no same-world unit out-entry, so
    popping it in order finds the entry a scan from the lowest cell would.
    A cell found without one leaves it; a cancellation s -> t puts back
    the cells of inn[t] whose entries it rewrote.  M0 and M2 rewrite
    entries anywhere and M2 adds a cell, which may reuse the number of a
    deleted one, so each sets _heap to None and the next M1 rebuilds it
    from every cell."""

    def __init__(self, C: ChainComplex):
        self.world: dict[int, World] = {}
        self.deg: dict[int, int] = {}
        self.out: dict[int, dict[int, object]] = {}
        self.inn: dict[int, dict[int, object]] = {}
        self._heap: list[tuple[int, int]] | None = None
        self._queued: set[int] = set()
        index: dict[tuple[int, int, int], int] = {}
        for n in C.degrees():
            for i, (w, r) in enumerate(C.strand_list(n)):
                for k in range(r):
                    c = index[(n, i, k)] = len(index)
                    self.world[c], self.deg[c], self.out[c], self.inn[c] = w, n, {}, {}
        for (n, i, j), M in C.blocks.items():
            for a, row in enumerate(M):
                for b, e in enumerate(row):
                    if not is_zero_el(e):
                        self.put(index[(n, i, b)], index[(n - 1, j, a)], e)

    def add(self, world: World, deg: int) -> int:
        """A new cell, numbered past every live one."""
        c = max(self.world, default=-1) + 1
        self.world[c], self.deg[c], self.out[c], self.inn[c] = world, deg, {}, {}
        return c

    def put(self, s, t, val):
        self.out[s][t] = self.inn[t][s] = val

    def order(self):
        return sorted(self.world, key=lambda c: (self.deg[c], self.world[c].sort_key(), c))

    def delete(self, c):
        for t in self.out.pop(c):
            del self.inn[t][c]
        for s in self.inn.pop(c):
            del self.out[s][c]
        del self.world[c], self.deg[c]

    def scale(self, c, u):
        """Rescale the basis of cell c by the unit u of its world (u reaches
        each out-entry through the canonical map into its target's world)."""
        w, uinv = self.world[c], inv_el(u)
        for t, e in list(self.out[c].items()):
            self.put(c, t, e * map_act(w, self.world[t], u))
        for s, e in list(self.inn[c].items()):
            self.put(s, c, e * uinv)

    def set_entry(self, s, t, val):
        if is_zero_el(val):
            self.out[s].pop(t, None)
            self.inn[t].pop(s, None)
        elif not mult_map_allowed(self.world[s], self.world[t], val):
            raise UnsupportedMixedShape(
                f"created invalid entry {val}: {self.world[s]} -> {self.world[t]}")
        else:
            self.put(s, t, val)

    # moves ---------------------------------------------------------------------------
    def try_m1(self) -> bool:
        """Cancel a same-world unit entry s -> t, s the first cell by
        (degree, number) to hold one and t its lowest such target."""
        if self._heap is None:
            self._heap = sorted((self.deg[c], c) for c in self.world)
            self._queued = set(self.world)
        while self._heap:
            _, s = heapq.heappop(self._heap)
            self._queued.discard(s)
            if s not in self.world:
                continue
            w = self.world[s]
            t = next((t for t in sorted(self.out[s])
                      if self.world[t] == w and w.is_unit(self.out[s][t])), None)
            if t is None:
                continue
            einv = inv_el(self.out[s][t])
            ins_t = [u for u in self.inn[t] if u != s]
            outs_s = [v for v in self.out[s] if v != t]
            for u in ins_t:
                for v in outs_s:
                    wv = self.world[v]
                    upd = self.out[u].get(v, wv.el_zero())
                    # u -> t, homotopy t -> s over W, then s -> v; the middle
                    # factor passes through the canonical map W -> W_v
                    corr = self.out[s][v] * map_act(w, wv, einv * self.inn[t][u])
                    self.set_entry(u, v, upd - corr)
                if outs_s and u not in self._queued:
                    self._queued.add(u)
                    heapq.heappush(self._heap, (self.deg[u], u))
            self.delete(s)
            self.delete(t)
            return True
        return False

    def try_m0(self) -> bool:
        """Smith-diagonalize one same-world block between degree n and n-1.
        M1 has taken every unit entry, so a block that is already diagonal
        has nothing left to split."""
        groups: dict[tuple[int, World], list[int]] = {}
        for c in self.order():
            groups.setdefault((self.deg[c], self.world[c]), []).append(c)
        for (n, w), src in groups.items():      # in order(), so by degree and world
            tgt = groups.get((n - 1, w))
            if not tgt:
                continue
            entries = [(s, t) for s in src for t in self.out[s] if t in tgt]
            if len({s for s, _ in entries}) == len(entries) == len({t for _, t in entries}):
                continue
            B = [[self.out[s].get(t, w.el_zero()) for s in src] for t in tgt]
            D, ops = snf(B, w)
            for s, t in entries:    # the block becomes D; the record is replayed on the rest
                del self.out[s][t], self.inn[t][s]
            for op in ops:
                kind, i = op[0], op[1]
                if kind == "col_add":      # source j becomes e_j + c e_i
                    self._add_multiple(src[i], src[op[2]], op[3])
                elif kind == "row_add":    # y_j += c y_i: target i becomes e_i - c e_j
                    self._add_multiple(tgt[op[2]], tgt[i], -op[3])
                elif kind == "col_swap":
                    src[i], src[op[2]] = src[op[2]], src[i]
                elif kind == "row_swap":
                    tgt[i], tgt[op[2]] = tgt[op[2]], tgt[i]
                else:                      # y_i *= u: target i becomes e_i / u
                    self.scale(tgt[i], inv_el(op[2]))
            for i in range(min(len(src), len(tgt))):
                self.set_entry(src[i], tgt[i], D[i][i])
            self._heap = None
            return True
        return False

    def _add_multiple(self, a, b, c):
        """The basis change e_b -> e_b + c e_a on two cells of one world and
        degree: b's out-entries gain c times a's (c passing through the
        canonical map into each target's world), a's in-entries lose c
        times b's."""
        w = self.world[a]
        for t, e in self.out[a].items():
            wt = self.world[t]
            self.set_entry(b, t, self.out[b].get(t, wt.el_zero()) + e * map_act(w, wt, c))
        for s, e in self.inn[b].items():
            self.set_entry(s, a, self.inn[a].get(s, w.el_zero()) - c * e)

    def try_m2(self) -> bool:
        for t in self.order():
            ins_t = self.inn[t]
            if len(ins_t) != 2 or self.out[t]:
                continue
            s1, s2 = sorted(ins_t, key=lambda c: (self.world[c].sort_key(), c))
            w1, w2, wt = self.world[s1], self.world[s2], self.world[t]
            if w1 == w2 or w1 == wt or w2 == wt:
                continue
            pull = fracture_pullback(w1, w2, wt)
            if pull is None:
                pull = fracture_pullback(w2, w1, wt)
            if pull is None:
                continue
            if not (wt.is_unit(ins_t[s1]) and wt.is_unit(ins_t[s2])):
                continue
            self.scale(t, ins_t[s1])  # in-entries of t scale by 1/e1
            v = -inv_el(ins_t[s2])
            if not w2.is_unit(v):
                raise UnsupportedMixedShape("fracture unit twist not liftable")
            self.scale(s2, v)
            # now d[s1,t] = 1, d[s2,t] = -1; kernel is the diagonal copy of pull
            new = self.add(pull, self.deg[s1])
            for u in set(self.inn[s1]) | set(self.inn[s2]):
                c1 = self.out[u].get(s1, w1.el_zero())
                c2 = self.out[u].get(s2, w2.el_zero())
                cand = None
                for c in (c2, c1):
                    if not pull.contains(c):
                        continue
                    if carrier_act(pull, w1, c) == c1 and carrier_act(pull, w2, c) == c2:
                        cand = c
                        break
                if cand is None:
                    raise UnsupportedMixedShape("fracture collapse entries inconsistent")
                if not is_zero_el(cand):
                    self.set_entry(u, new, cand)
            # out-entries: sum of the two projections
            for vcell in set(self.out[s1]) | set(self.out[s2]):
                if vcell == t:
                    continue
                b1 = self.out[s1].get(vcell, self.world[vcell].el_zero())
                b2 = self.out[s2].get(vcell, self.world[vcell].el_zero())
                self.set_entry(new, vcell, b1 + b2)
            self.delete(s1)
            self.delete(s2)
            self.delete(t)
            self._heap = None
            return True
        return False

    def components(self):
        seen = set()
        comps = []
        for c in self.order():
            if c in seen:
                continue
            comp = {c}
            todo = [c]
            while todo:
                x = todo.pop()
                for nxt in (*self.out[x], *self.inn[x]):
                    if nxt not in comp:
                        comp.add(nxt)
                        todo.append(nxt)
            seen |= comp
            comps.append(sorted(comp))
        return comps

    def harvest_component(self, comp) -> GradedClasses | None:
        """Classify an isolated island, or None if unrecognized."""
        if len(comp) == 1:
            c = comp[0]
            return GradedClasses({self.deg[c]: ModuleClass.free(self.world[c])})
        entries = {(s, t): v for s in comp for t, v in self.out[s].items()}
        if len(comp) == 2:
            if len(entries) != 1:
                return None
            (s, t), v = next(iter(entries.items()))
            w1, w2 = self.world[s], self.world[t]
            if w1 == w2:
                # same-world pair: plain cyclic quotient
                return GradedClasses({self.deg[t]: ModuleClass.cyclic(w1, v)})
            ker, coker = cross_atom_classes(w1, w2, v)
            return GradedClasses({self.deg[s]: ker, self.deg[t]: coker})
        if len(comp) == 4:
            by_world: dict[World, list[int]] = {}
            for c in comp:
                by_world.setdefault(self.world[c], []).append(c)
            if len(by_world) != 2:
                return None
            (wa, ca), (wb, cb) = by_world.items()
            if len(ca) != 2 or len(cb) != 2:
                return None
            ca.sort(key=lambda c: -self.deg[c])
            cb.sort(key=lambda c: -self.deg[c])
            if self.deg[ca[0]] < self.deg[cb[0]]:
                (wa, ca), (wb, cb) = (wb, cb), (wa, ca)
            # expect wa pair at (m, m-1), wb at (m-1, m-2)
            m = self.deg[ca[0]]
            if [self.deg[ca[1]], self.deg[cb[0]], self.deg[cb[1]]] != [m - 1, m - 1, m - 2]:
                return None
            if not canonical_map_exists(wa, wb):
                return None
            a1 = entries.get((ca[0], ca[1]))
            a2 = entries.get((cb[0], cb[1]))
            e1 = entries.get((ca[0], cb[0]))
            e2 = entries.get((ca[1], cb[1]))
            if None in (a1, a2, e1, e2) or len(entries) != 4:
                return None
            if not (wb.is_unit(e1) and wb.is_unit(e2)):
                return None
            mid, bot = cone_atom_classes(wa, wb, a1)
            return GradedClasses({m - 1: mid, m - 2: bot})
        return None

    def reduce(self):
        """Run the moves until none applies."""
        while self.world and (self.try_m1() or self.try_m2() or self.try_m0()):
            pass

    def classify(self) -> GradedClasses:
        self.reduce()
        total = GradedClasses()
        for comp in self.components():
            got = self.harvest_component(comp)
            if got is None:
                shapes = sorted((self.deg[c], self.world[c].name) for c in comp)
                raise UnsupportedMixedShape(f"unrecognized island {shapes}")
            total = total + got
        return total


def homology(C: ChainComplex) -> GradedClasses:
    """Classify the homology of an adelically shaped complex."""
    return _Cells(C).classify()


def is_acyclic(C: ChainComplex) -> bool:
    return homology(C).is_zero()
