"""Homology classification of complexes over catalogue worlds.

Single-world complexes go through one Smith reduction (Kaczynski-Mrozek-
Slusarek): decompose_single splits them, one SNF per degree, into free
generators and two-term atoms [W --a--> W], and atom_classes reads the
homology off those atoms as free and cyclic pieces -- and, since a
localization of W is flat, the homology of every localization and the
classes of every torsion part of the complex too.

Mixed ("adelically shaped") complexes reduce by a deterministic loop of
moves on an exploded cell presentation (one cell per free generator):

  M1  cancel a same-world unit entry (Gaussian / discrete-Morse step);
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

Every fracture triple and island rule is validated independently by the
residue-truncation oracle in the test suite; the classifier refuses
(UnsupportedMixedShape) rather than guess on anything outside the table.
"""

from __future__ import annotations

from .classes import GradedClasses, ModuleClass, PRUEFER, PRUEFER_X, PRUEFER_Y, QUOT_KV
from .complexes import ChainComplex
from .linalg import snf
from .worlds import (World, canonical_map_exists, carrier_act, factorint, fracture_pullback,
                     inv_el, is_zero_el, map_act, mult_map_allowed)


class UnsupportedMixedShape(ValueError):
    pass


def full_matrix(C: ChainComplex, n: int):
    """The full differential C_n -> C_{n-1} with strand structure flattened.

    Only valid when both degrees live over a single world.
    """
    rows, cols = C.rank(n - 1), C.rank(n)
    worlds = {w for w, _ in C.strand_list(n)} | {w for w, _ in C.strand_list(n - 1)}
    if len(worlds) > 1:
        raise UnsupportedMixedShape("full_matrix needs a single world")
    w = next(iter(worlds)) if worlds else None
    z = w.el_zero() if w else 0
    M = [[z for _ in range(cols)] for _ in range(rows)]
    coff = 0
    for i, (_, ri) in enumerate(C.strand_list(n)):
        roff = 0
        for j, (_, rj) in enumerate(C.strand_list(n - 1)):
            B = C.blocks.get((n, i, j))
            if B is not None:
                for a in range(rj):
                    for b in range(ri):
                        M[roff + a][coff + b] = B[a][b]
            roff += rj
        coff += ri
    return M


def atom_classes(w: World, atoms, wloc: World | None = None) -> GradedClasses:
    """Fold atoms of decompose_single over w into homology classes: of
    the complex itself, or with wloc, of the fibre of W -> wloc (torsion
    and cones commute with direct sums, so the rank-one rules are exact).

    Alone, a lone [W] in degree t gives Free(W) in degree t, and
    [W --a--> W] with top degree t gives W/(a) in degree t-1 (nothing
    for a unit a; every catalogue world is a domain).  With wloc, a lone
    [W] gives the cross-atom classes in degrees t and t-1, a two-term
    atom the cone-atom classes in t-1 and t-2."""
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
    """Split a single-world complex into rank-one atoms.

    Returns a list of (top_degree, a): a two-term atom [W --a--> W] in
    degrees (top, top-1) for nonzero a, or a lone free generator [W] in
    degree top when a is None.  The direct sum of the atoms is
    isomorphic to C; over an elementary-divisor world this always works.
    """
    w = C.single_world()
    if C.is_empty():
        return []
    if w is None:
        raise UnsupportedMixedShape("decompose needs a single world")
    degs = C.degrees()
    lo, hi = degs[0], degs[-1]
    mats = {n: full_matrix(C, n) for n in range(lo + 1, hi + 1)
            if C.rank(n) and C.rank(n - 1)}
    ranks = {n: C.rank(n) for n in degs}
    atoms: list[tuple[int, object]] = []
    n = lo
    while n <= hi:
        r_n = ranks.get(n, 0)
        if r_n == 0:
            n += 1
            continue
        d = mats.get(n + 1)
        if d is None:
            atoms.extend((n, None) for _ in range(r_n))
            ranks[n] = 0
            n += 1
            continue
        D, ops = snf(d, w)
        # change basis upstairs: a column operation on d_{n+1} is a change
        # of basis of C_{n+1}, so d_{n+2} takes it as the inverse row operation
        up = mats.get(n + 2)
        if up is not None:
            for op in ops:
                if op[0] == "col_add":
                    _, i, j, c = op
                    up[i] = [a - c * b for a, b in zip(up[i], up[j])]
                elif op[0] == "col_swap":
                    up[op[1]], up[op[2]] = up[op[2]], up[op[1]]
        r = 0
        for i in range(min(len(D), len(D[0]) if D else 0)):
            if not is_zero_el(D[i][i]):
                atoms.append((n + 1, D[i][i]))
                r += 1
        atoms.extend((n, None) for _ in range(ranks[n] - r))
        ranks[n] = 0
        ranks[n + 1] = ranks.get(n + 1, 0) - r
        if (n + 2) in mats:
            mats[n + 2] = mats[n + 2][r:]  # drop rows paired off
        mats.pop(n + 1, None)
        n += 1
    return atoms


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
    """A mixed complex exploded into cells, one per free generator, each
    with its world and degree.  A nonzero entry s -> t, one degree down,
    is stored once and read from both ends: out[s][t] is inn[t][s].
    world, deg, out and inn hold the same cells, so a move reads and
    rewrites only the neighbours of the cells it touches."""

    def __init__(self, C: ChainComplex):
        self.world: dict[int, World] = {}
        self.deg: dict[int, int] = {}
        self.out: dict[int, dict[int, object]] = {}
        self.inn: dict[int, dict[int, object]] = {}
        index = {(n, i, k): self.add(w, n) for n in C.degrees()
                 for i, (w, r) in enumerate(C.strand_list(n)) for k in range(r)}
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
        for s in sorted(self.world, key=lambda c: (self.deg[c], c)):
            w = self.world[s]
            for t in sorted(self.out[s]):
                e = self.out[s][t]
                if self.world[t] != w or not w.is_unit(e):
                    continue
                einv = inv_el(e)
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
        for (n, w), src in sorted(groups.items(),
                                  key=lambda kv: (kv[0][0], kv[0][1].sort_key())):
            tgt = groups.get((n - 1, w))
            if not tgt:
                continue
            entries = [(s, t) for s in src for t in self.out[s] if t in tgt]
            if len({s for s, _ in entries}) == len(entries) == len({t for _, t in entries}):
                continue
            B = [[self.out[s].get(t, w.el_zero()) for s in src] for t in tgt]
            # replay the reduction on the cells: a column operation changes
            # the basis of the sources, a row operation that of the targets
            for op in snf(B, w)[1]:
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

    def classify(self) -> GradedClasses:
        while self.world and (self.try_m1() or self.try_m2() or self.try_m0()):
            pass
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
    if C.is_empty():
        return GradedClasses()
    w = C.single_world()
    if w is not None:
        return atom_classes(w, decompose_single(C))
    return _Cells(C).classify()


def is_acyclic(C: ChainComplex) -> bool:
    return homology(C).is_zero()
