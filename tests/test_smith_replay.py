"""The Smith record replayed, against the dense transforms it replaced.

snf used to return A = U D Vt; the classifier's M0 inverted U and Vt
(Gauss-Jordan over the fraction field) and rewrote the cells of a block
through a dense change of basis, and single-world complexes were split
by a separate dense loop: every differential flattened by full_matrix,
one SNF per degree, d_{n+2} multiplied by Vt.  The reference below
keeps literal copies of that `_change_basis`, `_invert_elementary`,
`full_matrix` and loop, rebuilds U and Vt by replaying the record on
identities as the old snf built them, and checks:

- after every M0 move, the cell graph equals the one the dense rewrite
  gives on the same cells.  A swap in the record now exchanges which
  cells play two positions instead of moving their entries, so the
  graphs are compared after renaming the cells the swaps moved;
- for every single-world complex, the atoms decompose_single reads off
  the reduction give the same atom_classes as the dense loop's atoms,
  alone and against every localization of the world (and of each of its
  localizations) that a Site reads.  The atom lists themselves differ:
  decompose_single no longer lists the unit atoms M1 cancels.

Inputs: every complex the classifier is handed (homology and
decompose_single both build one _Cells) while tors, reconstruct and
reconstruct_limit read the library objects and seeded random_complex
objects on both backends, among them the first 16 objects of the bench
`random` stream (five of which the classifier refuses); and plain and
scrambled single-world sums of 8 and 16 one-atom draws.
"""

import copy
import functools
import importlib
import itertools
import random
import re

import pytest

from adeltors.adelic import reconstruct_limit
from adeltors.homology import UnsupportedMixedShape, atom_classes
from adeltors.library import library, merge_strands, random_complex, randomize_basis
from adeltors.linalg import mat_id, mat_mul, snf
from adeltors.localize import UnsupportedRegionError
from adeltors.posets import down_closure
from adeltors.torsion import reconstruct, tors
from adeltors.worlds import World, inv_el, is_zero_el, map_act

homology_module = importlib.import_module("adeltors.homology")


# -- the reference: dense transforms as they were --------------------------------------

def _transforms(ops, m, n, w):
    """(U, Vt) with B = U D Vt, built by replaying the record on identities
    the way snf used to update them."""
    U, Vt = mat_id(m, w.el_one()), mat_id(n, w.el_one())
    for op in ops:
        kind, i, j = op[0], op[1], op[2]
        if kind == "row_add":
            for t in range(m):
                U[t][i] = U[t][i] - op[3] * U[t][j]
        elif kind == "col_add":
            Vt[i] = [a - op[3] * b for a, b in zip(Vt[i], Vt[j])]
        elif kind == "row_swap":
            for row in U:
                row[i], row[j] = row[j], row[i]
        elif kind == "col_swap":
            Vt[i], Vt[j] = Vt[j], Vt[i]
        else:
            for t in range(m):
                U[t][i] = U[t][i] * inv_el(j)
    return U, Vt


def _invert_elementary(M, w: World):
    """Invert a world-unimodular matrix: Gauss over the fraction field,
    then check the inverse lives over the world."""
    n = len(M)
    A = [list(row) + [w.el_one() if i == j else w.el_zero() for j in range(n)]
         for i, row in enumerate(M)]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if not is_zero_el(A[r][col]):
                piv = r
                break
        if piv is None:
            raise UnsupportedMixedShape("matrix not invertible over world")
        A[col], A[piv] = A[piv], A[col]
        pv = A[col][col]
        pinv = inv_el(pv)
        A[col] = [e * pinv for e in A[col]]
        for r in range(n):
            if r != col and not is_zero_el(A[r][col]):
                f = A[r][col]
                A[r] = [A[r][k] - f * A[col][k] for k in range(2 * n)]
    out = [row[n:] for row in A]
    for row in out:
        for e in row:
            if not w.contains(e):
                raise UnsupportedMixedShape("matrix not invertible over world")
    return out


def _change_basis(self, cells, P, Pinv, w):
    """New coordinates z' = P z on the listed same-world, same-degree cells.

    An entry column c into the cells becomes P c; an entry row r out
    of the cells becomes r Pinv (P-entries pass through the canonical
    map into each target's world).
    """
    k = len(cells)
    incoming = {}
    for i, c in enumerate(cells):
        for s, e in self.inn[c].items():
            incoming.setdefault(s, [w.el_zero()] * k)[i] = e
            del self.out[s][c]
        self.inn[c] = {}
    for s, col in incoming.items():
        for i, c in enumerate(cells):
            self.set_entry(s, c, sum((P[i][j] * col[j] for j in range(k)), w.el_zero()))
    outgoing = {}
    for i, c in enumerate(cells):
        for t, e in self.out[c].items():
            outgoing.setdefault(t, [self.world[t].el_zero()] * k)[i] = e
            del self.inn[t][c]
        self.out[c] = {}
    for t, row in outgoing.items():
        wt = self.world[t]
        for i, c in enumerate(cells):
            self.set_entry(c, t, sum((row[j] * map_act(w, wt, Pinv[j][i])
                                      for j in range(k)), wt.el_zero()))


def _dense_m0(cells):
    """The old try_m0 on the same block: the group choice, then the dense
    rewrite.  Returns the block's cell lists and the record."""
    groups = {}
    for c in cells.order():
        groups.setdefault((cells.deg[c], cells.world[c]), []).append(c)
    for (n, w), src in sorted(groups.items(), key=lambda kv: (kv[0][0], kv[0][1].sort_key())):
        tgt = groups.get((n - 1, w))
        if not tgt:
            continue
        entries = [(s, t) for s in src for t in cells.out[s] if t in tgt]
        if len({s for s, _ in entries}) == len(entries) == len({t for _, t in entries}):
            continue
        B = [[cells.out[s].get(t, w.el_zero()) for s in src] for t in tgt]
        D, ops = snf(B, w)
        U, Vt = _transforms(ops, len(tgt), len(src), w)
        assert mat_mul(mat_mul(U, D), Vt) == B
        Uinv = _invert_elementary(U, w)
        Vtinv = _invert_elementary(Vt, w)
        # rewrite: src coords x' = Vt x, tgt coords y' = Uinv y
        _change_basis(cells, src, Vt, Vtinv, w)
        _change_basis(cells, tgt, Uinv, U, w)
        return src, tgt, ops
    return None


def full_matrix(C, n):
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


def _dense_decompose(C):
    """decompose_single as it was: d_{n+2} multiplied by the dense Vt."""
    w = C.single_world()
    if C.is_empty():
        return []
    degs = C.degrees()
    lo, hi = degs[0], degs[-1]
    mats = {n: full_matrix(C, n) for n in range(lo + 1, hi + 1)
            if C.rank(n) and C.rank(n - 1)}
    ranks = {n: C.rank(n) for n in degs}
    atoms = []
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
        _, Vt = _transforms(ops, len(d), len(d[0]), w)
        if (n + 2) in mats:
            mats[n + 2] = mat_mul(Vt, mats[n + 2])
        r = 0
        for i in range(min(len(D), len(D[0]) if D else 0)):
            if not is_zero_el(D[i][i]):
                atoms.append((n + 1, D[i][i]))
                r += 1
        atoms.extend((n, None) for _ in range(ranks[n] - r))
        ranks[n] = 0
        ranks[n + 1] = ranks.get(n + 1, 0) - r
        if (n + 2) in mats:
            mats[n + 2] = mats[n + 2][r:]
        mats.pop(n + 1, None)
        n += 1
    return atoms


# -- the comparison ---------------------------------------------------------------------

def _graph(cells, rename=None):
    f = (rename or {}).get
    return ({f(c, c): (cells.deg[c], cells.world[c]) for c in cells.world},
            {f(s, s): {f(t, t): e for t, e in row.items()} for s, row in cells.out.items()},
            {f(t, t): {f(s, s): e for s, e in col.items()} for t, col in cells.inn.items()})


def _swap_renaming(src, tgt, ops):
    """The cell playing each position after the record's swaps, renamed
    to the cell the dense rewrite leaves in that position."""
    moved = {"col_swap": list(src), "row_swap": list(tgt)}
    for op in ops:
        if op[0] in moved:
            cells, i, j = moved[op[0]], op[1], op[2]
            cells[i], cells[j] = cells[j], cells[i]
    return {**dict(zip(moved["col_swap"], src)), **dict(zip(moved["row_swap"], tgt))}


def _sums(site, rng, n):
    """A plain sum of n one-atom draws, strands merged, and a scramble of it."""
    plain = functools.reduce(lambda X, Y: X.dsum(Y),
                             (random_complex(rng, site.base, primes=(2, 3), atoms=1)
                              for _ in range(n)))
    return [merge_strands(plain), randomize_basis(plain, rng, steps=2 * n)]


def _inputs(zsite, zcube, vsite, vcube, monkeypatch):
    """(mixed, single-world) complexes handed to the classifier over the
    round trips of the inputs, then the sums of 8 and 16 atoms."""
    seen = []

    class Recording(homology_module._Cells):
        def __init__(self, C):
            seen.append(C)
            super().__init__(C)
    monkeypatch.setattr(homology_module, "_Cells", Recording)
    rng = random.Random(20261019)
    sums = []
    for site, cube in ((zsite, zcube), (vsite, vcube)):
        bench = random.Random(f"20260801-{site.backend}-[('atoms', 4), ('primes', (2, 3))]")
        objs = [X for _, X in library(site)]
        objs += [random_complex(bench, site.base, primes=(2, 3), atoms=4) for _ in range(16)]
        for _ in range(32):
            X, Y = (random_complex(rng, site.base, primes=(2, 3), atoms=2) for _ in "XY")
            objs.append(randomize_basis(X.dsum(Y), rng, steps=8))
        for X in objs:
            try:
                reconstruct(site, tors(site, X, cube), X, cube)
                reconstruct_limit(cube.tensor(X), X)
            except UnsupportedMixedShape:
                pass
        sums += _sums(site, rng, 8) + _sums(site, rng, 16)
    monkeypatch.undo()
    mixed = [C for C in seen if C.single_world() is None and not C.is_empty()]
    return mixed, [C for C in seen if C.single_world() is not None] + sums


def _inversion_sets(site):
    """S_V for every region V the site realizes, other than the whole
    poset (where Gamma_V is the identity)."""
    elements = sorted(site.poset.elements)
    found = set()
    for k in range(len(elements) + 1):
        for pick in itertools.combinations(elements, k):
            try:
                S = site.inversion_set(down_closure(site.poset, pick).members)
            except UnsupportedRegionError:
                continue
            if S is not None:
                found.add(S)
    return found


def _atom_outcomes(atoms, w, site, sets):
    """atom_classes of the atoms over w and over each nonzero localization
    w' of w, alone and against each localization of w' a Site reads."""
    out = []
    for wl in sorted({w} | {site.localize_op(S)(w) for S in sets}, key=lambda v: v.sort_key()):
        if wl.is_zero_world:
            continue
        out.append(repr(atom_classes(wl, atoms)))
        for S in sorted(sets, key=sorted):
            wloc = site.localize_op(S)(wl)
            if wloc == wl or wloc.is_zero_world:
                continue
            try:
                out.append((S, repr(atom_classes(wl, atoms, wloc))))
            except UnsupportedMixedShape as err:
                out.append((S, "refused", str(err)))
    return out


def test_record_replays_as_the_dense_transforms(zsite, zcube, vsite, vcube, monkeypatch):
    mixed, single = _inputs(zsite, zcube, vsite, vcube, monkeypatch)
    moves = refused = 0
    for C in mixed + single:
        cells = homology_module._Cells(C)
        try:
            while cells.world:
                if cells.try_m1() or cells.try_m2():
                    continue
                dense_cells = copy.deepcopy(cells)
                try:
                    moved = cells.try_m0()
                except UnsupportedMixedShape as exc:
                    with pytest.raises(UnsupportedMixedShape, match=re.escape(str(exc))):
                        _dense_m0(dense_cells)
                    raise
                dense = _dense_m0(dense_cells)
                if not moved:
                    assert dense is None
                    break
                assert _graph(cells, _swap_renaming(*dense)) == _graph(dense_cells), C
                moves += 1
        except UnsupportedMixedShape:
            refused += 1
    assert moves > 80 and refused, (moves, refused)
    sites = {"zint": (zsite, _inversion_sets(zsite)), "valrank2": (vsite, _inversion_sets(vsite))}
    reads = 0
    for C in single:
        w = C.single_world()
        site, sets = sites[C.backend]
        got = _atom_outcomes(homology_module.decompose_single(C), w, site, sets)
        assert got == _atom_outcomes(_dense_decompose(C), w, site, sets), C
        reads += len(got)
    assert len(single) > 300 and reads > 2000, (len(single), reads)
