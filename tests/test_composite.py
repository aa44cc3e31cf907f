"""The block-composition kernel against the dense loops it replaced.

complexes._composite walks only the nonzero block pairs.  The reference
here is the earlier code, kept as it was: _compose_blocks and the dense
(n, i, k) loops of ChainComplex._validate, ChainMap.is_chain_map,
compose and homotopy_defect, which allocate a zero matrix for every
strand pair.  On seeded complexes and maps on both backends the two
agree on whether validation raises and with what message, on
is_chain_map, on the blocks of compose and on homotopy_defect.  The
inputs include random_complex draws, the structure maps, cones and
torsion diagrams of library objects, a twisted valrank2 block (no
canonical map) and blocks into VhatM where y goes to 0, so a kernel
that skips the transport, or applies it to a twisted block, disagrees.
The same maps check the cone layout that complexes._d_at owns.
"""

import ast
import os
import random

import pytest

import adeltors
from adeltors import shapes
from adeltors.complexes import (DEGREE_HI, DEGREE_LO, ChainComplex, ChainMap, ShapeError,
                                _check_blocks, _d_at, compose, cone, cone_inclusion,
                                cone_null_homotopy, fib, fib_projection, homotopy_defect)
from adeltors.library import library, random_complex
from adeltors.linalg import mat_mul
from adeltors.ratfunc import x as rx, y as ry
from adeltors.torsion import tors
from adeltors.worlds import (VAL, canonical_map_exists, carrier_block, is_zero_el,
                             mult_map_allowed)


# -- the dense reference ------------------------------------------------------------

def _zeros(world, rows, cols):
    z = world.el_zero()
    return [[z for _ in range(cols)] for _ in range(rows)]


def _is_zero_mat(M):
    return all(is_zero_el(e) for row in M for e in row)


def _compose_blocks(acc, sign, first, n1, second, n2, i, k, mids, wk):
    for j, (wj, _) in enumerate(mids):
        M1 = first.get((n1, i, j))
        M2 = second.get((n2, j, k))
        if M1 is None or M2 is None:
            continue
        if canonical_map_exists(wj, wk):
            M1 = carrier_block(wj, wk, M1)
        P = mat_mul(M2, M1)
        if sign > 0:
            acc = [[a + p for a, p in zip(ra, rp)] for ra, rp in zip(acc, P)]
        else:
            acc = [[a - p for a, p in zip(ra, rp)] for ra, rp in zip(acc, P)]
    return acc


def _map_block(f, n, i, j):
    hit = f.blocks.get((n, i, j))
    if hit is not None:
        return hit
    tgt = f.dst.strand_list(n)[j]
    src = f.src.strand_list(n)[i]
    return _zeros(tgt[0], tgt[1], src[1])


def _dense_validate(self):
    _check_blocks(self.blocks, self, self, 1)
    for n in self.degrees():
        if (n - 1) not in self.strands or (n - 2) not in self.strands:
            continue
        mids = self.strand_list(n - 1)
        for i, (_, ri) in enumerate(self.strand_list(n)):
            for k, (wk, rk) in enumerate(self.strand_list(n - 2)):
                dd = _compose_blocks(_zeros(wk, rk, ri), 1, self.blocks, n,
                                     self.blocks, n - 1, i, k, mids, wk)
                if not _is_zero_mat(dd):
                    raise ShapeError(f"d o d != 0 between degrees {n} and {n-2}")


def _dense_is_chain_map(self):
    src, dst = self.src, self.dst
    for n in set(list(src.strands) + list(dst.strands)):
        for i, (_, ri) in enumerate(src.strand_list(n)):
            for k, (wk, rk) in enumerate(dst.strand_list(n - 1)):
                acc = _compose_blocks(_zeros(wk, rk, ri), 1, src.blocks, n,
                                      self.blocks, n - 1, i, k, src.strand_list(n - 1), wk)
                acc = _compose_blocks(acc, -1, self.blocks, n,
                                      dst.blocks, n, i, k, dst.strand_list(n), wk)
                if not _is_zero_mat(acc):
                    return False
    return True


def _dense_compose(g, f):
    blocks = {}
    for n in f.src.degrees():
        mids = f.dst.strand_list(n)
        for i, (_, ri) in enumerate(f.src.strand_list(n)):
            for k, (wk, rk) in enumerate(g.dst.strand_list(n)):
                acc = _compose_blocks(_zeros(wk, rk, ri), 1, f.blocks, n,
                                      g.blocks, n, i, k, mids, wk)
                if not _is_zero_mat(acc):
                    blocks[(n, i, k)] = acc
    return ChainMap(f.src, g.dst, blocks, check=False)


def _dense_homotopy_defect(f, g, h_blocks):
    C, E = f.src, g.dst
    gf = _dense_compose(g, f)
    for n in C.degrees():
        for i, (_, ri) in enumerate(C.strand_list(n)):
            for k, (wk, rk) in enumerate(E.strand_list(n)):
                acc = _compose_blocks(_zeros(wk, rk, ri), 1, h_blocks, n,
                                      E.blocks, n + 1, i, k, E.strand_list(n + 1), wk)
                acc = _compose_blocks(acc, 1, C.blocks, n,
                                      h_blocks, n - 1, i, k, C.strand_list(n - 1), wk)
                if acc != _map_block(gf, n, i, k):
                    return False
    return True


# -- inputs ---------------------------------------------------------------------------

def _doubled(blocks, which=0):
    """A copy of blocks with the first nonzero entry of block number
    `which` (in key order, cyclically) doubled."""
    out = {key: [list(row) for row in M] for key, M in blocks.items()}
    keys = sorted(out)
    if not keys:
        return out
    for row in out[keys[which % len(keys)]]:
        for b, e in enumerate(row):
            if not is_zero_el(e):
                row[b] = e + e
                return out
    return out


def _hand_cases():
    """valrank2 blocks where the transport decides: y -> 0 into VhatM, and
    a twisted VhatP -> VhatPFull multiplication map."""
    V, VM, VP, VPF = VAL("V"), VAL("VhatM"), VAL("VhatP"), VAL("VhatPFull")
    assert canonical_map_exists(V, VM) and not canonical_map_exists(VP, VPF)
    assert mult_map_allowed(VP, VPF, ry())
    one, x, y = V.el_one(), rx(), ry()
    # V --y--> V --1--> VhatM: d o d = 0 only because y -> 0
    killed = ChainComplex("valrank2", {2: [(V, 1)], 1: [(V, 1)], 0: [(VM, 1)]},
                          {(2, 0, 0): [[y]], (1, 0, 0): [[one]]}, check=False)
    # VhatP --x--> VhatP --y--> VhatPFull: the twisted y acts on x as it is
    twisted = ChainComplex("valrank2", {1: [(VP, 1)], 0: [(VP, 1)], -1: [(VPF, 1)]},
                           {(1, 0, 0): [[x]], (0, 0, 0): [[y]]}, check=False)
    uV, uVM, uVP, uVPF = (ChainComplex.unit(w) for w in (V, VM, VP, VPF))
    times_y = ChainMap(uV, uV, {(0, 0, 0): [[y]]})
    to_vm = ChainMap(uV, uVM, {(0, 0, 0): [[one]]})
    ident_p = ChainMap(uVP, uVP, {(0, 0, 0): [[one]]})
    twist = ChainMap(uVP, uVPF, {(0, 0, 0): [[y]]})
    times_x = ChainMap(uVPF, uVPF, {(0, 0, 0): [[x]]})
    # V --y--> V  to  VhatM  VhatM (zero differential): a chain map only as y -> 0
    A = ChainComplex("valrank2", {1: [(V, 1)], 0: [(V, 1)]}, {(1, 0, 0): [[y]]})
    B = ChainComplex("valrank2", {1: [(VM, 1)], 0: [(VM, 1)]}, {})
    collapse = ChainMap(A, B, {(1, 0, 0): [[one]], (0, 0, 0): [[one]]}, check=False)
    complexes = [killed, twisted]
    maps = [times_y, to_vm, ident_p, twist, times_x, collapse]
    pairs = [(to_vm, times_y), (twist, ident_p), (times_x, twist)]
    return complexes, maps, pairs


@pytest.fixture(scope="module", params=["zint", "valrank2"])
def inputs(request, zsite, zcube, vsite, vcube):
    """(complexes, maps, composable pairs (g, f), homotopy triples (f, g, h))
    for one backend."""
    site, cube = (zsite, zcube) if request.param == "zint" else (vsite, vcube)
    rng = random.Random(20261019)
    complexes = [random_complex(rng, site.base, primes=site.T, atoms=rng.randint(1, 4))
                 for _ in range(12)]
    maps, pairs, triples = [], [], []
    for _, X in library(site):
        complexes.append(X)
        TD = tors(site, X, cube)
        for D in (cube.tensor(X), TD):
            complexes.extend(D.values.values())
            for (_, m), f in D.maps.items():
                maps.append(f)
                pairs.extend((g, f) for (m2, _), g in D.maps.items() if m2 == m)
                incl = cone_inclusion(f)
                complexes.append(cone(f))
                maps.extend([incl, fib_projection(f)])
                pairs.append((incl, f))
                triples.append((f, incl, cone_null_homotopy(f)))
        # the homotopies the cofibre layers of tors(X) are checked with
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(shapes, "homotopy_defect",
                       lambda f, g, h: triples.append((f, g, h)) or homotopy_defect(f, g, h))
            for k in range(max(TD.shape.d - 1, 0)):
                shapes.is_cofibre_layer(TD, k)
    if site.backend == "valrank2":
        more_c, more_m, more_p = _hand_cases()
        complexes += more_c
        maps += more_m
        pairs += more_p
    return complexes, maps, pairs, triples


def _raised(fn, *args):
    try:
        fn(*args)
    except ValueError as err:
        return type(err).__name__, str(err)
    return None


# -- the kernel agrees with the reference --------------------------------------------

def test_validate_raises_as_before(inputs):
    complexes = inputs[0]
    raised = 0
    for which, C in enumerate(complexes):
        for blocks in (C.blocks, _doubled(C.blocks, which)):
            D = ChainComplex(C.backend, C.strands, blocks, check=False)
            want = _raised(_dense_validate, D)
            assert _raised(D._validate) == want
            raised += want is not None
    assert 0 < raised < 2 * len(complexes)


def test_is_chain_map_as_before(inputs):
    maps = inputs[1]
    verdicts = set()
    for which, f in enumerate(maps):
        for blocks in (f.blocks, _doubled(f.blocks, which)):
            g = ChainMap(f.src, f.dst, blocks, check=False)
            want = _dense_is_chain_map(g)
            assert g.is_chain_map() == want
            verdicts.add(want)
    assert verdicts == {True, False}


def test_compose_as_before(inputs):
    pairs = inputs[2]
    nonempty = 0
    for which, (g, f) in enumerate(pairs):
        f2 = ChainMap(f.src, f.dst, _doubled(f.blocks, which), check=False)
        for first in (f, f2):
            want = _dense_compose(g, first).blocks
            assert compose(g, first).blocks == want
            nonempty += bool(want)
    assert nonempty


def test_homotopy_defect_as_before(inputs):
    triples = inputs[3]
    verdicts = set()
    for which, (f, g, h) in enumerate(triples):
        for blocks in (h, _doubled(h, which)):
            want = _dense_homotopy_defect(f, g, blocks)
            assert homotopy_defect(f, g, blocks) == want
            verdicts.add(want)
    assert verdicts == {True, False}


def test_cone_layout_is_read_off_d_at(inputs):
    """cone(f)_n is C_{n-1} followed by D_n from strand _d_at(f, n) on,
    and fib(f) is that one degree down."""
    for f in inputs[1]:
        c = cone(f)
        for n in range(DEGREE_LO, DEGREE_HI + 1):
            at = _d_at(f, n)
            assert c.strand_list(n)[:at] == f.src.strand_list(n - 1)
            assert c.strand_list(n)[at:] == f.dst.strand_list(n)
            assert fib(f).strand_list(n - 1) == c.strand_list(n)


def test_transport_decides_the_hand_cases():
    """The y -> 0 cases compose to zero and the twisted y acts unchanged."""
    complexes, maps, pairs = _hand_cases()
    killed, twisted = complexes
    assert _raised(killed._validate) is None
    assert _raised(twisted._validate) == ("ShapeError", "d o d != 0 between degrees 1 and -1")
    assert maps[-1].is_chain_map()
    (to_vm, times_y), (twist, ident_p), _ = pairs
    assert compose(to_vm, times_y).blocks == {}
    assert compose(twist, ident_p).blocks == {(0, 0, 0): [[ry()]]}


def test_mat_mul_is_read_only_by_the_kernel():
    """Block maps are composed in one place: in the package, mat_mul is
    read (called, or named other than in an import) only inside
    complexes._composite."""
    package = os.path.dirname(adeltors.__file__)
    readers = set()

    def visit(node, module, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Name) and node.id == "mat_mul" or \
                isinstance(node, ast.Attribute) and node.attr == "mat_mul":
            readers.add((module, where))
        for child in ast.iter_child_nodes(node):
            visit(child, module, where)

    for fname in sorted(os.listdir(package)):
        if fname.endswith(".py"):
            with open(os.path.join(package, fname)) as fh:
                visit(ast.parse(fh.read()), fname[:-3], None)
    assert readers == {("complexes", "_composite")}
