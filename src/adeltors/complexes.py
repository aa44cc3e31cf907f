"""Bounded complexes of finitely generated free modules over worlds.

A complex stores, per degree, an ordered list of strands (World, rank),
and a differential given blockwise: block[(n, i, j)] is the matrix of
the component from strand i of degree n to strand j of degree n-1.  A
block from a W1-strand to a W2-strand is the composite of the canonical
map W1 -> W2 with a matrix over the carrier of W2, so a complex is
"adelically shaped" by construction; a single-world complex is the
special case where every strand shares one world.  World questions are
decided once per block, not per entry: whether the canonical map exists
when entries are checked, and how it acts on carriers when blocks are
composed.

Block maps are composed in one kernel, _composite: it indexes the
second map by source strand and multiplies only pairs of stored blocks,
so d o d, the chain-map identity, compose and homotopy_defect read only
nonzero blocks.  No block dict holds a zero matrix (both constructors
and the kernel drop them), so two complexes or maps are equal exactly
when their block dicts are.

Trust is a bit, set the way an LCF kernel admits theorems: a complex
or chain map is `verified` only after its exact check has passed
(d(d(x)) = 0 and valid blocks; for a map also valid blocks and the
chain-map identity, and both ends verified), or when a trusted
operation built it from verified inputs.  The trusted operations are
shift, dsum, cone, fib, cone_inclusion, fib_projection,
induced_cone_map once its square has been seen to commute on the nose,
ChainMap.from_unit on an identity (dst is src), fan_out_unit (the unit
maps of localization and completion) when each strand maps canonically
to its images and no block keeps its target slot while losing its
source slot, ChainComplex.fan_out when in addition every block is
canonical, shapes._fibre_map (a shift of induced_cone_map) once the
cone map is verified, shapes._comparison_map (h + r on cone(f)) once
dh + hd = r o f has been seen and h's blocks checked, the structure
maps of the adelic tensor (AdelicCube.tensor: identity blocks along the
ring maps of the cube) when X is verified, X's blocks and the identity
blocks are canonical and the slots join naturally (_joins_naturally),
and shapes.holim_punctured once every square of its punctured cube has
been seen to commute on the nose (its values and structure maps
verified); each skips its output's check exactly when its inputs are
verified and checks as before otherwise.
check=False alone never makes a value verified, and neither does
compose.

A strand fans out in one place, ChainComplex.fan_out: base change,
completion, ext along an arrow of the adelic cube and the adelic tensor
each take a complex to its images over the factors R_k of a product of
rings, the sum over k of X (x) R_k in one strand order: factor first,
then X's own strands, each block carried into every factor where both
of its ends survive.

A total complex is laid out in one place, _total: dsum, cone, tensor and
shapes.holim_punctured each list their parts (a complex, a shift and a
sign) and the maps linking them, and _total places every part's strands
after those of the parts before it, degree by degree.

A map's cone is built once: cone(f) keeps its value on f, and
cone_inclusion, fib, fib_projection and induced_cone_map all reach it
through cone(f), so they share one object.  Nothing changes a ChainMap
after __init__, so the kept cone never goes stale.  In _total's layout
C's strands come first; _d_at (where D's strands start) and _identity
(identity blocks at an offset) read that layout off, and every cone and
fibre map, here and in shapes, places its blocks through these two.

The fixed sign conventions: shift negates the differential once per
step, and the mapping cone of f: C -> D is C[1] (+) D with
d(c, d) = (-dc, f(c)+dd).

Degrees are confined to the fixed window [DEGREE_LO, DEGREE_HI] =
[-8, 8]; constructions that would leave it fail loudly rather than
truncate.
"""

from __future__ import annotations

from .worlds import (World, canonical_map_exists, carrier_block, is_zero_el,
                     mult_map_allowed, normal_el)
from .linalg import mat_id, mat_mul

DEGREE_LO, DEGREE_HI = -8, 8


class DegreeWindowError(ValueError):
    pass


class ShapeError(ValueError):
    pass


class NotChainMapError(ValueError):
    pass


class IncompatibleWorldsError(ValueError):
    pass


def _is_zero_mat(M) -> bool:
    return not any(map(any, M))


def _composite(first, s1, second, mid, dst, s2, sign=1, out=None):
    """out + sign * (second o first), blockwise, over nonzero block pairs.

    first[(n, i, j)] maps to strand j of degree n - s1 of mid, and
    second[(m, j, k)] maps that strand to strand k of degree m - s2 of
    dst; each product lands at key (n, i, k) of out (a new dict when
    None).  second is indexed by its source strand, so only pairs of
    stored blocks are visited.  The transport of a first block from w_j
    to w_k is decided once per pair: the canonical map on carriers (y -> 0
    only into VhatM/VhatMInv from outside them) when it exists, else the
    identity, as a twisted multiplication map acts.  sign is 1 or -1.
    Zero sums are dropped, so out holds no zero block.  This is the only
    place block maps are composed.
    """
    out = {} if out is None else out
    after: dict[tuple[int, int], list] = {}
    for (m, j, k), M2 in second.items():
        after.setdefault((m, j), []).append((k, M2))
    for (n, i, j), M1 in first.items():
        m = n - s1
        wj = mid.strand_list(m)[j][0]
        for k, M2 in after.get((m, j), ()):
            wk = dst.strand_list(m - s2)[k][0]
            P = mat_mul(M2, carrier_block(wj, wk, M1) if canonical_map_exists(wj, wk) else M1)
            acc = out.get((n, i, k))
            if acc is None:
                out[(n, i, k)] = P if sign > 0 else [[-p for p in row] for row in P]
            else:
                out[(n, i, k)] = [[a + p if sign > 0 else a - p for a, p in zip(ra, rp)]
                                  for ra, rp in zip(acc, P)]
    for key in [key for key, M in out.items() if _is_zero_mat(M)]:
        del out[key]
    return out


def _check_shape(n, i, j, M, ss, ts):
    """Block (n, i, j) maps strand i of the strand list ss to strand j of
    ts: it must name both strands and have their ranks as its shape."""
    if not (0 <= i < len(ss) and 0 <= j < len(ts)):
        raise ShapeError(f"block ({n},{i},{j}) names no strand")
    if len(M) != ts[j][1] or any(len(row) != ss[i][1] for row in M):
        raise ShapeError(f"block ({n},{i},{j}) has wrong shape")


def _check_blocks(blocks, src, dst, step):
    """Each block (n, i, j) maps strand i of src degree n to strand j of
    dst degree n - step: it must pass _check_shape and hold entries
    mult_map_allowed between the two worlds.  Strand worlds are never the
    zero world, so along a canonical map (decided once per block) that is
    membership in the target world; only twisted blocks ask
    mult_map_allowed entry by entry."""
    for (n, i, j), M in blocks.items():
        ss, ts = src.strand_list(n), dst.strand_list(n - step)
        _check_shape(n, i, j, M, ss, ts)
        ws, wt = ss[i][0], ts[j][0]
        allowed = wt.contains if canonical_map_exists(ws, wt) else \
            (lambda e: mult_map_allowed(ws, wt, e))
        for row in M:
            for e in row:
                if not allowed(e):
                    raise IncompatibleWorldsError(
                        f"invalid block entry {e} in block ({n},{i},{j}): {ws} -> {wt}")


def _built(value, trusted: bool):
    """value, marked verified when a trusted operation built it from
    verified inputs; otherwise its own check decided."""
    if trusted:
        value.verified = True
    return value


def _kron(A, B, zero):
    """Kronecker product, A acting on the outer index; integral products
    are ints."""
    ra, ca = len(A), len(A[0]) if A else 0
    rb, cb = len(B), len(B[0]) if B else 0
    out = [[zero for _ in range(ca * cb)] for _ in range(ra * rb)]
    nz_b = [(k, l, b) for k in range(rb) for l, b in enumerate(B[k]) if not is_zero_el(b)]
    for i in range(ra):
        for j in range(ca):
            a = A[i][j]
            if not is_zero_el(a):
                for k, l, b in nz_b:
                    out[i * rb + k][j * cb + l] = normal_el(a * b)
    return out


class ChainComplex:
    def __init__(self, backend: str, strands: dict[int, list[tuple[World, int]]],
                 blocks: dict[tuple[int, int, int], list], check: bool = True):
        self.backend = backend
        self.strands = {}
        keep: dict[int, list[int]] = {}
        for n, ss in strands.items():
            if not (DEGREE_LO <= n <= DEGREE_HI):
                raise DegreeWindowError(f"degree {n} outside [{DEGREE_LO},{DEGREE_HI}]")
            keep[n] = [i for i, (w, r) in enumerate(ss) if r > 0 and not w.is_zero_world]
            if keep[n]:
                self.strands[n] = [ss[i] for i in keep[n]]
        self.blocks = {}
        for (n, i, j), M in blocks.items():
            if check:   # before the zero filter, which passes [] and [[]]
                _check_shape(n, i, j, M, strands.get(n, ()), strands.get(n - 1, ()))
            if _is_zero_mat(M):
                continue
            if n not in keep or i not in keep[n] or (n - 1) not in keep or j not in keep[n - 1]:
                raise ShapeError("nonzero block attached to a dropped strand")
            self.blocks[(n, keep[n].index(i), keep[n - 1].index(j))] = M
        self.verified = False
        if check:
            self._validate()
            self.verified = True

    # -- bookkeeping ------------------------------------------------------------
    def degrees(self):
        return sorted(self.strands)

    def strand_list(self, n: int):
        return self.strands.get(n, [])

    def rank(self, n: int) -> int:
        return sum(r for _, r in self.strand_list(n))

    def is_empty(self) -> bool:
        return not self.strands

    @property
    def worlds(self) -> set[World]:
        return {w for ss in self.strands.values() for (w, _) in ss}

    def single_world(self) -> World | None:
        ws = self.worlds
        return next(iter(ws)) if len(ws) == 1 else None

    def _validate(self):
        _check_blocks(self.blocks, self, self, 1)
        dd = _composite(self.blocks, 1, self.blocks, self, self, 1)
        if dd:
            n = min(n for n, _, _ in dd)
            raise ShapeError(f"d o d != 0 between degrees {n} and {n-2}")

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, ChainComplex) and self.backend == other.backend
                                 and self.strands == other.strands and self.blocks == other.blocks)

    def __repr__(self):
        if self.is_empty():
            return "ChainComplex(0)"
        parts = []
        for n in sorted(self.strands, reverse=True):
            ss = " + ".join(f"{w.name}^{r}" for w, r in self.strands[n])
            parts.append(f"[{n}] {ss}")
        return "ChainComplex(" + "; ".join(parts) + ")"

    # -- constructors ------------------------------------------------------------
    @staticmethod
    def zero(backend: str) -> "ChainComplex":
        return ChainComplex(backend, {}, {})

    @staticmethod
    def unit(world: World) -> "ChainComplex":
        return ChainComplex(world.backend, {0: [(world, 1)]}, {})

    @staticmethod
    def single(world: World, ranks: dict[int, int],
               diffs: dict[int, list] | None = None) -> "ChainComplex":
        """Single-world complex from free ranks and differential matrices."""
        strands = {n: [(world, r)] for n, r in ranks.items() if r}
        blocks = {}
        for n, M in (diffs or {}).items():
            if ranks.get(n, 0) and ranks.get(n - 1, 0):
                blocks[(n, 0, 0)] = M
        return ChainComplex(world.backend, strands, blocks)

    @staticmethod
    def two_term(world: World, el, top_degree: int = 1) -> "ChainComplex":
        """[W --el--> W] in degrees (top, top-1); the Koszul shape."""
        return ChainComplex.single(world, {top_degree: 1, top_degree - 1: 1},
                                   {top_degree: [[el]]})

    # -- operations ---------------------------------------------------------------
    def shift(self, s: int) -> "ChainComplex":
        """Suspension: degrees go up by s, differential picks up (-1)^s."""
        strands = {n + s: list(ss) for n, ss in self.strands.items()}
        el = normal_el if s % 2 == 0 else (lambda e: -normal_el(e))
        blocks = {(n + s, i, j): [[el(e) for e in row] for row in M]
                  for (n, i, j), M in self.blocks.items()}
        return _built(ChainComplex(self.backend, strands, blocks, check=False), self.verified)

    def dsum(self, other: "ChainComplex") -> "ChainComplex":
        if self.backend != other.backend:
            raise IncompatibleWorldsError("direct sum across backends")
        return _built(_total([(self, 0, 1), (other, 0, 1)], [], False),
                      self.verified and other.verified)

    def fan_out(self, worlds_of) -> tuple["ChainComplex", dict]:
        """The direct sum over slots k of this complex with each strand
        (w, r) replaced by (w_k, r), k along worlds_of(w); zero worlds drop
        out.  The list has one length for every w, so slot k names the same
        ring factor at both ends of a block; each block goes to every slot
        where both of its ends survive, carried into the target world on
        carriers.  Returns the complex and slots[(n, i)], the pairs (k, new
        strand index) of strand i of degree n.  When X fans out naturally
        (_fans_naturally) and every block is canonical, each d o d term of
        the output is one of X carried along ring maps, so a verified X
        gives a trusted output."""
        strands: dict[int, list] = {}
        slots: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for n in self.degrees():
            fans = [worlds_of(w) for (w, _) in self.strands[n]]
            out = strands[n] = []
            slots.update({(n, i): [] for i in range(len(fans))})
            for k, column in enumerate(zip(*fans)):
                for i, nw in enumerate(column):
                    if not nw.is_zero_world:
                        slots[(n, i)].append((k, len(out)))
                        out.append((nw, self.strands[n][i][1]))
        blocks = {}
        trusted = self.verified and _canonical(self.blocks, self, self, 1) and \
            _fans_naturally(self, strands, slots)
        for (n, i, j), M in self.blocks.items():
            old_tgt = self.strands[n - 1][j][0]
            tgt = dict(slots[(n - 1, j)])
            for k, si in slots[(n, i)]:
                if k in tgt:
                    new_tgt = strands[n - 1][tgt[k]][0]
                    blocks[(n, si, tgt[k])] = carrier_block(old_tgt, new_tgt, M)
        return _built(ChainComplex(self.backend, strands, blocks, check=not trusted),
                      trusted), slots

    def base_change(self, world_op) -> "ChainComplex":
        """Apply a world operation strandwise; it must be a canonical map
        (a localization), and each block passes through it on carriers."""
        return self.fan_out(lambda w: (world_op(w),))[0]

    def tensor(self, other: "ChainComplex") -> "ChainComplex":
        """Total tensor product; other must live over one world mapping
        canonically into every strand world of self, and is read with its
        strands merged to one per degree.  Laid out by _total: strand
        (p, i) of self, world w and rank r, gives the part other carried
        into w, strand (w, r * rank q) and block eye_r (x) d_X in degree q,
        at shift p with the Koszul sign (-1)^p; block M of d_C from (p, i)
        to (p - 1, j) gives the link M (x) eye_{rank q} in every degree q."""
        wo = other.single_world()
        if other.is_empty() or self.is_empty():
            return ChainComplex.zero(self.backend)
        if wo is None:
            raise IncompatibleWorldsError("tensor: right factor must be single-world")
        if any(len(ss) > 1 for ss in other.strands.values()):
            other = merge_strands(other)
        parts, part = [], {}
        for p in self.degrees():
            for i, (w, r) in enumerate(self.strand_list(p)):
                if not canonical_map_exists(wo, w):
                    raise IncompatibleWorldsError(f"tensor: no map {wo} -> {w}")
                eye = mat_id(r, w.el_one())
                strands = {q: [(w, r * other.rank(q))] for q in other.degrees()}
                blocks = {key: _kron(eye, carrier_block(wo, w, DX), w.el_zero())
                          for key, DX in other.blocks.items()}
                part[(p, i)] = len(parts)
                parts.append((ChainComplex(self.backend, strands, blocks, check=False), p,
                              1 if p % 2 == 0 else -1))
        links = []
        for (p, i, j), M in self.blocks.items():
            wj = self.strand_list(p - 1)[j][0]
            links.append((part[(p, i)], part[(p - 1, j)],
                          {(q, 0, 0): _kron(M, mat_id(other.rank(q), wj.el_one()), wj.el_zero())
                           for q in other.degrees()}, 1))
        return _total(parts, links, True)


def merge_strands(C: ChainComplex) -> ChainComplex:
    """One strand per degree (requires a single world)."""
    w = C.single_world()
    if w is None:
        return C
    ranks = {n: C.rank(n) for n in C.degrees()}
    diffs: dict[int, list] = {}
    for (n, i, j), B in sorted(C.blocks.items()):
        M = diffs.setdefault(n, [[w.el_zero()] * ranks[n] for _ in range(ranks[n - 1])])
        col = sum(r for _, r in C.strand_list(n)[:i])
        row = sum(r for _, r in C.strand_list(n - 1)[:j])
        for a, entries in enumerate(B):
            M[row + a][col:col + len(entries)] = entries
    return ChainComplex.single(w, ranks, diffs)


class ChainMap:
    """A degreewise map of complexes given by strand blocks.

    blocks[(n, i, j)] is the matrix of the component from strand i of
    src degree n to strand j of dst degree n, as a canonical-map-
    composed matrix just like differentials.
    """

    def __init__(self, src: ChainComplex, dst: ChainComplex,
                 blocks: dict[tuple[int, int, int], list], check: bool = True):
        if check:   # before the zero filter, which passes [] and [[]]
            for (n, i, j), M in blocks.items():
                _check_shape(n, i, j, M, src.strand_list(n), dst.strand_list(n))
        self.src, self.dst = src, dst
        self.blocks = {k: M for k, M in blocks.items() if not _is_zero_mat(M)}
        self.verified = False
        self._cone = None
        if check:
            _check_blocks(self.blocks, src, dst, 0)
            if not self.is_chain_map():
                raise NotChainMapError("not a chain map")
            self.verified = src.verified and dst.verified

    @staticmethod
    def from_unit(src: ChainComplex, dst: ChainComplex) -> "ChainMap":
        """The canonical strandwise map when dst = base_change(src)-shaped:
        matching strand lists degreewise, identity matrices.  The identity
        (dst is src) of a verified complex is trusted; any other map takes
        the full check."""
        blocks = {}
        for n in src.degrees():
            ss, ds = src.strand_list(n), dst.strand_list(n)
            di = 0
            for i, (w, r) in enumerate(ss):
                if di < len(ds) and ds[di][1] == r and canonical_map_exists(w, ds[di][0]):
                    w2 = ds[di][0]
                    blocks[(n, i, di)] = mat_id(r, w2.el_one())
                    di += 1
                elif not any(canonical_map_exists(w, d[0]) for d in ds):
                    continue  # strand died under the world op
                else:
                    raise ShapeError("unit map: strand lists out of step")
        trusted = dst is src and src.verified
        return _built(ChainMap(src, dst, blocks, check=not trusted), trusted)

    def is_chain_map(self) -> bool:
        """f o d_src - d_dst o f = 0."""
        src, dst = self.src, self.dst
        acc = _composite(src.blocks, 1, self.blocks, src, dst, 0)
        return not _composite(self.blocks, 0, dst.blocks, dst, dst, 1, -1, acc)


def compose(g: ChainMap, f: ChainMap) -> ChainMap:
    """g o f, entries passing through the middle worlds' canonical maps."""
    if f.dst is not g.src and f.dst != g.src:
        raise ShapeError("compose: middle complexes differ")
    return ChainMap(f.src, g.dst, _composite(f.blocks, 0, g.blocks, f.dst, g.dst, 0), check=False)


def map_equal(f: ChainMap, g: ChainMap) -> bool:
    return f.src == g.src and f.dst == g.dst and f.blocks == g.blocks


def _kept(slots) -> dict:
    """The slots k each strand (n, i) survives in, from fan_out's slots."""
    return {key: {k for k, _ in ks} for key, ks in slots.items()}


def _canonical(blocks, src, dst, step) -> bool:
    """Whether each block (n, i, j), from strand i of src degree n to
    strand j of dst degree n - step, lies along a canonical map."""
    return all(canonical_map_exists(src.strands[n][i][0], dst.strands[n - step][j][0])
               for (n, i, j) in blocks)


def _fans_naturally(X: ChainComplex, strands, slots) -> bool:
    """Whether each strand of X maps canonically to its images (strands and
    slots as X.fan_out builds them) and no block keeps its target slot
    while losing its source slot, so a slot that keeps both ends of a
    d o d term keeps its middle strand too."""
    kept = _kept(slots)
    return all(canonical_map_exists(X.strands[n][i][0], strands[n][si][0])
               for (n, i), ks in slots.items() for _, si in ks) and \
        all(kept[(n - 1, j)] <= kept[(n, i)] for (n, i, j) in X.blocks)


def _joins_naturally(X: ChainComplex, slots_s, slots_t, ones) -> bool:
    """Whether identity blocks from slot i to slot j of each strand, (i, j)
    in ones, between two fan-outs of X (slots as X.fan_out returns them)
    commute with the differentials: for a block of X whose source keeps
    slot i and whose target keeps slot j, f o d passes through slot i of
    the target and d o f through slot j of the source, and one must
    survive exactly when the other does."""
    ks, kt = _kept(slots_s), _kept(slots_t)
    return all((i in ks[(n - 1, b)]) == (j in kt[(n, a)])
               for (n, a, b) in X.blocks for i, j in ones
               if i in ks[(n, a)] and j in kt[(n - 1, b)])


def fan_out_unit(X: ChainComplex, worlds_of) -> tuple[ChainComplex, ChainMap]:
    """X.fan_out(worlds_of) and its unit map, identity blocks from each
    strand to its images.  u o d carries a block of X into each slot
    where its target survives, d o u only where its source does too, so
    the unit is a chain map when X fans out naturally (_fans_naturally).
    It is trusted when X is verified too, and checked otherwise."""
    LX, slots = X.fan_out(worlds_of)
    blocks = {}
    for (n, i), ks in slots.items():
        for _, si in ks:
            w, r = LX.strands[n][si]
            blocks[(n, i, si)] = mat_id(r, w.el_one())
    trusted = X.verified and _fans_naturally(X, LX.strands, slots)
    return LX, _built(ChainMap(X, LX, blocks, check=not trusted), trusted)


def _total(parts, links, check: bool) -> ChainComplex:
    """The total complex of parts (C, shift, sign): degree n of C sits in
    degree n + shift, after the parts listed before it, with its
    differential times sign.  A link (a, b, blocks, sign) adds sign times
    blocks, a degree-preserving map from part a to part b whose shift is
    one less, to the differential.  A negated block has its integral
    Fractions demoted.  Every total complex is laid out here."""
    strands: dict[int, list] = {}
    at: list[dict[int, int]] = []   # at[k][m]: where part k starts in degree m
    for C, s, _ in parts:
        at.append({})
        for n, ss in C.strands.items():
            out = strands.setdefault(n + s, [])
            at[-1][n + s] = len(out)
            out.extend(ss)
    blocks = {}
    for a, b, bl, sign in [(k, k, C.blocks, sg) for k, (C, _, sg) in enumerate(parts)] + links:
        s = parts[a][1]
        for (n, i, j), M in bl.items():
            blocks[(n + s, i + at[a][n + s], j + at[b][n + s - 1])] = \
                M if sign > 0 else [[-normal_el(e) for e in row] for row in M]
    return ChainComplex(parts[0][0].backend, strands, blocks, check=check)


def _d_at(f: ChainMap, n: int) -> int:
    """Where D's strands start in cone(f)_n = C_{n-1} (+) D_n, C's strands
    first; in fib(f) this is degree n - 1."""
    return len(f.src.strand_list(n - 1))


def _identity(C: ChainComplex, at) -> dict:
    """Identity blocks from strand i of C_n to strand at(n) + i."""
    return {(n, i, at(n) + i): mat_id(r, w.el_one())
            for n in C.degrees() for i, (w, r) in enumerate(C.strand_list(n))}


def cone(f: ChainMap) -> ChainComplex:
    """Mapping cone: cone(f)_n = C_{n-1} (+) D_n, d(c,d) = (-dc, f(c)+dd).
    Built on the first call and kept on f; later calls return it."""
    if f._cone is not None:
        return f._cone
    if any(n + 1 > DEGREE_HI for n in f.src.strands):
        raise DegreeWindowError("cone leaves the degree window")
    f._cone = _built(_total([(f.src, 1, -1), (f.dst, 0, 1)], [(0, 1, f.blocks, 1)],
                            not f.verified), f.verified)
    return f._cone


def fib(f: ChainMap) -> ChainComplex:
    """Fibre = cone shifted down once."""
    return cone(f).shift(-1)


def cone_inclusion(f: ChainMap) -> ChainMap:
    """The structure map D -> cone(f)."""
    blocks = _identity(f.dst, lambda n: _d_at(f, n))
    return _built(ChainMap(f.dst, cone(f), blocks, check=not f.verified), f.verified)


def cone_null_homotopy(f: ChainMap) -> dict:
    """The canonical null homotopy h of (D -> cone(f)) o f: blocks of a
    degree +1 map C -> cone(f) with dh + hd = incl o f, each C_n onto the
    C-strands of cone(f)_{n+1}."""
    return _identity(f.src, lambda n: 0)


def fib_projection(f: ChainMap) -> ChainMap:
    """The structure map fib(f) -> C, off the C-strands of each fib(f)_n."""
    blocks = _identity(f.src, lambda n: 0)
    return _built(ChainMap(fib(f), f.src, blocks, check=not f.verified), f.verified)


def induced_cone_map(f: ChainMap, f2: ChainMap, p: ChainMap, q: ChainMap) -> ChainMap:
    """cone(f) -> cone(f2) induced by a strictly commuting square
    (p: src f -> src f2, q: dst f -> dst f2 with q f = f2 p)."""
    if not map_equal(compose(q, f), compose(f2, p)):
        raise NotChainMapError("square does not commute on the nose")
    blocks = {(n + 1, i, j): M for (n, i, j), M in p.blocks.items()}
    for (n, i, j), M in q.blocks.items():
        blocks[(n, i + _d_at(f, n), j + _d_at(f2, n))] = M
    trusted = f.verified and f2.verified and p.verified and q.verified
    return _built(ChainMap(cone(f), cone(f2), blocks, check=not trusted), trusted)


def homotopy_defect(f: ChainMap, g: ChainMap, h_blocks: dict) -> bool:
    """Check dh + hd = g o f for a degree +1 block map h: src f -> dst g."""
    C, E = f.src, g.dst
    gf = compose(g, f)
    dh = _composite(h_blocks, -1, E.blocks, E, E, 1)   # h lands in E_{n+1}
    return _composite(C.blocks, 1, h_blocks, C, E, -1, out=dh) == gf.blocks
