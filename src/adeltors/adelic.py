"""The adelic cube and the limit reconstruction.

The adelic ring at a nonempty chain A = {i_0 < ... < i_n} is the
alternating product of localized completions

    prod_{x_n} L_{x_n} ... prod_{x_1} L_{x_1} prod_{x_0} L_{x_0} Lambda_{x_0} 1

with the products over the primes of each dimension, realized here
through the functors of the Site, and built as the formula reads: ext
along the cube's arrows, one inserted index at a time, starting from
the base (`ext_strand_worlds` is the one rule).  Over the integer
backend the dimension-zero products are restricted to the truncation
set T; this is exact (not approximate) for objects supported in T and
the generic point -- the torsion of such an object meets only finitely
many completions, and the support precondition is checked before every
run.  Over the valuation backend the spectrum is finite and nothing is
truncated.

The rings are flat (degree-zero) strand lists, so the cube tensored
with X is literally vertexwise tensor, the unit cube is `tensor` of the
unit object, and the limit is the iterated-fibre totalization from
`shapes`.  The tensor at a vertex and ext along an arrow are both
fan-outs of strands over the factors of a ring
(`ChainComplex.fan_out`), in one strand order, so the adjoint of an
arrow of a tensor cube pairs each strand with the strand of the same
index.
"""

from __future__ import annotations

from dataclasses import dataclass

from .classes import GradedClasses
from .complexes import (ChainComplex, ChainMap, NotChainMapError, _built, _canonical,
                        _joins_naturally, cone)
from .homology import homology, is_acyclic
from .linalg import mat_id
from .localize import Site, TruncationTooSmall, UnsupportedRegionError
from .shapes import CubeDiagram, ShapeMismatchError, holim_punctured, punctured_cube
from .worlds import World, canonical_map_exists, factorint, invert_val


def _flat(backend: str, worlds) -> ChainComplex:
    ws = [w for w in worlds if not w.is_zero_world]
    return ChainComplex(backend, {0: [(w, 1) for w in ws]}, {}) if ws else \
        ChainComplex.zero(backend)


def _flat_worlds(C: ChainComplex):
    if C.is_empty():
        return []
    if C.degrees() != [0]:
        raise UnsupportedRegionError("adelic ring complex should be flat")
    return [w for (w, _) in C.strand_list(0)]


class AdelicCube:
    """The punctured cube of adelic rings for a site.

    A cube fixes its site, so the worlds it derives from it depend on
    nothing else: the prime factors and prime inversions, from them the
    ring worlds and names at every vertex, and for every arrow the table
    of unit entries from ring factor i at its source to ring factor j at
    its target (the pairs with a canonical map), are built with the cube,
    and the ext fan-out of a strand world is computed on first use; all
    are kept for the life of the cube (at most primes x labels x
    catalogue worlds entries)."""

    def __init__(self, site: Site):
        self.site = site
        P = site.poset
        self.d = P.dimension
        self.shape = punctured_cube(self.d)
        # the worlds of L_p Lambda_p 1 for each prime p, and the world op of
        # L_p for each p of dimension >= 1 (never None: the closed points lie
        # outside p's up-cone); a dimension-0 prime is never inverted
        self._factor_worlds = {p: tuple(_flat_worlds(site.l_at(p, site.lam(p, site.unit()))))
                               for p in P.elements}
        self._inversions = {p: site.l_op(p) for p in P.elements if P.dim[p] >= 1}
        self._ext_worlds: dict[tuple, tuple[World, ...]] = {}
        self._vertex_worlds = {tuple(v.label): self._build_vertex(tuple(v.label))
                               for v in self.shape.vertices}
        self._ring_names = {v.name: self.ring_name(v.label) for v in self.shape.vertices}
        self._ones = {}
        for (s, t, _) in self.shape.arrows:
            ring_s = self._vertex_worlds[self.shape.vertex(s).label]
            ring_t = self._vertex_worlds[self.shape.vertex(t).label]
            self._ones[(s, t)] = {(i, j): w.el_one() for i, u in enumerate(ring_s)
                                  for j, w in enumerate(ring_t) if canonical_map_exists(u, w)}

    # -- rings ---------------------------------------------------------------------
    def _build_vertex(self, label: tuple) -> list[World]:
        """The ring at label: ext along each inserted index in turn,
        starting from the base, its strands flattened slot-major as in
        fan_out."""
        worlds = [self.site.base]
        for A, B in _ext_steps((), label):
            fans = [self.ext_strand_worlds(A, B, u) for u in worlds]
            worlds = [w for column in zip(*fans) for w in column if not w.is_zero_world]
        return worlds

    def ring_worlds(self, label) -> list[World]:
        return list(self._vertex_worlds[tuple(sorted(label))])

    def ring_name(self, label) -> str:
        ws = self.ring_worlds(label)
        return " x ".join(w.name for w in ws) if ws else "0"

    def ring_complex(self, label) -> ChainComplex:
        return _flat(self.site.backend, self.ring_worlds(label))

    # -- ext along edges ----------------------------------------------------------------
    def ext_strand_worlds(self, A: tuple, B: tuple, u: World) -> tuple[World, ...]:
        """Worlds of u (x)_{ring(A)} ring(B) for chains A, B (sorted
        tuples) one index apart, one per prime or prime factor of the
        inserted dimension, zero worlds kept: the list has one length for
        every u, so slot k is the same factor at both ends of a block."""
        hit = self._ext_worlds.get((A, B, u))
        if hit is not None:
            return hit
        (j,) = set(B) - set(A)
        primes = self.site.poset.of_dim(j)
        if A and j > min(A):
            out = [self._inversions[p](u) for p in primes]
        else:
            out = [_combine(u, f) for p in primes for f in self._factor_worlds[p]]
        hit = self._ext_worlds[(A, B, u)] = tuple(out)
        return hit

    def ext_complex(self, label_a, label_b, C: ChainComplex):
        """(C (x)_{ring(A)} ring(B), where): one fan-out per inserted index,
        and where[(n, i)] the strands of the result that strand i of degree
        n of C goes to."""
        where = {(n, i): [i] for n in C.degrees() for i in range(len(C.strand_list(n)))}
        for A, B in _ext_steps(label_a, label_b):
            C, slots = C.fan_out(lambda w: self.ext_strand_worlds(A, B, w))
            where = {(n, i): [si for s in idx for _, si in slots[(n, s)]]
                     for (n, i), idx in where.items()}
        return C, where

    # -- diagrams -------------------------------------------------------------------------
    def unit_diagram(self) -> CubeDiagram:
        """The unit cube 1_ad (x) 1."""
        return self.tensor(self.site.unit())

    def check_truncation(self, X: ChainComplex):
        """Torsion of X must live at truncation primes.

        Torsion at a prime outside T would silently migrate to the
        generic vertex (the truncated functors cannot see it), so it is
        refused.  Free parts over any catalogue world are exact in the
        recorded truncated scope: the truncated generic localization
        inverts exactly the sampled primes, which is what makes the
        fracture pullbacks literal."""
        if self.site.backend != "zint":
            return
        T = set(self.site.T)
        for n, cls in homology(X).data.items():
            for piece, _ in cls.pieces():
                if piece[:2] == ("cyc", "Z"):
                    if any(p not in T for p, _ in factorint(piece[2])):
                        raise TruncationTooSmall(
                            f"torsion at primes outside T={sorted(T)} in degree {n}")
                elif piece[0] == "quot":
                    if piece[1] == "pruefer" and piece[2] not in T:
                        raise TruncationTooSmall(f"divisible torsion at {piece[2]}")

    def tensor(self, X: ChainComplex) -> CubeDiagram:
        """The punctured-cube diagram 1_ad (x) X: vertexwise derived
        tensor, computed strandwise through the world combination rule
        (each X strand world is flat over the base, so the tensor is the
        honest localization-completion pushout of worlds).  A structure
        map is X tensored with a ring map, identity blocks along the
        arrow's unit pairs, so a chain map by naturality: it is trusted
        when X and both values are verified, X's blocks (as for fan_out)
        and the identity blocks are canonical, and the slots join
        naturally (complexes._joins_naturally); any other map takes the
        full check."""
        self.check_truncation(X)
        values: dict[str, ChainComplex] = {}
        layout: dict[str, dict] = {}
        for v in self.shape.vertices:
            ring = self._vertex_worlds[v.label]
            values[v.name], layout[v.name] = X.fan_out(
                lambda u: [_combine(u, w) for w in ring])
        natural = X.verified and _canonical(X.blocks, X, X, 1)
        maps: dict[tuple[str, str], ChainMap] = {}
        for (s, t, _) in self.shape.arrows:
            ones, src_c, tgt_c = self._ones[(s, t)], values[s], values[t]
            blocks = {}
            for (q, a), src in layout[s].items():
                r = X.strand_list(q)[a][1]
                tgt = dict(layout[t][(q, a)])
                for i, si in src:
                    for j, tj in tgt.items():
                        if (i, j) in ones:
                            blocks[(q, si, tj)] = mat_id(r, ones[(i, j)])
            trusted = natural and src_c.verified and tgt_c.verified and \
                _canonical(blocks, src_c, tgt_c, 0) and \
                _joins_naturally(X, layout[s], layout[t], ones)
            maps[(s, t)] = _built(ChainMap(src_c, tgt_c, blocks, check=not trusted), trusted)
        return CubeDiagram(self.shape, values, maps, {}, dict(self._ring_names))


def _combine(u: World, f: World) -> World:
    """u (x)_base f for a strand u and an inner adelic factor f (neither
    the zero world: both are strand worlds)."""
    if u.backend == "zint":
        if u.comp is not None and f.comp is not None and u.comp != f.comp:
            raise UnsupportedRegionError("cross-completion tensor outside the catalogue")
        comp = f.comp if f.comp is not None else u.comp
        return World("zint", "z", comp, u.inv.union(f.inv))
    return invert_val(f, frozenset(("x", "y")[:u.loc_height]))


def is_adelic_object(D: CubeDiagram, cube: AdelicCube) -> bool:
    """Every adjoint structure map ext_A^B M(A) -> M(B) is a homology
    isomorphism, certified exactly on each arrow by `adjoint_iso`: an
    isomorphism of complexes, otherwise a chain map with acyclic cone."""
    if D.shape.kind != "pcube":
        raise ShapeMismatchError("adelic membership applies to punctured cubes")
    return all(adjoint_iso(cube, D, s, t) for (s, t, _) in D.shape.arrows)


def adjoint_iso(cube: AdelicCube, D: CubeDiagram, s: str, t: str) -> bool:
    """Whether the adjoint ext_A^B M(A) -> M(B) of D's map s -> t is a
    homology isomorphism: an isomorphism of complexes when it relabels
    strands, else a chain map whose cone must be acyclic."""
    E, MB, blocks = _adjoint_blocks(cube, D, s, t)
    if _relabels(E, MB, blocks):
        return True
    try:
        fb = ChainMap(E, MB, blocks)
    except NotChainMapError:
        return False
    return is_acyclic(cone(fb))


def _adjoint_blocks(cube: AdelicCube, D: CubeDiagram, s: str, t: str):
    """(ext M(A), M(B), blocks) for the arrow s -> t with labels A, B:
    the blocks of the adjoint are the entries of the structure map
    re-sourced at the surviving ext strands."""
    A = tuple(D.shape.vertex(s).label)
    B = tuple(D.shape.vertex(t).label)
    MA, MB, f = D.value(s), D.value(t), D.map(s, t)
    E, where = cube.ext_complex(A, B, MA)
    blocks = {}
    for (n, i, j), M in f.blocks.items():
        tgt_world = MB.strand_list(n)[j][0]
        blocks.update({(n, si, j): M for si in where[(n, i)]
                       if canonical_map_exists(E.strand_list(n)[si][0], tgt_world)})
    return E, MB, blocks


def _relabels(E: ChainComplex, MB: ChainComplex, blocks) -> bool:
    """Whether blocks form a strand bijection with identity blocks: each
    block pairs a strand of E with one of MB of equal world and rank by an
    identity, as many pairs and images as strands on either side, and MB's
    differential is E's relabelled entry by entry.  Such a map is an
    isomorphism of complexes."""
    sigma: dict[tuple[int, int], int] = {}
    for (n, i, j), M in blocks.items():
        w, r = E.strand_list(n)[i]
        if (n, i) in sigma or MB.strand_list(n)[j] != (w, r) or M != mat_id(r, w.el_one()):
            return False
        sigma[(n, i)] = j
    sizes = {len(sigma), len({(n, j) for (n, _), j in sigma.items()}),
             sum(map(len, E.strands.values())), sum(map(len, MB.strands.values()))}
    return len(sizes) == 1 and len(E.blocks) == len(MB.blocks) and all(
        MB.blocks.get((n, sigma[(n, i)], sigma[(n - 1, j)])) == M
        for (n, i, j), M in E.blocks.items())


def _ext_steps(A, B):
    """The one-index insertions (src, dst) leading from chain A up to B."""
    chain = [tuple(sorted(A))]
    for j in sorted(set(B) - set(A)):
        chain.append(tuple(sorted(chain[-1] + (j,))))
    return list(zip(chain, chain[1:]))


def reconstruct_limit(D: CubeDiagram, X: ChainComplex):
    """holim of the punctured diagram, with the homology comparison
    against X."""
    lim = holim_punctured(D)
    got = homology(lim)
    want = homology(X)
    return ReconstructionReport(lim, got, want)


@dataclass
class ReconstructionReport:
    limit: ChainComplex
    got: GradedClasses
    want: GradedClasses

    @property
    def agree(self) -> bool:
        return self.got == self.want

    def to_json(self):
        return {"check": "fracture-limit", "agree": self.agree,
                "limit": self.got.to_json(), "object": self.want.to_json()}
