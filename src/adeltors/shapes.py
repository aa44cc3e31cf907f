"""The cube calculus: power-set cubes, the layer index categories, and
the shape-level cofibre rewrites.

Index vertices are A^k with k the filtration degree: for k < d the
subset A is a nonempty subset of {0..k}, for k = d it must contain d.
Dummy vertices A^(k) exist for 0 <= k <= d-2 and nonempty A in P([k]);
they are materialized but always zero in valid layers, and carry the
null-homotopy witnesses that make a layer a cofibre sequence.

Arrows are stored in module-map direction:

  oplax  A^k -> (A u i)^k        value M(A^k) -> res M((A u i)^k)
  lax    A^k -> (A\\k)^{k-1}      value res M(A^k) -> M((A\\k)^{k-1})
                                  (the categorical arrow points up)
  dummy_in   A^{k+1} -> A^(k),  dummy_out  A^(k) -> A^k

The big rewrite L takes a punctured-cube diagram to an I(d) diagram by
iterated cofibres (new layer vertices are mapping cones of the top
structure maps, with canonical null-homotopy witnesses); R forgets the
low filtration degrees and takes fibres back to a punctured cube.  R is
built independently of L so round trips are genuine checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .complexes import (ChainComplex, ChainMap, NotChainMapError, compose, cone,
                        cone_inclusion, cone_null_homotopy, fib_projection,
                        homotopy_defect, induced_cone_map, map_equal)
from .homology import is_acyclic
from .linalg import mat_id
from .posets import RangeError


class ShapeMismatchError(ValueError):
    pass


class MissingArrowError(ValueError):
    pass


@dataclass(frozen=True)
class Vertex:
    label: tuple[int, ...]         # sorted ascending subset
    k: int | None = None           # filtration degree; None on plain cubes
    dummy: bool = False

    @property
    def name(self) -> str:
        body = "".join(str(i) for i in sorted(self.label, reverse=True)) or "e"
        if self.k is None:
            return body
        return f"{body}^({self.k})" if self.dummy else f"{body}^{self.k}"

    def __repr__(self):
        return self.name


@dataclass(frozen=True)
class IndexCategory:
    d: int
    kind: str                                  # pcube | cube | iminus | ifull | igeq
    vertices: tuple[Vertex, ...]
    arrows: tuple[tuple[str, str, str], ...]   # (src name, dst name, arrow kind)

    def vertex(self, name: str) -> Vertex:
        for v in self.vertices:
            if v.name == name:
                return v
        raise ShapeMismatchError(f"no vertex {name!r}")

    def names(self):
        return [v.name for v in self.vertices]

    def plain_vertices(self):
        return [v for v in self.vertices if not v.dummy]

    def __repr__(self):
        return f"IndexCategory({self.kind}, d={self.d}, {len(self.vertices)} vertices)"


def _subsets(ground):
    out = [()]
    for g in ground:
        out += [s + (g,) for s in out]
    return out


def _restrict(shape: IndexCategory, keep, kind: str) -> IndexCategory:
    """The full subcategory of shape on the vertices keep."""
    names = {v.name for v in keep}
    arrows = tuple(a for a in shape.arrows if a[0] in names and a[1] in names)
    return IndexCategory(shape.d, kind, tuple(keep), arrows)


def punctured_cube(d: int) -> IndexCategory:
    """P([d]) without the empty set: 2^{d+1} - 1 vertices."""
    cube = full_cube(d)
    return _restrict(cube, [v for v in cube.vertices if v.label], "pcube")


def full_cube(d: int) -> IndexCategory:
    if d < 0:
        raise RangeError("d must be nonnegative")
    verts = [Vertex(tuple(sorted(s))) for s in _subsets(range(d + 1))]
    verts.sort(key=lambda v: (len(v.label), v.label))
    arrows = []
    for v in verts:
        for i in range(d + 1):
            if i not in v.label:
                tgt = tuple(sorted(v.label + (i,)))
                arrows.append((v.name, Vertex(tgt).name, "oplax"))
    return IndexCategory(d, "cube", tuple(verts), tuple(sorted(arrows)))


def face(cube: IndexCategory, j: int, contains: bool) -> IndexCategory:
    """The face with subsets containing j (d_j) or avoiding j."""
    if cube.kind not in ("cube", "pcube"):
        raise ShapeMismatchError("faces are cut from power-set cubes")
    if not (0 <= j <= cube.d):
        raise RangeError(f"direction {j} outside 0..{cube.d}")
    return _restrict(cube, [v for v in cube.vertices if (j in v.label) == contains], cube.kind)


def _iminus_vertices(d: int):
    verts = []
    for k in range(d + 1):
        for s in _subsets(range(min(k, d) + 1)):
            if not s:
                continue
            if k == d and d not in s:
                continue
            if k < d and max(s) > k:
                continue
            verts.append(Vertex(tuple(sorted(s)), k))
    verts.sort(key=lambda v: (-v.k, len(v.label), v.label))
    return verts


def _layer_arrows(verts):
    arrows = []
    names = {v.name for v in verts}
    for v in verts:
        if v.dummy:
            continue
        A, k = v.label, v.k
        # oplax: add i <= k not in A (for k = d the target keeps d automatically)
        for i in range(k + 1):
            if i not in A:
                tgt = Vertex(tuple(sorted(A + (i,))), k)
                if tgt.name in names:
                    arrows.append((v.name, tgt.name, "oplax"))
        # lax: k in A and A != {k}: module map res M(A^k) -> M((A\k)^{k-1})
        if k in A and len(A) > 1:
            tgt = Vertex(tuple(sorted(i for i in A if i != k)), k - 1)
            if tgt.name in names:
                arrows.append((v.name, tgt.name, "lax"))
    return arrows


def build_iminus(d: int) -> IndexCategory:
    if d < 1:
        raise RangeError("layer categories need d >= 1")
    verts = _iminus_vertices(d)
    return IndexCategory(d, "iminus", tuple(verts), tuple(sorted(_layer_arrows(verts))))


def build_ifull(d: int) -> IndexCategory:
    if d < 1:
        raise RangeError("layer categories need d >= 1")
    verts = list(_iminus_vertices(d))
    for k in range(d - 1):
        for s in _subsets(range(k + 1)):
            if s:
                verts.append(Vertex(tuple(sorted(s)), k, dummy=True))
    arrows = _layer_arrows(verts)
    names = {v.name for v in verts}
    for v in verts:
        if not v.dummy:
            continue
        up = Vertex(v.label, v.k + 1)
        down = Vertex(v.label, v.k)
        if up.name in names:
            arrows.append((up.name, v.name, "dummy_in"))
        if down.name in names:
            arrows.append((v.name, down.name, "dummy_out"))
    return IndexCategory(d, "ifull", tuple(verts), tuple(sorted(arrows)))


def build_igeq(d: int, i: int) -> IndexCategory:
    if not (0 <= i <= d):
        raise RangeError(f"filtration cut {i} outside 0..{d}")
    base = build_ifull(d)
    return _restrict(base, [v for v in base.vertices if v.k >= i], "igeq")


@dataclass
class CubeDiagram:
    """An index-shaped diagram of complexes with strict structure maps.

    maps[(src, dst)] is the stored module-level chain map for the arrow
    src -> dst (see the module docstring for directions); homotopies[v]
    for a dummy vertex v = A^(k) witnesses the null homotopy of the
    composite M(A^{k+1}) -> res M((A u k+1)^{k+1}) -> M(A^k).
    """

    shape: IndexCategory
    values: dict[str, ChainComplex]
    maps: dict[tuple[str, str], ChainMap]
    homotopies: dict[str, dict] = field(default_factory=dict)
    ring_names: dict[str, str] = field(default_factory=dict)

    def value(self, name: str) -> ChainComplex:
        if name not in self.values:
            raise MissingArrowError(f"no value at vertex {name!r}")
        return self.values[name]

    def map(self, src: str, dst: str) -> ChainMap:
        if (src, dst) not in self.maps:
            raise MissingArrowError(f"no stored map {src} -> {dst}")
        return self.maps[(src, dst)]

    def check_commutes(self) -> bool:
        """All strictly stored squares commute on the nose."""
        outgoing: dict[str, list[str]] = {}
        for (s, t) in self.maps:
            outgoing.setdefault(s, []).append(t)
        for s, mids in outgoing.items():
            targets: dict[str, list[str]] = {}
            for m in mids:
                for t in outgoing.get(m, []):
                    targets.setdefault(t, []).append(m)
            for t, via in targets.items():
                if len(via) < 2:
                    continue
                comps = [compose(self.map(m, t), self.map(s, m)) for m in sorted(via)]
                for other in comps[1:]:
                    if not map_equal(comps[0], other):
                        return False
        return True

    def dot(self, include_dummies: bool = False, annotate=None) -> str:
        return to_dot(self.shape, include_dummies=include_dummies,
                      annotate=annotate or {})


def to_dot(shape: IndexCategory, include_dummies: bool = False, annotate=None) -> str:
    """Deterministic DOT; oplax arrows solid black, lax arrows blue and
    drawn in the categorical direction (pointing up the filtration)."""
    annotate = annotate or {}
    lines = ["digraph shape {", '  rankdir="LR";']
    for v in sorted(shape.vertices, key=lambda v: v.name):
        if v.dummy and not include_dummies:
            continue
        label = v.name
        if v.name in annotate:
            label += r"\n" + annotate[v.name]
        shape_attr = ' shape="box"' if v.dummy else ""
        lines.append(f'  "{v.name}" [label="{label}"{shape_attr}];')
    for (s, t, kind) in sorted(shape.arrows):
        if not include_dummies and (shape.vertex(s).dummy or shape.vertex(t).dummy):
            continue
        if kind == "oplax":
            lines.append(f'  "{s}" -> "{t}" [color="black"];')
        elif kind == "lax":
            lines.append(f'  "{t}" -> "{s}" [color="blue"];')
        else:
            lines.append(f'  "{s}" -> "{t}" [color="gray" style="dashed"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def iminus_count(d: int) -> int:
    """2^d + sum_{k<d} (2^{k+1} - 1)."""
    return 2 ** d + sum(2 ** (k + 1) - 1 for k in range(d))


# -- cofibre and fibre rewrites on full cubes ------------------------------------------


def cof_direction(D: CubeDiagram, i: int) -> CubeDiagram:
    """Replace the vertices avoiding i by the mapping cones of the
    direction-i structure maps; direction-i arrows become lax cone
    inclusions.  Inverse to fib_direction up to contractible pairs."""
    shape = D.shape
    if shape.kind != "cube":
        raise ShapeMismatchError("cof_direction needs a full power-set cube")
    if not (0 <= i <= shape.d):
        raise RangeError(f"direction {i} outside 0..{shape.d}")
    values: dict[str, ChainComplex] = {}
    maps: dict[tuple[str, str], ChainMap] = {}
    for v in shape.vertices:
        if i in v.label:
            values[v.name] = D.value(v.name)
        else:
            up = Vertex(tuple(sorted(v.label + (i,)))).name
            incl = cone_inclusion(D.map(v.name, up))
            values[v.name] = incl.dst
            maps[(up, v.name)] = incl
    for (s, t, kind) in shape.arrows:
        vs, vt = shape.vertex(s), shape.vertex(t)
        if i in vs.label and i in vt.label:
            maps[(s, t)] = D.map(s, t)
        elif i not in vs.label and i not in vt.label:
            ups = Vertex(tuple(sorted(vs.label + (i,)))).name
            upt = Vertex(tuple(sorted(vt.label + (i,)))).name
            maps[(s, t)] = induced_cone_map(D.map(s, ups), D.map(t, upt),
                                            D.map(s, t), D.map(ups, upt))
    arrows = []
    for (s, t, kind) in shape.arrows:
        vs, vt = shape.vertex(s), shape.vertex(t)
        if (i in vs.label) == (i in vt.label):
            arrows.append((s, t, "oplax"))
        else:
            arrows.append((t, s, "lax"))
    mixed = IndexCategory(shape.d, "cube-mixed-%d" % i, shape.vertices,
                          tuple(sorted(arrows)))
    return CubeDiagram(mixed, values, maps, {}, dict(D.ring_names))


def fib_direction(D: CubeDiagram, i: int) -> CubeDiagram:
    """Undo cof_direction: vertices avoiding i become fibres of the lax
    inclusions."""
    shape = D.shape
    if shape.kind != "cube-mixed-%d" % i:
        raise ShapeMismatchError("fib_direction undoes the matching cof_direction")
    values: dict[str, ChainComplex] = {}
    maps: dict[tuple[str, str], ChainMap] = {}
    for v in shape.vertices:
        if i in v.label:
            values[v.name] = D.value(v.name)
    for v in shape.vertices:
        if i not in v.label:
            up = Vertex(tuple(sorted(v.label + (i,)))).name
            proj = fib_projection(D.map(up, v.name))
            values[v.name] = proj.src
            maps[(v.name, up)] = proj
    for (s, t, kind) in shape.arrows:
        if kind != "oplax":
            continue
        vs, vt = shape.vertex(s), shape.vertex(t)
        if i in vs.label and i in vt.label:
            maps[(s, t)] = D.map(s, t)
        elif i not in vs.label and i not in vt.label:
            ups = Vertex(tuple(sorted(vs.label + (i,)))).name
            upt = Vertex(tuple(sorted(vt.label + (i,)))).name
            maps[(s, t)] = _fibre_map(D.map(ups, s), D.map(upt, t), D.map(ups, upt),
                                      D.map(s, t), values[s], values[t])
    cube = full_cube(shape.d)
    return CubeDiagram(cube, values, maps, {}, dict(D.ring_names))


def _fibre_map(rs: ChainMap, rt: ChainMap, p: ChainMap, q: ChainMap,
               src: ChainComplex, tgt: ChainComplex) -> ChainMap:
    """fib(rs) -> fib(rt) for a strictly commuting square (p, q): the
    induced cone map shifted down once to act on fibres."""
    c = induced_cone_map(rs, rt, p, q)
    return ChainMap(src, tgt, {(n - 1, a, b): M for (n, a, b), M in c.blocks.items()})


# -- layers, the big rewrites, and the punctured limit -----------------------------------


def _vname(label, k=None, dummy=False):
    return Vertex(tuple(sorted(label)), k, dummy).name


def cof_step(values, maps, i: int, ring_of=None):
    """One cofibre layer: from the filtration-i layer (a punctured cube
    over {0..i} with oplax maps) produce the vertices, lax inclusions,
    induced oplax maps, dummies, and null-homotopy witnesses of
    filtration degree i-1.

    values/maps are keyed by subset tuples.  Returns (new_values keyed by
    subset, lax_maps keyed (upper subset, lower subset), new_oplax keyed
    (subset, subset), homotopies keyed by lower subset).
    """
    ring_of = ring_of or {}
    new_values: dict[tuple, ChainComplex] = {}
    lax_maps = {}
    homotopies = {}
    fs = {}
    for s in _subsets(range(i)):
        if not s:
            continue
        A = tuple(sorted(s))
        up = tuple(sorted(A + (i,)))
        f = maps[(A, up)]
        fs[A] = f
        lax_maps[(up, A)] = cone_inclusion(f)
        new_values[A] = lax_maps[(up, A)].dst
        homotopies[A] = cone_null_homotopy(f)
    new_oplax = {}
    for A in new_values:
        for j in range(i):
            if j in A:
                continue
            B = tuple(sorted(A + (j,)))
            upA = tuple(sorted(A + (i,)))
            upB = tuple(sorted(B + (i,)))
            new_oplax[(A, B)] = induced_cone_map(
                fs[A], fs[B], maps[(A, B)], maps[(upA, upB)])
    return new_values, lax_maps, new_oplax, homotopies


def cof_plus(D: CubeDiagram, i: int | None = None) -> CubeDiagram:
    """The enhanced cofibre of a one-layer punctured-cube diagram: emits
    filtration degrees {i, i-1}, zero dummy vertices, and the pushout
    witnesses.  The output passes the cofibre-layer test by construction."""
    shape = D.shape
    if shape.kind != "pcube":
        raise ShapeMismatchError("cof_plus consumes a punctured cube layer")
    i = shape.d if i is None else i
    values = {tuple(v.label): D.value(v.name) for v in shape.vertices}
    maps = {}
    for (s, t, kind) in shape.arrows:
        maps[(tuple(shape.vertex(s).label), tuple(shape.vertex(t).label))] = D.map(s, t)
    new_values, lax_maps, new_oplax, homs = cof_step(values, maps, i)
    verts = [Vertex(A, i) for A in sorted(values, key=lambda a: (len(a), a))]
    verts += [Vertex(A, i - 1) for A in sorted(new_values, key=lambda a: (len(a), a))]
    verts += [Vertex(A, i - 1, dummy=True) for A in sorted(new_values, key=lambda a: (len(a), a))]
    arrows = []
    out_values = {}
    out_maps = {}
    out_homs = {}
    for A in values:
        out_values[_vname(A, i)] = values[A]
    for (A, B) in maps:
        arrows.append((_vname(A, i), _vname(B, i), "oplax"))
        out_maps[(_vname(A, i), _vname(B, i))] = maps[(A, B)]
    for A in new_values:
        out_values[_vname(A, i - 1)] = new_values[A]
        out_values[_vname(A, i - 1, True)] = ChainComplex.zero(D_backend(D))
        arrows.append((_vname(A, i), _vname(A, i - 1, True), "dummy_in"))
        arrows.append((_vname(A, i - 1, True), _vname(A, i - 1), "dummy_out"))
        out_homs[_vname(A, i - 1, True)] = homs[A]
    for (up, A) in lax_maps:
        arrows.append((_vname(up, i), _vname(A, i - 1), "lax"))
        out_maps[(_vname(up, i), _vname(A, i - 1))] = lax_maps[(up, A)]
    for (A, B) in new_oplax:
        arrows.append((_vname(A, i - 1), _vname(B, i - 1), "oplax"))
        out_maps[(_vname(A, i - 1), _vname(B, i - 1))] = new_oplax[(A, B)]
    out_shape = IndexCategory(shape.d, "glueplus", tuple(verts), tuple(sorted(arrows)))
    rings = {v.name: D.ring_names.get(_vname(v.label), "") for v in verts}
    return CubeDiagram(out_shape, out_values, out_maps, out_homs, rings)


def D_backend(D: CubeDiagram) -> str:
    for c in D.values.values():
        return c.backend
    return "zint"


def forget_plus(D: CubeDiagram) -> CubeDiagram:
    """Drop the dummy vertices (the forgetful functor v of the layer
    machinery)."""
    shape = D.shape
    sub = _restrict(shape, [v for v in shape.vertices if not v.dummy], shape.kind + "-novoid")
    names = set(sub.names())
    return CubeDiagram(sub, {n: c for n, c in D.values.items() if n in names},
                       {k: m for k, m in D.maps.items() if k[0] in names and k[1] in names},
                       {}, {n: r for n, r in D.ring_names.items() if n in names})


def big_L(D: CubeDiagram) -> CubeDiagram:
    """Iterated cofibres: punctured adelic-shaped diagram to an I(d)
    diagram, one new filtration layer at a time."""
    shape = D.shape
    if shape.kind != "pcube":
        raise ShapeMismatchError("big_L consumes a punctured cube diagram")
    d = shape.d
    values = {tuple(v.label): D.value(v.name) for v in shape.vertices}
    maps = {(tuple(shape.vertex(s).label), tuple(shape.vertex(t).label)): D.map(s, t)
            for (s, t, _) in shape.arrows}
    layer_vals: dict[int, dict] = {d: {A: values[A] for A in values if d in A}}
    layer_oplax: dict[int, dict] = {d: {k: m for k, m in maps.items()
                                        if d in k[0] and d in k[1]}}
    lax_all: dict[int, dict] = {}
    homs_all: dict[int, dict] = {}
    # the mixed step: cones of the direction-d maps, no dummies recorded
    lvl, lax, opl, _ = cof_step(values, maps, d)
    layer_vals[d - 1] = lvl
    layer_oplax[d - 1] = opl
    lax_all[d - 1] = lax
    for i in range(d - 1, 0, -1):
        lvl, lax, opl, homs = cof_step(layer_vals[i], layer_oplax[i], i)
        layer_vals[i - 1] = lvl
        layer_oplax[i - 1] = opl
        lax_all[i - 1] = lax
        homs_all[i - 1] = homs
    out_shape = build_ifull(d)
    out_values: dict[str, ChainComplex] = {}
    out_maps: dict[tuple[str, str], ChainMap] = {}
    out_homs: dict[str, dict] = {}
    for k, lv in layer_vals.items():
        for A, c in lv.items():
            out_values[_vname(A, k)] = c
    for v in out_shape.vertices:
        if v.dummy:
            out_values[v.name] = ChainComplex.zero(D_backend(D))
            out_homs[v.name] = homs_all[v.k][tuple(v.label)]
    for k, lo in layer_oplax.items():
        for (A, B), m in lo.items():
            out_maps[(_vname(A, k), _vname(B, k))] = m
    for k, lx in lax_all.items():
        for (up, A), m in lx.items():
            out_maps[(_vname(up, k + 1), _vname(A, k))] = m
    rings = {}
    for v in out_shape.vertices:
        rings[v.name] = D.ring_names.get(_vname(v.label), "")
    return CubeDiagram(out_shape, out_values, out_maps, out_homs, rings)


def is_cofibre_layer(D: CubeDiagram, k: int) -> bool:
    """Dummy vertices of filtration k vanish and the squares through them
    are pushouts: the induced map cone -> M(A^k) is a homology isomorphism."""
    shape = D.shape
    if k > shape.d - 2 or k < 0:
        return True
    for v in shape.vertices:
        if not (v.dummy and v.k == k):
            continue
        if not is_acyclic(D.value(v.name)):
            return False
        A = tuple(v.label)
        up = _vname(A, k + 1)
        mid = _vname(tuple(sorted(A + (k + 1,))), k + 1)
        low = _vname(A, k)
        f = D.map(up, mid)
        r = D.map(mid, low)
        h = D.homotopies.get(v.name)
        if h is None:
            return False
        if not homotopy_defect(f, r, h):
            return False
        phi = _comparison_map(f, r, h)
        if not is_acyclic(cone(phi)):
            return False
    return True


def _comparison_map(f: ChainMap, r: ChainMap, h_blocks: dict) -> ChainMap:
    """cone(f) -> target of r: (p, q) -> h(p) + r(q)."""
    cf = cone(f)
    tgt = r.dst
    blocks: dict[tuple[int, int, int], list] = {}
    for (n, i, j), M in h_blocks.items():
        blocks[(n + 1, i, j)] = M
    off = {n: len(f.src.strand_list(n - 1)) for n in cf.strands}
    for (n, i, j), M in r.blocks.items():
        key = (n, i + off.get(n, 0), j)
        if key in blocks:
            M0 = blocks[key]
            blocks[key] = [[M0[a][b] + M[a][b] for b in range(len(M[0]))]
                           for a in range(len(M))]
        else:
            blocks[key] = M
    return ChainMap(cf, tgt, blocks)


def big_R(TD: CubeDiagram) -> CubeDiagram:
    """Forget filtration degrees below d-1, then take fibres of the lax
    maps: an I(d) diagram back to a punctured cube.  Independent of the
    construction of big_L."""
    shape = TD.shape
    d = shape.d
    pc = punctured_cube(d)
    values: dict[str, ChainComplex] = {}
    maps: dict[tuple[str, str], ChainMap] = {}
    rs = {}
    projs = {}
    for v in pc.vertices:
        A = tuple(v.label)
        if d in A:
            values[v.name] = TD.value(_vname(A, d))
        else:
            up = tuple(sorted(A + (d,)))
            rs[A] = TD.map(_vname(up, d), _vname(A, d - 1))
            projs[A] = fib_projection(rs[A])
            values[v.name] = projs[A].src
    for (s, t, kind) in pc.arrows:
        A = tuple(pc.vertex(s).label)
        B = tuple(pc.vertex(t).label)
        if d in A and d in B:
            maps[(s, t)] = TD.map(_vname(A, d), _vname(B, d))
        elif d not in A and d in B and B == tuple(sorted(A + (d,))):
            maps[(s, t)] = projs[A]
        elif d not in A and d not in B:
            upA, upB = tuple(sorted(A + (d,))), tuple(sorted(B + (d,)))
            maps[(s, t)] = _fibre_map(rs[A], rs[B], TD.map(_vname(upA, d), _vname(upB, d)),
                                      TD.map(_vname(A, d - 1), _vname(B, d - 1)),
                                      values[s], values[t])
    rings = {v.name: TD.ring_names.get(_vname(tuple(v.label), d if d in v.label else d - 1), "")
             for v in pc.vertices}
    return CubeDiagram(pc, values, maps, {}, rings)


def holim_punctured(D: CubeDiagram) -> ChainComplex:
    """The limit of a punctured-cube diagram as one explicit total
    complex (the iterated-fibre totalization): the vertex at A sits in
    homological shift 1 - |A|, structure maps carry Cech signs."""
    shape = D.shape
    if shape.kind != "pcube":
        raise ShapeMismatchError("holim_punctured consumes a punctured cube diagram")
    strands: dict[int, list] = {}
    index: dict[tuple[str, int, int], int] = {}
    backend = D_backend(D)
    for v in shape.vertices:
        C = D.value(v.name)
        sh = 1 - len(v.label)
        for n in C.degrees():
            m = n + sh
            strands.setdefault(m, [])
            for i, (w, r) in enumerate(C.strand_list(n)):
                index[(v.name, n, i)] = len(strands[m])
                strands[m].append((w, r))
    blocks: dict[tuple[int, int, int], list] = {}
    sign_cache = {}
    for v in shape.vertices:
        C = D.value(v.name)
        sh = 1 - len(v.label)
        sgn = 1 if sh % 2 == 0 else -1
        for (n, i, j), M in C.blocks.items():
            si = index[(v.name, n, i)]
            tj = index[(v.name, n - 1, j)]
            blocks[(n + sh, si, tj)] = [[e * sgn for e in row] for row in M]
    for (s, t, kind) in shape.arrows:
        A = tuple(shape.vertex(s).label)
        i_new = next(iter(set(shape.vertex(t).label) - set(A)))
        cech = (-1) ** sum(1 for j in A if j < i_new)
        f = D.maps.get((s, t))
        if f is None:
            raise MissingArrowError(f"holim needs the structure map {s} -> {t}")
        shA = 1 - len(A)
        for (n, i, j), M in f.blocks.items():
            si = index[(s, n, i)]
            tj = index[(t, n, j)]
            blocks[(n + shA, si, tj)] = [[e * cech for e in row] for row in M]
    return ChainComplex(backend, strands, blocks)


def fib_cof_inverse_check(D: CubeDiagram, i: int) -> bool:
    """fib_direction undoes cof_direction: vertices containing i return
    literally equal; a vertex C avoiding i returns fib(incl(f)) together
    with the canonical isomorphism phi(x) = (-f x, x, 0), which is
    checked to be a chain map, split by the exact projection back to C,
    and a homology isomorphism."""
    E = cof_direction(D, i)
    B = fib_direction(E, i)
    for v in D.shape.vertices:
        C = D.value(v.name)
        got = B.value(v.name)
        if i in v.label:
            if got != C:
                return False
            continue
        up = Vertex(tuple(sorted(v.label + (i,)))).name
        f = D.map(v.name, up)
        Q = D.value(up)
        phi_blocks: dict[tuple[int, int, int], list] = {}
        for n in C.degrees():
            off = len(Q.strand_list(n))
            for j, (w, r) in enumerate(C.strand_list(n)):
                phi_blocks[(n, j, off + j)] = mat_id(r, w.el_one())
            for (m, a, b), M in f.blocks.items():
                if m == n:
                    phi_blocks[(n, a, b)] = [[-e for e in row] for row in M]
        try:
            phi = ChainMap(C, got, phi_blocks)
        except NotChainMapError:
            return False
        # exact retraction: project to the middle C-strands
        r_blocks = {}
        for n in C.degrees():
            off = len(Q.strand_list(n))
            for j, (w, r) in enumerate(C.strand_list(n)):
                r_blocks[(n, off + j, j)] = mat_id(r, w.el_one())
        retr = ChainMap(got, C, r_blocks, check=False)
        comp = compose(retr, phi)
        ident = ChainMap(C, C, {(n, j, j): mat_id(r, w.el_one())
                                for n in C.degrees() for j, (w, r) in enumerate(C.strand_list(n))})
        if not map_equal(comp, ident):
            return False
        if not is_acyclic(cone(phi)):
            return False
    return True
