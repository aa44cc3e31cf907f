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

Each rewrite is written once, on label-keyed dicts: cof_step is the one
cofibre step (cof_direction makes one, big_L one per layer) and fib_step
the one fibre step (fib_direction and big_R).  A cone is built once and
kept on its map, so a cone vertex is the very target of its lax
inclusion and the very end of every induced map at it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .complexes import (ChainComplex, ChainMap, NotChainMapError, ShapeError, _built,
                        _d_at, _identity, _total, compose, cone, cone_inclusion,
                        cone_null_homotopy, fib_projection, homotopy_defect, induced_cone_map,
                        map_equal)
from .homology import is_acyclic
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


def _with(A, i):
    return tuple(sorted(A + (i,)))


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
                tgt = _with(v.label, i)
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
                tgt = Vertex(_with(A, i), k)
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


# -- the one cofibre step and the one fibre step, on label-keyed dicts ------------------


def _vname(label, k=None, dummy=False):
    return Vertex(tuple(sorted(label)), k, dummy).name


def _by_label(D: CubeDiagram, verts):
    """D's values and stored maps on the vertices verts, keyed by labels
    (which must tell those vertices apart)."""
    label = {v.name: v.label for v in verts}
    return ({label[n]: D.value(n) for n in label},
            {(label[s], label[t]): D.map(s, t) for (s, t, _) in D.shape.arrows
             if s in label and t in label})


def _by_name(shape: IndexCategory, values, maps):
    """Label-keyed values and maps renamed to the vertices of shape."""
    name = {v.label: v.name for v in shape.vertices}
    return ({name[A]: c for A, c in values.items()},
            {(name[A], name[B]): m for (A, B), m in maps.items()})


def cof_step(maps, i: int, lows):
    """The cofibre step in direction i.  For each label A in lows, with
    f_A = maps[(A, A u i)]: the cone cone(f_A), the lax inclusion
    (A u i) -> cone(f_A), and the null-homotopy witness of incl o f_A;
    for each stored arrow A -> B inside lows, the induced map
    cone(f_A) -> cone(f_B).

    Returns (cones keyed A, lax maps keyed (A u i, A), induced maps keyed
    (A, B), witnesses keyed A)."""
    fs = {A: maps[(A, _with(A, i))] for A in lows}
    lax = {(_with(A, i), A): cone_inclusion(f) for A, f in fs.items()}
    induced = {(A, B): induced_cone_map(fs[A], fs[B], m, maps[(_with(A, i), _with(B, i))])
               for (A, B), m in maps.items() if A in fs and B in fs}
    return ({A: incl.dst for (_, A), incl in lax.items()}, lax, induced,
            {A: cone_null_homotopy(f) for A, f in fs.items()})


def fib_step(values, maps, i: int):
    """The fibre step in direction i, undoing a cofibre step.  Each label
    A avoiding i becomes fib(r_A) of the lax map r_A = maps[(A u i, A)],
    joined to A u i by its projection; each stored arrow between two such
    labels becomes the induced fibre map, and arrows between labels
    containing i are kept.  Returns the new (values, maps)."""
    rs = {A: maps[(_with(A, i), A)] for A in values if i not in A}
    out_maps = {(A, _with(A, i)): fib_projection(r) for A, r in rs.items()}
    out_values = {A: out_maps[(A, _with(A, i))].src if A in rs else c
                  for A, c in values.items()}
    for (A, B), m in maps.items():
        if A in rs and B in rs:
            out_maps[(A, B)] = _fibre_map(rs[A], rs[B], maps[(_with(A, i), _with(B, i))], m,
                                          out_values[A], out_values[B])
        elif i in A and i in B:
            out_maps[(A, B)] = m
    return out_values, out_maps


def _fibre_map(rs: ChainMap, rt: ChainMap, p: ChainMap, q: ChainMap,
               src: ChainComplex, tgt: ChainComplex) -> ChainMap:
    """fib(rs) -> fib(rt), given as src and tgt, for a strictly commuting
    square (p, q): the induced cone map shifted down once to act on
    fibres.  A shift of a chain map is a chain map between the shifted
    complexes, so it is trusted exactly when the cone map came back
    verified (and src and tgt are)."""
    c = induced_cone_map(rs, rt, p, q)
    trusted = c.verified and src.verified and tgt.verified
    return _built(ChainMap(src, tgt, {(n - 1, a, b): M for (n, a, b), M in c.blocks.items()},
                           check=not trusted), trusted)


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
    values, maps = _by_label(D, shape.vertices)
    cones, lax, induced, _ = cof_step(maps, i, [A for A in values if i not in A])
    kept = {(A, B): m for (A, B), m in maps.items() if i in A}
    arrows = []
    for (s, t, kind) in shape.arrows:
        vs, vt = shape.vertex(s), shape.vertex(t)
        if (i in vs.label) == (i in vt.label):
            arrows.append((s, t, "oplax"))
        else:
            arrows.append((t, s, "lax"))
    mixed = IndexCategory(shape.d, "cube-mixed-%d" % i, shape.vertices,
                          tuple(sorted(arrows)))
    return CubeDiagram(mixed, *_by_name(mixed, {**values, **cones}, {**kept, **lax, **induced}),
                       {}, dict(D.ring_names))


def fib_direction(D: CubeDiagram, i: int) -> CubeDiagram:
    """Undo cof_direction: vertices avoiding i become fibres of the lax
    inclusions."""
    shape = D.shape
    if shape.kind != "cube-mixed-%d" % i:
        raise ShapeMismatchError("fib_direction undoes the matching cof_direction")
    cube = full_cube(shape.d)
    return CubeDiagram(cube, *_by_name(cube, *fib_step(*_by_label(D, shape.vertices), i)),
                       {}, dict(D.ring_names))


# -- layers, the big rewrites, and the punctured limit -----------------------------------


def D_backend(D: CubeDiagram) -> str:
    for c in D.values.values():
        return c.backend
    return "zint"


def big_L(D: CubeDiagram) -> CubeDiagram:
    """Iterated cofibres: punctured adelic-shaped diagram to an I(d)
    diagram, one cofibre step per new filtration layer."""
    shape = D.shape
    if shape.kind != "pcube":
        raise ShapeMismatchError("big_L consumes a punctured cube diagram")
    d = shape.d
    values, maps = _by_label(D, shape.vertices)
    out_values = {_vname(A, d): c for A, c in values.items() if d in A}
    out_maps = {(_vname(A, d), _vname(B, d)): m for (A, B), m in maps.items() if d in A}
    out_homs: dict[str, dict] = {}
    for i in range(d, 0, -1):
        # layer i (all of D when i = d) gives layer i-1; the witnesses of
        # the first step have no dummy vertex to sit on
        cones, lax, maps, homs = cof_step(maps, i, [A for A in _subsets(range(i)) if A])
        out_values.update((_vname(A, i - 1), c) for A, c in cones.items())
        out_maps.update(((_vname(U, i), _vname(A, i - 1)), m) for (U, A), m in lax.items())
        out_maps.update(((_vname(A, i - 1), _vname(B, i - 1)), m) for (A, B), m in maps.items())
        if i < d:
            out_homs.update((_vname(A, i - 1, True), h) for A, h in homs.items())
    out_shape = build_ifull(d)
    for v in out_shape.vertices:
        if v.dummy:
            out_values[v.name] = ChainComplex.zero(D_backend(D))
    rings = {v.name: D.ring_names.get(_vname(v.label), "") for v in out_shape.vertices}
    return CubeDiagram(out_shape, out_values, out_maps, out_homs, rings)


def is_cofibre_layer(D: CubeDiagram, k: int) -> bool:
    """Dummy vertices of filtration k vanish and the squares through them
    are pushouts: the induced map cone -> M(A^k) is a homology isomorphism.
    Layers exist for k in 0..d-2; any other k raises RangeError."""
    shape = D.shape
    if not (0 <= k <= shape.d - 2):
        raise RangeError(f"cofibre layer {k} outside 0..{shape.d - 2}")
    for v in shape.vertices:
        if not (v.dummy and v.k == k):
            continue
        if not is_acyclic(D.value(v.name)):
            return False
        A = tuple(v.label)
        up = _vname(A, k + 1)
        mid = _vname(_with(A, k + 1), k + 1)
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
    """cone(f) -> target of r: (p, q) -> h(p) + r(q).  h's blocks leave
    the C-strands of cone(f)_{n+1} and r's the D-strands of cone(f)_n,
    placed by complexes._d_at, so no two share a key."""
    blocks = {(n + 1, i, j): M for (n, i, j), M in h_blocks.items()}
    blocks.update(((n, i + _d_at(f, n), j), M) for (n, i, j), M in r.blocks.items())
    return ChainMap(cone(f), r.dst, blocks)


def big_R(TD: CubeDiagram) -> CubeDiagram:
    """Forget filtration degrees below d-1, then take fibres of the lax
    maps: an I(d) diagram back to a punctured cube.  Independent of the
    construction of big_L."""
    d = TD.shape.d
    pc = punctured_cube(d)
    top = [v for v in TD.shape.vertices if v.k >= d - 1]
    rings = {v.name: TD.ring_names.get(_vname(v.label, d if d in v.label else d - 1), "")
             for v in pc.vertices}
    return CubeDiagram(pc, *_by_name(pc, *fib_step(*_by_label(TD, top), d)), {}, rings)


def holim_punctured(D: CubeDiagram) -> ChainComplex:
    """The limit of a punctured-cube diagram as one explicit total
    complex (the iterated-fibre totalization, laid out by _total): the
    vertex at A sits in homological shift 1 - |A|, structure maps carry
    Cech signs.

    A trusted operation: when every value and every structure map of D
    is verified, and each map runs between the values at its arrow,
    only the squares are checked.  Of d_tot o d_tot, the terms at one
    vertex are +-d o d, zero for verified values; the terms A -> A u i
    are +-(f d - d f), zero for verified chain maps; the terms
    A -> A u {i,j} are the two composites around a square with opposite
    Cech signs, zero exactly when the square commutes on the nose, and
    a square that does not raises ShapeError.  Its blocks are verified
    blocks times +-1, so they need no re-check either.  Otherwise the
    total complex gets its full check."""
    shape = D.shape
    if shape.kind != "pcube":
        raise ShapeMismatchError("holim_punctured consumes a punctured cube diagram")
    pos = {v.name: k for k, v in enumerate(shape.vertices)}
    parts = [(D.value(v.name), 1 - len(v.label), (-1) ** (len(v.label) - 1))
             for v in shape.vertices]
    links, maps = [], {}
    for (s, t, _) in shape.arrows:
        A = shape.vertices[pos[s]].label
        (i_new,) = set(shape.vertices[pos[t]].label) - set(A)
        f = D.maps.get((s, t))
        if f is None:
            raise MissingArrowError(f"holim needs the structure map {s} -> {t}")
        maps[(s, t)] = f
        links.append((pos[s], pos[t], f.blocks, (-1) ** sum(1 for j in A if j < i_new)))
    trusted = all(C.verified for C, _, _ in parts) and \
        all(f.verified and f.src == D.value(s) and f.dst == D.value(t)
            for (s, t), f in maps.items())
    if trusted and not CubeDiagram(shape, D.values, maps).check_commutes():
        raise ShapeError("holim: a square of the punctured cube does not commute")
    return _built(_total(parts, links, not trusted), trusted)


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
        up = Vertex(_with(v.label, i)).name
        f = D.map(v.name, up)
        # got = fib(incl), incl: D(up) -> cone(f), and C_n leads cone(f)_{n+1}
        ident = _identity(C, lambda n: _d_at(E.map(up, v.name), n + 1))
        phi_blocks = {**ident, **{key: [[-e for e in row] for row in M]
                                  for key, M in f.blocks.items()}}
        try:
            phi = ChainMap(C, got, phi_blocks)
        except NotChainMapError:
            return False
        # exact retraction: project to the middle C-strands
        retr = ChainMap(got, C, {(n, b, a): M for (n, a, b), M in ident.items()}, check=False)
        if compose(retr, phi).blocks != _identity(C, lambda n: 0):
            return False
        if not is_acyclic(cone(phi)):
            return False
    return True
