"""Exact rational-function arithmetic over QQ(x, y).

Elements are fractions of polynomials in two variables with rational
coefficients.  The interesting structure is the rank-two monomial
valuation

    v(x^a y^b) = (b, a)   ordered lexicographically,

extended to polynomials by taking the minimum over monomials (the
minimum is attained at a unique monomial, so v is multiplicative) and
to fractions by v(f/g) = v(f) - v(g).  The subring {v >= 0} is the
rank-two valuation ring the valuation backend is built on; the first
component of v is the y-adic valuation.

Polynomials are dicts {(a, b): c} keyed by (x-exponent, y-exponent).
A coefficient c is an int or a Fraction, never a float: coefficients
are divided only in `_div`, which returns the exact quotient as an int
when it is integral and as a Fraction otherwise (int / int would give a
float), so integral entries stay ints through sums and products.  As
Fraction(n) == n and hash(Fraction(n)) == hash(n), keys compare and hash
alike whichever type a coefficient has.

Fractions are reduced on construction (`_cancel`): common monomial
factors, then a primitive-PRS gcd in (QQ[x])[y], skipped when one side
is then a single monomial (the gcd is a constant); then the denominator
is made monic (`_monic`).  RatXY(num, den, reduce=False) promises that
the pair is already canonical (trimmed, coprime, monic denominator, 1
over a zero numerator) and stores it as it is.

Arithmetic builds each result canonical from canonical operands rather
than reducing a raw fraction (Henrici 1956; Knuth, TAOCP vol. 2,
4.5.1).  Products cross-cancel: only gcd(n1, d2) and gcd(n2, d1) are
taken, none with a polynomial operand.  Sums go over d1 d2 / g for g =
gcd(d1, d2) and run a gcd of their own only when g is not a constant.
Negation and inversion re-normalise nothing.

Elements are canonical, so equality compares the num and den dicts;
the hash is taken of `_key`, their sorted items, except that a
constant hashes as its coefficient, the int or Fraction it equals.
The valuation is cached on first use, the only write after
construction, so arithmetic may return an operand or a shared
constant instead of building a new element.  The fast paths do so for
a + 0, 0 + a, -0, a * 0, a * 1 and 1 * a, with 0 and 1 given as RatXY,
int or Fraction; their results equal what the full reduction builds.
A product or quotient of two Laurent monomials c*x^A*y^B is built in
closed form, already canonical: the numerator c*x^max(A,0)*y^max(B,0)
over the monic denominator x^max(-A,0)*y^max(-B,0).
"""

from __future__ import annotations

from fractions import Fraction

Mono = tuple[int, int]
PolyDict = dict[Mono, int | Fraction]


def _div(a, b):
    """The exact quotient a / b of two coefficients: an int when it is
    integral, a Fraction otherwise."""
    q = Fraction(a, b)
    return q.numerator if q.denominator == 1 else q


def _trim(p: PolyDict) -> PolyDict:
    return {m: c for m, c in p.items() if c != 0}


def poly_add(p: PolyDict, q: PolyDict) -> PolyDict:
    out = dict(p)
    for m, c in q.items():
        out[m] = out.get(m, 0) + c
    return _trim(out)


def poly_neg(p: PolyDict) -> PolyDict:
    return {m: -c for m, c in p.items()}


def poly_mul(p: PolyDict, q: PolyDict) -> PolyDict:
    out: PolyDict = {}
    for (a1, b1), c1 in p.items():
        for (a2, b2), c2 in q.items():
            m = (a1 + a2, b1 + b2)
            out[m] = out.get(m, 0) + c1 * c2
    return _trim(out)


def poly_val(p: PolyDict) -> Mono:
    """Lex-minimal (b, a) over the monomials x^a y^b of a non-zero polynomial."""
    return min((b, a) for (a, b) in p)


def _y_parts(p: PolyDict) -> dict[int, dict[int, Fraction]]:
    """Split into y-degree slices, each a univariate x-polynomial."""
    out: dict[int, dict[int, Fraction]] = {}
    for (a, b), c in p.items():
        out.setdefault(b, {})[a] = c
    return out


# -- univariate helpers (dict degree -> Fraction) --------------------------

def _u_trim(u):
    return {d: c for d, c in u.items() if c != 0}


def _u_sub(u, w):
    out = dict(u)
    for d, c in w.items():
        out[d] = out.get(d, 0) - c
    return _u_trim(out)


def _u_divmod(u, w):
    """Polynomial division in QQ[x]."""
    assert w, "division by zero polynomial"
    dw = max(w)
    lw = w[dw]
    q: dict[int, Fraction] = {}
    r = dict(u)
    while r and max(r) >= dw:
        dr = max(r)
        coef = _div(r[dr], lw)
        q[dr - dw] = coef
        r = _u_sub(r, {d + dr - dw: coef * c for d, c in w.items()})
    return _u_trim(q), r


def _u_gcd(u, w):
    u, w = _u_trim(dict(u)), _u_trim(dict(w))
    while w:
        u, w = w, _u_divmod(u, w)[1]
    if u:
        lc = u[max(u)]
        u = {d: _div(c, lc) for d, c in u.items()}
    return u


# -- gcd in QQ[x][y] --------------------------------------------------------

def _content_x(p: PolyDict):
    """gcd in QQ[x] of the y-slice coefficients."""
    g: dict[int, Fraction] = {}
    for _, slice_ in _y_parts(p).items():
        g = _u_gcd(g, slice_)
        if g == {0: 1}:
            break
    return g


def _from_y_slices(slices) -> PolyDict:
    out: PolyDict = {}
    for b, u in slices.items():
        for a, c in u.items():
            if c != 0:
                out[(a, b)] = c
    return out


def _poly_divexact(p: PolyDict, q: PolyDict) -> PolyDict:
    """Exact division p/q in QQ[x,y] (q must divide p)."""
    ps, qs = _y_parts(p), _y_parts(q)
    dq = max(qs) if qs else 0
    lead_q = qs[dq]
    out_slices: dict[int, dict[int, Fraction]] = {}
    rem = dict(ps)
    while rem:
        dr = max(rem)
        quot_slice, r = _u_divmod(rem[dr], lead_q)
        assert not r, "inexact division"
        out_slices[dr - dq] = quot_slice
        # rem -= quot_slice * y^(dr-dq) * q
        prod = poly_mul(_from_y_slices({dr - dq: quot_slice}), q)
        new = poly_add(_from_y_slices(rem), poly_neg(prod))
        rem = _y_parts(new)
    return _from_y_slices(out_slices)


def poly_gcd(p: PolyDict, q: PolyDict) -> PolyDict:
    """gcd in QQ[x,y] via primitive remainder sequence in (QQ[x])[y]."""
    if not p:
        return dict(q)
    if not q:
        return dict(p)
    cp, cq = _content_x(p), _content_x(q)
    cont = _u_gcd(cp, cq)
    pp = _y_parts(_poly_divexact(p, _from_y_slices({0: cp})))
    qq = _y_parts(_poly_divexact(q, _from_y_slices({0: cq})))
    while qq:
        dp, dq = max(pp), max(qq)
        if dp < dq:
            pp, qq = qq, pp
            continue
        # pseudo-remainder of pp by qq in y
        lead = qq[max(qq)]
        f = _from_y_slices({0: lead})
        r = poly_add(poly_mul(_from_y_slices(pp), f),
                     poly_neg(poly_mul(_from_y_slices({dp - dq: pp[dp]}), _from_y_slices(qq))))
        rs = _y_parts(r)
        if rs and max(rs) >= dp:  # no progress guard; cannot happen
            raise ArithmeticError("pseudo-division failed")
        pp, qq = qq, rs
        if qq:
            c = _content_x(_from_y_slices(qq))
            qq = _y_parts(_poly_divexact(_from_y_slices(qq), _from_y_slices({0: c})))
    g = _from_y_slices(pp)
    return poly_mul(g, _from_y_slices({0: cont}))


def _cancel(p: PolyDict, q: PolyDict) -> tuple[PolyDict, PolyDict]:
    """p/g and q/g for g the gcd of two non-zero polynomials: first their
    common monomial factor, then, when both sides still have two or more
    terms, their poly_gcd (with one term left on a side, the rest of the
    gcd is a constant).  Returns p and q themselves when g is a constant."""
    sa = min(min(a for a, _ in p), min(a for a, _ in q))
    sb = min(min(b for _, b in p), min(b for _, b in q))
    if sa or sb:
        p = {(a - sa, b - sb): c for (a, b), c in p.items()}
        q = {(a - sa, b - sb): c for (a, b), c in q.items()}
    if len(p) > 1 and len(q) > 1:
        g = poly_gcd(p, q)
        if len(g) > 1 or (0, 0) not in g:
            p, q = _poly_divexact(p, g), _poly_divexact(q, g)
    return p, q


def _monic(num: PolyDict, den: PolyDict) -> tuple[PolyDict, PolyDict]:
    """num/den rescaled so that the leading (lex-max (y, x) exponent)
    coefficient of den is 1."""
    lc = den[max(den, key=lambda m: (m[1], m[0]))]
    if lc == 1:
        return num, den
    return {m: _div(c, lc) for m, c in num.items()}, {m: _div(c, lc) for m, c in den.items()}


def _product(n1: PolyDict, d1: PolyDict, n2: PolyDict, d2: PolyDict) -> RatXY:
    """(n1/d1)(n2/d2) for coprime pairs, cross-cancelled: with g1 =
    gcd(n1, d2) and g2 = gcd(n2, d1), (n1/g1)(n2/g2) over (d1/g2)(d2/g1)
    is coprime, so only the monic rescale is left."""
    n1, d2 = _cancel(n1, d2)
    n2, d1 = _cancel(n2, d1)
    return RatXY(*_monic(poly_mul(n1, n2), poly_mul(d1, d2)), reduce=False)


class RatXY:
    """An element of QQ(x, y), kept fully reduced with monic denominator
    (see the module docstring)."""

    __slots__ = ("num", "den", "_val")

    def __init__(self, num: PolyDict, den: PolyDict, reduce: bool = True):
        if reduce:
            num, den = _trim(num), _trim(den)
        if not den:
            raise ZeroDivisionError("zero denominator in QQ(x,y)")
        if reduce:
            num, den = _monic(*_cancel(num, den)) if num else (num, {(0, 0): 1})
        self.num = num
        self.den = den
        self._val = None

    @property
    def _key(self):
        """num and den as sorted item tuples: what the hash is taken of."""
        return (tuple(sorted(self.num.items())), tuple(sorted(self.den.items())))

    # -- constructors -------------------------------------------------------
    @staticmethod
    def const(q) -> "RatXY":
        return RatXY.monomial(0, 0, q)

    @staticmethod
    def monomial(a: int, b: int, coef=1) -> "RatXY":
        c = _div(Fraction(coef), 1)
        return RatXY({(a, b): c} if c else {}, {(0, 0): 1}, reduce=False)

    # -- arithmetic ----------------------------------------------------------
    @staticmethod
    def _coerce(other):
        if isinstance(other, RatXY):
            return other
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return _ZERO
            if other == 1:
                return _ONE
            return RatXY.const(other)
        return NotImplemented

    def _laurent(self):
        """(c, A, B) when self is c*x^A*y^B, else None.  A one-term
        denominator is monic, so its coefficient is 1."""
        if len(self.num) != 1 or len(self.den) != 1:
            return None
        ((a, b), c), = self.num.items()
        (e, f), = self.den
        return c, a - e, b - f

    def _sum(self, other, sign) -> "RatXY":
        """self + sign * other, over the lcm of the denominators:
        n1 (d2/g) + sign n2 (d1/g) over d1 d2/g for g = gcd(d1, d2).  A
        factor the sum shares with that denominator divides g, so it is
        cancelled only when g is not a constant."""
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.num:
            return self
        if not self.num:
            return other if sign == 1 else -other
        n1, d1, d2 = self.num, self.den, other.den
        n2 = other.num if sign == 1 else poly_neg(other.num)
        if d1 == d2:    # g = d1
            num, den, g_const = poly_add(n1, n2), d1, d1 == _ONE.den
        else:           # e1, e2 = d1/g, d2/g; e1 is d1 when g is a constant
            e1, e2 = _cancel(d1, d2)
            num, den = poly_add(poly_mul(n1, e2), poly_mul(n2, e1)), poly_mul(d1, e2)
            g_const = e1 is d1
        if not num:
            return _ZERO
        if not g_const:
            num, den = _cancel(num, den)
        return RatXY(*_monic(num, den), reduce=False)

    def __add__(self, other) -> "RatXY":
        return self._sum(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "RatXY":
        if not self.num:
            return self
        return RatXY(poly_neg(self.num), self.den, reduce=False)

    def __sub__(self, other) -> "RatXY":
        return self._sum(other, -1)

    def __rsub__(self, other) -> "RatXY":
        return (-self) + other

    def __mul__(self, other) -> "RatXY":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.num or not other.num:
            return _ZERO
        if other.num == _ONE.num and other.den == _ONE.den:
            return self
        if self.num == _ONE.num and self.den == _ONE.den:
            return other
        s, o = self._laurent(), other._laurent()
        if s and o:
            return _laurent_element(s[0] * o[0], s[1] + o[1], s[2] + o[2])
        return _product(self.num, self.den, other.num, other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatXY":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero in QQ(x,y)")
        if not self.num:
            return self
        s, o = self._laurent(), other._laurent()
        if s and o:
            return _laurent_element(_div(s[0], o[0]), s[1] - o[1], s[2] - o[2])
        return _product(self.num, self.den, other.den, other.num)

    def __pow__(self, n: int) -> "RatXY":
        out = _ONE
        base = self if n >= 0 else self.inv()
        for _ in range(abs(n)):
            out = out * base
        return out

    def inv(self) -> "RatXY":
        """1 / self.  A canonical fraction is coprime, so swapping it needs
        only the monic rescale; zero raises ZeroDivisionError."""
        if not self.num:
            raise ZeroDivisionError("zero denominator in QQ(x,y)")
        return RatXY(*_monic(self.den, self.num), reduce=False)

    def is_zero(self) -> bool:
        return not self.num

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self._coerce(other)
        return isinstance(other, RatXY) and self.num == other.num and self.den == other.den

    def __hash__(self):
        if self.num.keys() <= {(0, 0)} and self.den.keys() == {(0, 0)}:
            return hash(self.num.get((0, 0), 0))
        return hash(self._key)

    # -- valuations ----------------------------------------------------------
    def val(self) -> Mono | None:
        """Rank-two valuation (y-order, x-order), lex; None for 0."""
        v = self._val
        if v is None and self.num:
            (vb, va), (wb, wa) = poly_val(self.num), poly_val(self.den)
            v = self._val = (vb - wb, va - wa)
        return v

    def vy(self) -> int | None:
        v = self.val()
        return None if v is None else v[0]

    def y_eval(self) -> "RatXY":
        """Image under y -> 0, defined when vy >= 0 (cancel y-powers first)."""
        if self.is_zero():
            return self
        vb = min(b for (_, b) in self.num)
        wb = min(b for (_, b) in self.den)
        if vb - wb < 0:
            raise ZeroDivisionError("y-pole: y_eval undefined")
        shift = min(vb, wb)
        num = {(a, b - shift): c for (a, b), c in self.num.items()}
        den = {(a, b - shift): c for (a, b), c in self.den.items()}
        num0 = {m: c for m, c in num.items() if m[1] == 0}
        den0 = {m: c for m, c in den.items() if m[1] == 0}
        return RatXY(num0, den0)

    def is_y_free(self) -> bool:
        """Whether the element lies in QQ(x).  A reduced fraction of QQ(x)
        stays reduced over QQ[x, y], so by canonicity this holds exactly
        when no monomial of num or den has a y-exponent."""
        return not any(b for (_, b) in self.num) and not any(b for (_, b) in self.den)

    def vx_of_y_free(self) -> int | None:
        """x-adic valuation, for y-free elements only."""
        f = self if self.is_y_free() else self.y_eval()
        if f.is_zero():
            return None
        return f.val()[1]

    # -- display ---------------------------------------------------------------
    def _poly_str(self, p: PolyDict) -> str:
        if not p:
            return "0"
        parts = []
        for (a, b) in sorted(p, key=lambda m: (m[1], m[0])):
            c = p[(a, b)]
            body = "".join([f"x^{a}" if a > 1 else "x" if a == 1 else "",
                            f"y^{b}" if b > 1 else "y" if b == 1 else ""])
            if not body:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append("-" + body)
            else:
                parts.append(f"{c}*{body}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        n = self._poly_str(self.num)
        if self.den == {(0, 0): 1}:
            return n
        return f"({n})/({self._poly_str(self.den)})"


def _laurent_element(c, A: int, B: int) -> RatXY:
    """The canonical c*x^A*y^B (c != 0): what the full reduction builds."""
    return RatXY({(max(A, 0), max(B, 0)): c}, {(max(-A, 0), max(-B, 0)): 1}, reduce=False)


_ZERO, _ONE, _X, _Y = RatXY.const(0), RatXY.const(1), RatXY.monomial(1, 0), RatXY.monomial(0, 1)


def zero() -> RatXY:
    return _ZERO


def one() -> RatXY:
    return _ONE


def x() -> RatXY:
    return _X


def y() -> RatXY:
    return _Y


MAX_EXPONENT = 64


def parse_ratxy(s: str) -> RatXY:
    """Parse expressions like '3*x^2*y/(1 + x)' (exact, eval-free).

    Exponents are integer literals 0..MAX_EXPONENT; anything else raises
    ValueError.  A numeric literal is read exactly from its source text,
    so '0.1' is 1/10; bool, complex and string constants raise ValueError,
    as do text Python cannot parse and an expression nested beyond the
    interpreter's recursion limit."""
    import ast

    text = s.replace("^", "**")

    def conv(node):
        if isinstance(node, ast.Expression):
            return conv(node.body)
        if isinstance(node, ast.BinOp):
            left, right = conv(node.left), conv(node.right)
            if isinstance(node.op, ast.Add):
                return left + right
            if isinstance(node.op, ast.Sub):
                return left - right
            if isinstance(node.op, ast.Mult):
                return left * right
            if isinstance(node.op, ast.Div):
                return left / right
            if isinstance(node.op, ast.Pow):
                n = node.right.value if isinstance(node.right, ast.Constant) else None
                if type(n) is not int:
                    raise ValueError("exponent must be a non-negative integer literal")
                if n > MAX_EXPONENT:
                    raise ValueError(f"exponent {n} exceeds {MAX_EXPONENT}")
                return left ** n
            raise ValueError(f"unsupported operator {node.op}")
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -conv(node.operand)
        if isinstance(node, ast.Name):
            if node.id == "x":
                return x()
            if node.id == "y":
                return y()
            raise ValueError(f"unknown symbol {node.id}")
        if isinstance(node, ast.Constant):
            if type(node.value) is int:
                return RatXY.const(node.value)
            if type(node.value) is float:
                return RatXY.const(Fraction(ast.get_source_segment(text, node)))
            raise ValueError(f"unsupported constant {node.value!r}")
        raise ValueError(f"cannot parse {ast.dump(node)}")

    try:
        return conv(ast.parse(text, mode="eval"))
    except SyntaxError as exc:
        raise ValueError(f"cannot parse {s!r}: {exc.msg}") from None
    except RecursionError:
        raise ValueError("expression nests too deeply to parse") from None
