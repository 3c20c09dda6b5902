"""The three graded Lie algebra families as exact sparse structures.

Each basis element has a label: its lattice point a, or (a, i) for
a (x) v_i of generalized Witt. Every element is a finite map from labels
to rationals, brackets are exact on its support, never truncated, and
only the JSON functions write generalized Witt coefficients as dim V
arrays. Windows only bound the quantification of the verification scans.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations_with_replacement, product as iter_product
from math import comb, gcd
from types import MethodType

from .exactlin import RowSpace, scalar_from_str, scalar_to_str
from .lattice import (
    AdditiveMap,
    BiadditiveForm,
    Pairing,
    RankMismatchError,
    Window,
    act,
    add,
    box_points,
    form_from_gh,
    search_order,
    signed_permutations,
    sub,
)

__all__ = [
    "Block",
    "CenterSquareReport",
    "Element",
    "FamilyMismatchError",
    "GeneralizedWitt",
    "LieReport",
    "LimitExceededError",
    "SpecMismatchError",
    "WittType",
    "WittTypeCorrespondence",
    "bracket",
    "center_predicate",
    "element_from_json",
    "element_to_json",
    "index_from_json",
    "label_to_json",
    "spec_from_json",
    "spec_to_json",
    "square_predicate",
    "verify_center",
    "verify_lie_axioms",
    "verify_square",
    "witt_to_witt_type",
]


class FamilyMismatchError(Exception):
    """Operation applied to an algebra family it is not defined for."""


class SpecMismatchError(ValueError):
    """Elements fed to an operation do not belong to the same spec."""


class LimitExceededError(Exception):
    """A verification scan exceeded the configured tuple limit."""


def limited(items, max_triples, stage):
    """The tuples of a scan, raising ``LimitExceededError`` (naming ``stage``)
    before the one past ``max_triples``. The limit selects no tuple."""
    for n, item in enumerate(items, 1):
        if max_triples is not None and n > max_triples:
            raise LimitExceededError(
                "max_triples limit %d exceeded in stage %s" % (max_triples, stage))
        yield item


class Element:
    """Finitely supported combination of basis elements.

    Keys are basis labels: the lattice point a for Witt type and Block,
    the pair (a, i) for a (x) v_i of generalized Witt. Values are nonzero
    ``Fraction`` coefficients; zero coefficients are never stored.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        cleaned = {}
        for label, c in (terms or {}).items():
            c = Fraction(c)
            if c:
                cleaned[label] = c
        self.terms = cleaned

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        out = dict(self.terms)
        for label, c in other.terms.items():
            if label in out:
                s = out[label] + c
                if s:
                    out[label] = s
                else:
                    del out[label]
            else:
                out[label] = c
        return _element(out)

    def __neg__(self):
        return _element({label: -c for label, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rmul__(self, k):
        k = Fraction(k)
        return _element({label: k * c for label, c in self.terms.items()} if k else {})

    def __eq__(self, other):
        return isinstance(other, Element) and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "Element(0)"
        bits = ["%s: %s" % (label, c) for label, c in sorted(self.terms.items())]
        return "Element{%s}" % ", ".join(bits)


def _element(terms, scale=1):
    """The element of ``terms``, nonzero Fractions already, divided by ``scale``."""
    res = Element.__new__(Element)
    res.terms = terms if scale == 1 else {label: c / scale for label, c in terms.items()}
    return res


def _is_int(x) -> bool:
    """An int that is not a bool (JSON true and false load as bools)."""
    return isinstance(x, int) and not isinstance(x, bool)


def _is_point(x) -> bool:
    """Whether the sequence ``x`` holds only integers that are not bools."""
    return all(_is_int(v) for v in x)


class _Family:
    """The label bracket and basis labels shared by the three families.

    Each family defines ``structure_constants``, built on first use and
    kept on the instance: a pair ``(scale, t)`` of a positive integer and
    a function with
    [e_(x,i), e_(y,j)] = sum_l t(x, y)[i][j][l] / scale e_(x+y,l),
    where i, j, l index a basis of V (only 0 for the scalar families).
    It is the one definition of the bracket: ``label_bracket`` reads it
    afresh on each call, the half-derivation rows read the whole table per
    pair of points, and ``bracket``, the one bracket of elements, extends
    ``label_bracket`` bilinearly. ``t`` raises ``RankMismatchError`` for an
    index whose rank is not the algebra's.

    A basis label names e_(x,i): the scalar families label e_x by the
    point x, generalized Witt by (x, i). ``point`` and ``shift`` read and
    move a label's lattice point, ``is_label`` tells labels apart from
    other keys; no other code needs to know a label's shape.

    ``coefficient_degree`` bounds the degree of ``t(x, y)`` in each lattice
    coordinate of x and of y: every family's constants are affine in each
    coordinate (a bilinear form plus linear terms, or a pairing). The
    identity scans certify on a grid of that many points per coordinate.
    """

    vectorial = False
    dim_v = 1
    coefficient_degree = 1

    @cached_property
    def pair_tables(self):  # radius -> ``halfderiv``'s pair table, built on first use
        return {}

    @cached_property
    def automorphisms(self):
        """One ``(sigma, tau, s)`` per signed permutation sigma of the lattice
        (``act``) that the constants certify, the identity first: tau is a
        signed permutation of the V basis, v_i -> eps_i v_(tau i), with
        t(sigma x, sigma y)[tau i][tau j][tau l] = s eps_i eps_j eps_l t(x, y)[i][j][l],
        so e_(x,i) -> s eps_i e_(sigma x, tau i) is an automorphism. Both sides
        have degree d = ``coefficient_degree`` in each coordinate, so they agree
        everywhere once they do on {0..d}^n x {0..d}^n (Alon, Combinatorial
        Nullstellensatz, 1999, Lemma 2.1, as in ``scan_identities``). t is read
        once per pair, and each (tau, s) once: with eps_0 = 1, since (tau, -eps,
        -s) is the same map."""
        t, table, dv = self.structure_constants[1], {}, range(self.dim_v)

        def at(x, y):
            if (x, y) not in table:
                table[x, y] = [v for ci in t(x, y) for cij in ci for v in cij]
            return table[x, y]
        corner = list(iter_product(range(self.coefficient_degree + 1), repeat=self.rank))
        sides = [at(x, y) for x in corner for y in corner]
        triples = [(i, j, l) for i in dv for j in dv for l in dv]
        maps = [(tau, s, [(tau[i][0] * len(dv) + tau[j][0]) * len(dv) + tau[l][0]
                          for i, j, l in triples],
                 [s * tau[i][1] * tau[j][1] * tau[l][1] for i, j, l in triples])
                for tau in signed_permutations(self.dim_v) if tau[0][1] == 1 for s in (1, -1)]
        found = []
        for sigma in signed_permutations(self.rank):
            moved = [act(sigma, x) for x in corner]
            for tau, s, reads, signs in maps:
                images = (at(x, y) for x in moved for y in moved)
                if all([m[k] for k in reads] == [e * v for e, v in zip(signs, c)]
                       for c, m in zip(sides, images)):
                    found.append((sigma, tau, s))
                    break
        return tuple(found)

    def bracket(self, x: Element, y: Element) -> Element:
        """Bilinear extension of ``label_bracket`` to elements; exact, untruncated."""
        scale, label_bracket = self.structure_constants[0], self.label_bracket
        acc = {}
        for u, xu in x.terms.items():
            for v, yv in y.terms.items():
                k = xu * yv
                for l, c in label_bracket(u, v):
                    acc[l] = acc.get(l, 0) + k * c
        return _element({l: c for l, c in acc.items() if c}, scale)

    def basis_element(self, label) -> Element:
        return Element({label: 1})


class GeneralizedWitt(_Family):
    """W(A, V, <.,.>): group algebra of A tensored with V.

    The bracket of a tensor v at index a with w at index b lands at a + b
    with vector part <v, b> w - <w, a> v.
    """

    family = "generalized_witt"
    vectorial = True

    def __init__(self, pairing: Pairing):
        self.pairing = pairing

    @property
    def rank(self) -> int:
        return self.pairing.rank

    @property
    def dim_v(self) -> int:
        return self.pairing.dim_v

    @cached_property
    def nondegenerate(self) -> bool:
        """Whether the pairing has rank n over Q, as the classification assumes."""
        return RowSpace(self.pairing.matrix).rank == self.rank

    @cached_property
    def structure_constants(self):
        matrix = self.pairing.matrix
        scale = _common_denominator(v for row in matrix for v in row)
        pm = [[int(v * scale) for v in row] for row in matrix]
        dv = range(len(pm))
        pcol = _cached_by_index(
            self.rank, lambda x: [sum(r * c for r, c in zip(row, x)) for row in pm])

        def t(x, y, i=None, j=None):
            """The table t(x, y), or only its [i][j] row when i and j are given."""
            px, py = pcol(x), pcol(y)
            rows, cols = (dv, dv) if i is None else ((i,), (j,))
            # <v_r, y> v_c - <v_c, x> v_r
            table = [[[(py[r] if l == c else 0) - (px[c] if l == r else 0) for l in dv]
                      for c in cols] for r in rows]
            return table if i is None else table[0][0]
        return scale, t

    def label_bracket(self, u, v):
        """The nonzero ``(label, numerator)`` terms of scale [e_u, e_v]: the
        [i][j] row of t(a, b) alone, for u = (a, i) and v = (b, j)."""
        (a, i), (b, j) = u, v
        ab = add(a, b)
        return [((ab, l), c) for l, c in enumerate(self.structure_constants[1](a, b, i, j))
                if c]

    def basis(self, a, i: int = 0) -> Element:
        return Element({(tuple(a), i): 1})

    def element(self, a, v) -> Element:
        """The element a (x) v, for v given by its coordinates in V."""
        return Element({(tuple(a), i): x for i, x in enumerate(v)})

    def basis_labels(self, points):
        return [(a, i) for a in points for i in range(self.dim_v)]

    def point(self, label):
        return label[0]

    def shift(self, label, d):
        return add(label[0], d), label[1]

    def is_label(self, label) -> bool:
        try:
            a, i = label
            return _is_point(a) and _is_int(i) and 0 <= i < self.dim_v
        except (TypeError, ValueError):
            return False


class _ScalarFamily(_Family):
    """A family with one basis element per lattice point, labelled by it."""

    def label_bracket(self, a, b):
        """The nonzero ``(label, numerator)`` term of scale [e_a, e_b]."""
        c = self.structure_constants[1](a, b)[0][0][0]
        return [(add(a, b), c)] if c else []

    def basis(self, a) -> Element:
        return Element({tuple(a): 1})

    def basis_labels(self, points):
        return list(points)

    def point(self, label):
        return label

    def shift(self, label, d):
        return add(label, d)

    is_label = staticmethod(_is_point)


class Block(_ScalarFamily):
    """Block algebra: basis u_a with [u_a, u_b] = (f(a,b) + g(a-b)) u_{a+b}.

    With g != 0 the constructor takes (g, h) and derives f, so the Lie
    condition holds by construction; ``Block.raw_form`` skips that
    guarantee and exists only to feed negative tests of the Lie verifier.
    """

    family = "block"

    def __init__(self, g: AdditiveMap, h, f: BiadditiveForm, raw: bool = False):
        if g.rank != f.rank:
            raise RankMismatchError("g and f must have the same rank")
        self.g = g
        self.h = h
        self.f = f
        self.raw = raw

    @classmethod
    def from_gh(cls, g: AdditiveMap, h: AdditiveMap) -> "Block":
        if g.is_zero:
            raise ValueError("use Block.with_form for g = 0")
        return cls(g, h, form_from_gh(g, h))

    @classmethod
    def with_form(cls, f: BiadditiveForm) -> "Block":
        g = AdditiveMap((0,) * f.rank)
        return cls(g, None, f)

    @classmethod
    def raw_form(cls, g: AdditiveMap, f: BiadditiveForm) -> "Block":
        """Arbitrary (g, f) pair; not guaranteed to be a Lie algebra."""
        return cls(g, None, f, raw=True)

    @property
    def rank(self) -> int:
        return self.f.rank

    @property
    def g_is_zero(self) -> bool:
        return self.g.is_zero

    @cached_property
    def nondegenerate(self) -> bool:
        """Whether f has rank n over Q, as the classification assumes; a raw
        Block with g != 0 lacks the (g, h) presentation it needs first. f =
        g h^T - h g^T has rank <= 2 and an antisymmetric f of odd rank is
        singular, so no Block (g, h) of rank >= 3, nor of odd rank, has it."""
        if not self.g_is_zero and self.h is None:
            raise FamilyMismatchError("predicate needs the (g, h) presentation")
        return RowSpace(self.f.matrix).rank == self.rank

    @cached_property
    def structure_constants(self):
        return _scalar_constants(self.f.matrix, self.g.gen_values)


class WittType(_ScalarFamily):
    """Witt type algebra: basis e_a with [e_a, e_b] = (f(b) - f(a)) e_{a+b}."""

    family = "witt_type"

    def __init__(self, f: AdditiveMap):
        self.f = f

    @property
    def rank(self) -> int:
        return self.f.rank

    @cached_property
    def nondegenerate(self) -> bool:
        """Whether f has rank n over Q: f != 0 at rank 1, never at a higher rank."""
        return RowSpace([self.f.gen_values]).rank == self.rank

    @cached_property
    def structure_constants(self):
        rank = self.f.rank
        return _scalar_constants(((0,) * rank,) * rank,
                                 tuple(-v for v in self.f.gen_values))


def _common_denominator(values):
    d = 1
    for v in values:
        d = d * v.denominator // gcd(d, v.denominator)
    return d


def _cached_by_index(rank, fn):
    """``fn`` memoized per lattice index, rejecting indices of another rank."""
    cache = {}

    def lookup(x):
        out = cache.get(x)
        if out is None:
            if len(x) != rank:
                raise RankMismatchError(
                    "index of rank %d fed to a rank-%d algebra" % (len(x), rank))
            out = cache[x] = fn(x)
        return out
    return lookup


def _scalar_constants(form, lin):
    """Constants of c(x, y) = x^T M y + lin(x) - lin(y) for (M, lin).

    Block is (f, g); Witt type is (0, -f).
    """
    scale = _common_denominator([v for row in form for v in row] + list(lin))
    fm = [[int(v * scale) for v in row] for row in form]
    lv = [int(v * scale) for v in lin]
    # (x^T M, lin(x)), scaled
    linear = _cached_by_index(len(lv), lambda x: (
        [sum(xi * m for xi, m in zip(x, col)) for col in zip(*fm)],
        sum(l * xi for l, xi in zip(lv, x))))

    def t(x, y):
        xm, lx = linear(x)
        return (((sum(m * yi for m, yi in zip(xm, y)) + lx - linear(y)[1],),),)
    return scale, t


def _check_points(spec, points, what):
    """Raise ``RankMismatchError`` unless every point has the algebra's rank."""
    for p in points:
        if len(p) != spec.rank:
            raise RankMismatchError("%s %s does not have the algebra's rank %d"
                                    % (what, p, spec.rank))


def _check_labels(spec, labels, what):
    """Raise ``SpecMismatchError`` unless every label is a basis label of
    the family, ``RankMismatchError`` unless its point has the algebra's rank."""
    for label in labels:
        if not spec.is_label(label):
            raise SpecMismatchError("%s label %r does not match the family" % (what, label))
    _check_points(spec, map(spec.point, labels), what + " index")


def bracket(spec, x: Element, y: Element) -> Element:
    """Bilinear extension of the family's basis bracket; exact, untruncated."""
    for el in (x, y):
        _check_labels(spec, el.terms, "element")
    return spec.bracket(x, y)


class LieReport:
    """Outcome of the anticommutativity and Jacobi scans on a window.

    ``visited`` counts the pairs and triples evaluated, outside equality.
    """

    def __init__(self, anticommutativity_witness: tuple, jacobi_witness: tuple,
                 n_pairs: int, n_triples: int, visited: int):
        self.anticommutativity_witness = anticommutativity_witness
        self.jacobi_witness = jacobi_witness
        self.n_pairs, self.n_triples, self.visited = n_pairs, n_triples, visited

    def __eq__(self, other):
        return isinstance(other, LieReport) and (
            dict(vars(self), visited=None) == dict(vars(other), visited=None))

    @property
    def anticommutative(self) -> bool:
        return self.anticommutativity_witness is None

    @property
    def jacobi(self) -> bool:
        return self.jacobi_witness is None

    @property
    def passed(self) -> bool:
        return self.anticommutative and self.jacobi


class _Scan:
    """Identities on the basis labels of some points, in their order.

    Tuples are of label positions; ``points`` holds each label's lattice
    point. ``label_bracket`` memoizes the spec's integer label bracket, the
    scan's one memo of brackets, whose numerators are over ``scale``. A
    ``product``, if given, is a checked product with its own memoized
    integer ``label_product`` over its own ``scale``. ``visited`` counts
    the tuples evaluated. ``shared`` keeps, for the last tuple, the terms
    that several of its identities read.
    """

    last = None, None

    def __init__(self, spec, points, product=None):
        self.spec = spec
        self.scale = spec.structure_constants[0]
        self.product = product
        self.labels = spec.basis_labels(points)
        self.points = [spec.point(l) for l in self.labels]
        self._brackets = {}
        self.visited = 0

    def label_bracket(self, u, v):
        """``spec.label_bracket(u, v)``, computed once per pair of labels."""
        row = self._brackets.get(u)
        if row is None:
            row = self._brackets[u] = {}
        terms = row.get(v)
        if terms is None:
            terms = row[v] = self.spec.label_bracket(u, v)
        return terms

    def shared(self, idx, terms):
        """``terms(self, *idx)``, computed once while the scan is at ``idx``."""
        if self.last[0] != (terms, idx):
            self.last = (terms, idx), terms(self, *idx)
        return self.last[1]

    def first_witnesses(self, tuples, identities):
        """``{name: (index tuple, witness)}`` of the identities failing on ``tuples``.

        ``identities`` maps names to sides, functions of the scan and an index
        tuple giving both sides there. A witness is the first failing tuple's
        labels and sides. The scan stops once each identity has one, and
        visits nothing for none.
        """
        labels, found = self.labels, {}
        open_ids = [(name, MethodType(sides, self)) for name, sides in identities.items()]
        if not open_ids:
            return found
        count = 0
        for count, idx in enumerate(tuples, 1):
            for name, sides in open_ids:
                lhs, rhs = sides(*idx)
                if lhs.terms != rhs.terms:  # Element !=, minus a call per tuple
                    found[name] = idx, (tuple(labels[i] for i in idx), lhs, rhs)
                    open_ids = [item for item in open_ids if item[0] != name]
            if not open_ids:
                break
        self.visited += count
        return found


def _index_tuples(n, arity, ordered):
    """``(count, tuples)`` of the index tuples of ``arity`` over range(n) in
    nested order: all of them when ``ordered``, else those i <= j <= ...."""
    if ordered:
        return n ** arity, iter_product(range(n), repeat=arity)
    return comb(n + arity - 1, arity), combinations_with_replacement(range(n), arity)


def _position(idx, n, ordered):
    """The 1-based position of ``idx`` in ``_index_tuples(n, len(idx), ordered)``:
    one plus the tuples of the slabs before it, of the rows before it, ...."""
    pos, lo = 1, 0
    for rest, i in zip(range(len(idx) - 1, -1, -1), idx):
        if ordered:
            pos += i * n ** rest
        else:  # the tuples of length rest + 1 on [lo, n) less those on [i, n)
            pos += comb(n - lo + rest, rest + 1) - comb(n - i + rest, rest + 1)
        lo = i
    return pos


def scan_identities(scan, stages, ordered, degree=None, max_triples=None, tuples=None):
    """``{name: (position, witness)}`` for every identity of ``stages`` on ``scan``.

    ``stages`` lists ``(arity, identities)``, each scanned in order over
    ``_index_tuples(n, arity, ordered)``; a witness sits at its tuple's
    ``_position`` there, and a passing identity has no witness and the number
    of tuples of its stage. The one rule for the tuples visited:
    - ``tuples``, per stage the sorted index tuples that can fail;
    - else ``degree``, for residual coefficients that are polynomials of that
      per-coordinate degree in the lattice indices, when the scan's labels open
      with those of the grid Box(r), 2r + 1 > ``degree``: the grid's tuples
      alone. Such a polynomial vanishing on the grid is zero (Alon,
      Combinatorial Nullstellensatz, 1999, Lemma 2.1), so a stage passing there
      passes everywhere; nested, the lemma puts a failing stage's first window
      witness on the grid: with the arguments before one fixed, the residual
      is such a polynomial in it, so the first slab (tuples sharing a first
      index) holding a failure has a grid index, so has its first failing row,
      and so on. A stage is certified only when the ones before it pass (the
      Jacobi sum on unordered tuples needs anticommutativity);
    - else all. Of those, ``limited`` lets a stage evaluate ``max_triples``.
    """
    spec, n = scan.spec, len(scan.labels)
    grid = [] if degree is None or tuples is not None else spec.basis_labels(
        search_order((degree + 1) // 2, spec.rank))
    certify = grid and scan.labels[:len(grid)] == grid
    found = {}
    for s, (arity, identities) in enumerate(stages):
        total, every = _index_tuples(n, arity, ordered)
        if certify:  # the grid's labels open the window's: the same index tuples
            every = _index_tuples(len(grid), arity, ordered)[1]
        elif tuples is not None:
            every = tuples[s]
        stage = ", ".join(map(str, identities))
        hits = scan.first_witnesses(limited(every, max_triples, stage), identities)
        certify = certify and not hits
        for name in identities:
            idx, w = hits.get(name, (None, None))
            found[name] = (total, None) if w is None else (_position(idx, n, ordered), w)
    return found


_ZERO = Element()
_PASS = _ZERO, _ZERO


def _both_sides(lhs, rhs, scale):
    """Both sides of an identity from their integer numerators over ``scale``:
    the passing pair when they agree once zero entries are dropped, else
    Fraction elements, built only for a witness."""
    if lhs != rhs:
        lhs = {l: c for l, c in lhs.items() if c}
        rhs = {l: c for l, c in rhs.items() if c}
        if lhs != rhs:
            return tuple(_element({l: Fraction(c, scale) for l, c in side.items()})
                         for side in (lhs, rhs))
    return _PASS


def _compose(acc, terms, inner):
    """``acc`` plus the numerators of sum_l c inner(l) over ``terms`` (l, c),
    ``inner`` giving a label's integer terms."""
    for l, c in terms:
        for m, d in inner(l):
            acc[m] = acc.get(m, 0) + c * d
    return acc


def _anticommutativity(s, i, j):
    """[x, y] + [y, x] = 0, on numerators over scale."""
    x, y = s.labels[i], s.labels[j]
    return _both_sides(dict(s.label_bracket(x, y)),
                       {l: -c for l, c in s.label_bracket(y, x)}, s.scale)


def _jacobi(s, i, j, k):
    """[[x, y], z] + [[y, z], x] + [[z, x], y] = 0, on numerators over scale^2."""
    label_bracket, x, y, z = s.label_bracket, s.labels[i], s.labels[j], s.labels[k]
    acc = {}
    for u, v, w in ((x, y, z), (y, z, x), (z, x, y)):
        for l, c in label_bracket(u, v):
            for m, d in label_bracket(l, w):
                acc[m] = acc.get(m, 0) + c * d
    return _both_sides(acc, {}, s.scale * s.scale)


_LIE_AXIOMS = ((2, {"anticommutativity": _anticommutativity}), (3, {"jacobi": _jacobi}))


def verify_lie_axioms(spec, window: Window, max_triples=None) -> LieReport:
    """Check [x,y] + [y,x] = 0 and the Jacobi identity on the window.

    Anticommutativity is checked on the basis pairs i <= j in shell order;
    with it established, the Jacobi identity only needs the triples
    i <= j <= k (it is alternating in its arguments). Each stage reports
    its first witness and the number of tuples up to it, or all of them.
    With constants of per-coordinate degree d = ``spec.coefficient_degree``,
    the residuals of pairs and triples have degree d and 2d, so
    ``scan_identities`` decides both stages on the grid of degree 2d: a
    stage passing there holds everywhere, and a failing one has its first
    window witness there, at the position past the slabs and rows before it.
    """
    scan = _Scan(spec, search_order(window.radius, spec.rank))
    found = scan_identities(scan, _LIE_AXIOMS, ordered=False,
                            degree=2 * spec.coefficient_degree, max_triples=max_triples)
    (n_pairs, anti), (n_triples, jac) = found["anticommutativity"], found["jacobi"]
    return LieReport(_residual(anti), _residual(jac), n_pairs, n_triples, scan.visited)


def _residual(witness):
    """A Lie witness: the labels, then lhs - rhs."""
    return witness and witness[0] + (witness[1] - witness[2],)


def _require_block(spec):
    if spec.family != "block":
        raise FamilyMismatchError("operation is defined for Block algebras only")
    if not spec.nondegenerate:
        raise FamilyMismatchError("predicate needs a non-degenerate form f")


def center_predicate(spec, a) -> bool:
    """Whether u_a is central according to the classification."""
    _require_block(spec)
    if spec.g_is_zero:
        return not any(a)
    return spec.g(a) == 0 and spec.h(a) + 1 == 0


def square_predicate(spec, a) -> bool:
    """Whether u_a lies in the span of all brackets."""
    _require_block(spec)
    if spec.g_is_zero:
        return any(a)
    return spec.g(a) != 0 or spec.h(a) + 2 != 0


class CenterSquareReport:
    def __init__(self, confirmed: tuple, witnesses: dict, failures: tuple):
        self.confirmed, self.witnesses, self.failures = confirmed, witnesses, failures

    @property
    def passed(self) -> bool:
        return not self.failures


def verify_center(spec, window: Window) -> CenterSquareReport:
    """Confirm the center predicate for every index in the inner box.

    Predicate-true indices must commute with the whole box; for
    predicate-false indices a non-commuting partner is exhibited.
    """
    _require_block(spec)
    box = box_points(window.radius, spec.rank)
    order = search_order(window.radius, spec.rank)
    confirmed, witnesses, failures = [], {}, []
    for a in box_points(window.inner_margin, spec.rank):
        if center_predicate(spec, a):
            bad = next((b for b in box if spec.label_bracket(a, b)), None)
            if bad is None:
                confirmed.append(a)
            else:
                failures.append((a, bad))
        else:
            hit = next((b for b in order if spec.label_bracket(a, b)), None)
            if hit is None:
                failures.append((a, None))
            else:
                witnesses[a] = hit
    return CenterSquareReport(tuple(confirmed), witnesses, tuple(failures))


def verify_square(spec, window: Window) -> CenterSquareReport:
    """Confirm the square predicate for every index in the inner box.

    Predicate-true indices get the pair (a-b, b) with the first b in
    search order whose bracket is a nonzero multiple of u_a;
    predicate-false indices are checked by exhausting all box pairs that
    add up to a.
    """
    _require_block(spec)
    box = box_points(window.radius, spec.rank)
    box_set = set(box)
    order = search_order(window.radius, spec.rank)
    confirmed, witnesses, failures = [], {}, []
    for a in box_points(window.inner_margin, spec.rank):
        if square_predicate(spec, a):
            b = next((b for b in order if spec.label_bracket(sub(a, b), b)), None)
            if b is None:
                failures.append((a, None))
            else:
                (_, c), = spec.label_bracket(sub(a, b), b)
                witnesses[a] = (b, Fraction(c, spec.structure_constants[0]))
        else:
            bad = next(
                (x for x in box
                 if sub(a, x) in box_set and spec.label_bracket(x, sub(a, x))),
                None)
            if bad is None:
                confirmed.append(a)
            else:
                failures.append((a, bad))
    return CenterSquareReport(tuple(confirmed), witnesses, tuple(failures))


class WittTypeCorrespondence:
    """Rank-one reduction of a generalized Witt algebra to Witt type."""

    def __init__(self, f: AdditiveMap, v: tuple, verified: bool, n_pairs: int):
        self.f, self.v, self.verified, self.n_pairs = f, v, verified, n_pairs

    def target(self) -> WittType:
        return WittType(self.f)


def witt_to_witt_type(spec: GeneralizedWitt, v=None, window: Window = None):
    """Reduce a dim-V = 1 generalized Witt algebra to its Witt type form.

    Returns the additive map f(a) = <v, a> together with a verification
    that a (x) v -> e_a intertwines the brackets on all window pairs.
    """
    if spec.family != "generalized_witt" or spec.dim_v != 1:
        raise FamilyMismatchError("requires a generalized Witt algebra with dim V = 1")
    if v is None:
        v = (Fraction(1),)
    v = tuple(Fraction(x) for x in v)
    if not any(v):
        raise ValueError("v must be nonzero")
    if window is None:
        window = Window(2)
    f = AdditiveMap([spec.pairing(v, unit) for unit in _lattice_units(spec.rank)])
    scan = _Scan(WittType(f), box_points(window.radius, spec.rank))
    gs, ws = spec.structure_constants[0], scan.scale
    p, q = v[0].numerator, v[0].denominator

    def intertwined(s, i, j):
        """a (x) v -> e_a maps [a (x) v, b (x) v] to [e_a, e_b]: for v = (p/q),
        p [e_(a,0), e_(b,0)] / gs = q [e_a, e_b] / ws, over gs ws q."""
        a, b = s.labels[i], s.labels[j]
        lhs = {ab: p * ws * c for (ab, _), c in spec.label_bracket((a, 0), (b, 0))}
        rhs = {l: q * gs * c for l, c in s.label_bracket(a, b)}
        return _both_sides(lhs, rhs, gs * ws * q)

    n_pairs, witness = scan_identities(scan, ((2, {"bracket": intertwined}),),
                                       ordered=True)["bracket"]
    return WittTypeCorrespondence(f, v, witness is None, n_pairs)


def _lattice_units(rank):
    for i in range(rank):
        unit = [0] * rank
        unit[i] = 1
        yield tuple(unit)


def element_to_json(el: Element, spec):
    """The JSON terms of an element of ``spec``, one per lattice point in
    order: a "p/q" coefficient, or for generalized Witt the array of the
    dim V coordinates at the point."""
    if not spec.vectorial:
        return [{"index": list(a), "coeff": scalar_to_str(c)}
                for a, c in sorted(el.terms.items())]
    return [{"index": list(a), "coeff": [scalar_to_str(el.terms.get((a, i), 0))
                                         for i in range(spec.dim_v)]}
            for a in sorted({a for a, _ in el.terms})]


def label_to_json(label, spec):
    """A basis label as JSON: the point's list, or [[a], i] for generalized Witt."""
    return [list(label[0]), label[1]] if spec.vectorial else list(label)


def index_from_json(data, spec) -> tuple:
    """A lattice point of ``spec``'s rank from a JSON list of integers."""
    if not _is_point(data):
        raise ValueError("index %r is not a list of integers" % (data,))
    _check_points(spec, [data], "index")
    return tuple(data)


def element_from_json(data, spec) -> Element:
    """An element of ``spec`` from its JSON list of ``{"index", "coeff"}``
    terms. Every index and coefficient is checked, zeros included, before
    zeros are dropped."""
    if not isinstance(data, list):
        raise ValueError("an element is a list of terms, not %r" % (data,))
    terms, seen = {}, set()
    for item in data:
        if not isinstance(item, dict) or set(item) != {"index", "coeff"}:
            raise ValueError("a term has the keys {coeff, index}: %r" % (item,))
        a, coeff = index_from_json(item["index"], spec), item["coeff"]
        if a in seen:
            raise ValueError("index %s appears twice in an element" % (a,))
        seen.add(a)
        if isinstance(coeff, list) != spec.vectorial or (
                spec.vectorial and len(coeff) != spec.dim_v):
            raise SpecMismatchError("index %s: coefficients do not match the family" % (a,))
        if spec.vectorial:
            terms.update(((a, i), scalar_from_str(c)) for i, c in enumerate(coeff))
        else:
            terms[a] = scalar_from_str(coeff)
    return Element(terms)


def spec_to_json(spec) -> dict:
    if spec.family == "generalized_witt":
        return {"family": "generalized_witt", "pairing": spec.pairing.to_json()}
    if spec.family == "block":
        out = {"family": "block"}
        if spec.raw:
            out["g"] = spec.g.to_json()
            out["f"] = spec.f.to_json()
            out["raw"] = True
        elif spec.g_is_zero:
            out["f"] = spec.f.to_json()
        else:
            out["g"] = spec.g.to_json()
            out["h"] = spec.h.to_json()
        return out
    if spec.family == "witt_type":
        return {"family": "witt_type", "f": spec.f.to_json()}
    raise FamilyMismatchError("unknown family %r" % (spec.family,))


def spec_from_json(data: dict):
    family, keys = data.get("family"), set(data) - {"family"}
    if family == "generalized_witt" and keys == {"pairing"}:
        return GeneralizedWitt(Pairing.from_json(data["pairing"]))
    if family == "witt_type" and keys == {"f"}:
        return WittType(AdditiveMap.from_json(data["f"]))
    if family == "block":  # the three forms spec_to_json writes
        raw, keys = data.get("raw", False), keys - {"raw"}
        if not isinstance(raw, bool):
            raise ValueError("'raw' must be true or false")
        if raw and keys == {"g", "f"}:
            return Block.raw_form(AdditiveMap.from_json(data["g"]),
                                  BiadditiveForm.from_json(data["f"]))
        if not raw and keys == {"g", "h"}:
            return Block.from_gh(AdditiveMap.from_json(data["g"]),
                                 AdditiveMap.from_json(data["h"]))
        if not raw and keys == {"f"}:
            return Block.with_form(BiadditiveForm.from_json(data["f"]))
        raise ValueError("a Block spec is {f}, {g, h} or {g, f, raw: true}")
    if family in ("generalized_witt", "witt_type"):
        raise ValueError("a generalized Witt spec is {pairing}, a Witt type spec {f}")
    raise ValueError("unknown algebra family %r" % (family,))
