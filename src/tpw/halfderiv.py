"""Per-degree constraint systems for scaled derivations and their solutions.

A graded linear map phi of degree ``a`` sends e_(x,c) to sum_r phi[x, r,
c] e_(a+x, r): its unknowns are one dim V x dim V block per box point on
every family (1 x 1 on Witt type and Block, the dim V = 1 case). For each
window pair (x, y) with x, y and x + y inside the box, the defining
relation of a delta-derivation is a block of dim V^3 homogeneous linear
rows. Solving the assembled system exactly and comparing the solution
space against the predicted spanning maps, degree by degree, is the
computational heart of the workbench.

Rows are streamed, never stored: pairs with a point of small norm come
first. Every degree of a window reads one pair table of positions and
structure constants t(x, y), and the bi-affine offsets of t turn it into
that degree's rows. ``exactlin.nullspace`` reads them into an integer
kernel basis that starts at the identity: a row that meets it shrinks it
by one, a row that does not is only counted, and no row is drawn once it
is empty. The signed permutations sigma of the lattice that the structure
constants certify (``spec.automorphisms``, each with a signed permutation
tau of the V basis) split the degrees into orbits: ``solve_degrees``
solves the first degree of each orbit and carries its kernel to the
others by the signed column permutation phi'[sigma x] = tau phi[x] tau^-1.
Those that fix the degree split its pairs into orbits too
(``_pair_orbits``): the rows of the pair (x, y) go to those of (sigma x,
sigma y), so the rest of an orbit is drawn only when its first pair's
rows shrink the kernel basis.

A solve stops once its kernel basis is certified (``_certificate``), on
a window of radius R >= 2d for d = ``spec.coefficient_degree``. The maps
of the paper's answers are polynomial in the grading: when every vector
of the basis has degree at most d in each coordinate of the box point,
each row applied to it is a polynomial of degree at most 2d in each
coordinate of the pair, so if it vanishes on the pairs of Box(d) x
Box(d) it vanishes on every pair (Alon, Combinatorial Nullstellensatz,
1999, Lemma 2.1). Then the basis, which always holds the kernel, is the
kernel, exactly: no row drawn later could shrink it.

Boundary indices of the box see fewer constraint pairs than interior
ones, so the raw solution space picks up spurious boundary-supported
vectors. All dimension comparisons therefore happen after restricting
tables to the window's inner box.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb

from . import exactlin
from .algebra import center_predicate, square_predicate
from .exactlin import NullspaceBasis, RowSpace, SparseMatrix
from .lattice import RankMismatchError, Window, act, add, box_points, norm_inf, zero

__all__ = [
    "DegreeResult",
    "HalfDerivationSystem",
    "MissingDegreeError",
    "PredictedBasis",
    "SweepReport",
    "assemble",
    "compare",
    "predicted",
    "solve",
    "sweep",
]

HALF = Fraction(1, 2)


class MissingDegreeError(Exception):
    """A per-degree family lacks a degree required by the window."""


class PredictedBasis:
    """Spanning maps the classification predicts for one degree.

    A component is a coefficient table: box index x -> the dim V x dim V
    matrix (tuple of row tuples) whose entry [r][c] is the coefficient of
    e_(degree+x, r) in the image of e_(x,c); ``((1,),)`` is the identity on
    the scalar families.
    """

    def __init__(self, degree: tuple, components: tuple, authoritative: bool = True,
                 names: tuple = ()):
        self.degree, self.components = degree, components
        self.authoritative, self.names = authoritative, names


class HalfDerivationSystem:
    """Homogeneous system for one degree on one window, generated lazily.

    ``orbits()`` hands the constraint rows to ``exactlin.nullspace`` in
    orbits of the degree's stabilizer, found afresh by each call from the
    window's read-only pair table, and ``int_rows()`` streams them in
    pair order; both read one per-pair row builder. ``certified_orbits()`` gives the
    orbits together with the certificate that stops their solve once the
    kernel basis is affine in the box point and annihilates the grid rows
    not yet reached (``_certificate``; none when R < 2d). ``n_constraints``
    (alias ``n_rows``) counts ordered pairs, as reports do; ``matrix``
    materializes the streamed rows on first use.
    """

    def __init__(self, spec, degree: tuple, window: Window, delta: Fraction):
        self.spec, self.degree, self.window, self.delta = spec, degree, window, delta

    @property
    def n_unknowns(self) -> int:
        return _n_unknowns(self.spec, self.window)

    @property
    def n_constraints(self) -> int:
        return _n_constraints(self.spec, self.window)

    n_cols = n_unknowns
    n_rows = n_constraints

    def int_rows(self):
        """Stream the constraint rows as integer dicts, pair by pair in the
        order of the window's ``_pair_table``."""
        return self._pair_rows()(range(len(_pair_table(self.spec, self.window.radius)[1])))

    def orbits(self):
        """The rows as ``exactlin.kernel_of`` reads them: per orbit of the
        certified sigma with sigma a = a (``_pair_orbits``), the rows of its
        first pair, then those of the others, built only when drawn."""
        return self.certified_orbits()[0]

    def certified_orbits(self):
        """``orbits()`` and the certificate that stops their solve once the
        kernel basis K is the kernel (``_certificate``; None on a window
        with R < 2d). The certificate reads how far these orbits have been
        drawn: the pair whose rows are drawn now, in an orbit's first part."""
        a = self.degree
        sigmas = tuple(sigma for sigma, _, _ in self.spec.automorphisms if act(sigma, a) == a)
        draw, reached = self._pair_rows(), [0]
        orbits = ((draw(first, reached), draw(rest))
                  for first, rest in _pair_orbits(self.spec, self.window.radius, sigmas))
        return orbits, _certificate(self.spec, self.window.radius, draw, reached)

    def _pair_rows(self):
        """The row builder of the degree: ``draw(pairs)`` yields the rows of
        each pair of the window's ``_pair_table`` that ``pairs`` indexes,
        and ``draw(pairs, reached)`` also keeps the pair drawn in
        ``reached[0]``.

        The row of (x, i; y, j; k) is the e_(a+x+y, k) coefficient of
        phi([u, v]) / delta - [phi(u), v] - [u, phi(v)] for u = e_(x,i) and
        v = e_(y,j), where phi(e_(x,c)) = sum_r phi[x, r, c] e_(a+x, r) and
        column (x, r, c) sits at pos(x) dv^2 + r dv + c, scaled by the
        numerator of delta. The row of (y, j; x, i; k) is its negation and the
        row of a label with itself is zero: only labels (x, i) < (y, j) of the
        table's pairs give rows, and rows that vanish are skipped.
        Every family's t is bi-affine, so t(a + x, y) = t(x, y) + [t(a, y) -
        t(0, y)], where t(a, y) - t(0, y) = sum_m a_m [t(e_m, y) - t(0, y)],
        and the same holds on the other side: per degree, one offset per box
        point on each side, combined from the table's unit differences by
        integer multiply-adds, and a row is a few integer adds.
        """
        spec, a, delta = self.spec, self.degree, self.delta
        _, pxs, pys, pxys, consts, units_x, units_y, *_ = _pair_table(spec, self.window.radius)
        dv = spec.dim_v
        dv2, dv3, span = dv * dv, dv * dv * dv, range(dv)
        off_x, off_y = _offsets(units_x, a, dv3), _offsets(units_y, a, dv3)
        image_w, side_w = delta.denominator, delta.numerator  # 1/delta = image_w / side_w
        # per row (i, j, k), per l: where t(x, y), t(a + x, y) and t(x, a + y)
        # are read, and the column each writes past its base
        shapes = [(i, j, [((i * dv + j) * dv + l, k * dv + l, (l * dv + j) * dv + k,
                           l * dv + i, (i * dv + l) * dv + k, l * dv + j) for l in span])
                  for i in span for j in span for k in span]

        def draw(pairs, reached=None):
            for n in pairs:
                if reached is not None:
                    reached[0] = n
                px, py, pxy = pxs[n], pys[n], pxys[n]
                at, ox, oy = n * dv3, off_x[py], off_y[px]
                base_x, base_y, base_xy = px * dv2, py * dv2, pxy * dv2
                for i, j, terms in shapes:
                    if px == py and j <= i:
                        continue
                    row = {}
                    for ci, ki, cx, kx, cy, ky in terms:
                        c = consts[at + ci]
                        if c:
                            row[base_xy + ki] = row.get(base_xy + ki, 0) + image_w * c
                        c = consts[at + cx] + ox[cx]
                        if c:
                            row[base_x + kx] = row.get(base_x + kx, 0) - side_w * c
                        c = consts[at + cy] + oy[cy]
                        if c:
                            row[base_y + ky] = row.get(base_y + ky, 0) - side_w * c
                    if pxy in (px, py) or px == py:  # blocks meet: entries may cancel
                        row = {c: v for c, v in row.items() if v}
                    if row:
                        yield row
        return draw

    @cached_property
    def matrix(self) -> SparseMatrix:
        rows = list(self.int_rows())
        return SparseMatrix(len(rows), self.n_unknowns,
                            [(r, c, v) for r, row in enumerate(rows)
                             for c, v in row.items()])


def columns_for(spec, window: Window):
    """Unknowns of a degree: (x, r, c) per box point x and block entry [r][c].

    One tuple per (rank, dim V, radius) serves every degree and caller.
    """
    return _columns(spec.rank, spec.dim_v, window.radius)


@lru_cache
def _columns(rank, dim_v, radius):
    dv = range(dim_v)
    return tuple((x, r, c) for x in box_points(radius, rank) for r in dv for c in dv)


def component_vector(spec, window: Window, table: dict):
    """Flatten a table ``{x: dim V x dim V matrix}`` into the column order:
    (x, r, c) reads ``table[x][r][c]``, zero where x is not in the table."""
    zero_f = Fraction(0)
    return tuple(Fraction(table[x][r][c]) if x in table else zero_f
                 for x, r, c in columns_for(spec, window))


def component_row(spec, window: Window, table: dict):
    """The nonzero entries of ``component_vector`` as an integer dict row,
    denominators cleared: the row that span checks read."""
    return exactlin.int_row({n: Fraction(table[x][r][c])
                             for n, (x, r, c) in enumerate(columns_for(spec, window))
                             if x in table and table[x][r][c]})


def assemble(spec, degree, window: Window, delta=HALF, max_unknowns=None):
    """Set up the homogeneous system for the degree-``degree`` component.

    One constraint row (block) per ordered pair (x, y) with x, y and
    x + y in the box. With the default delta = 1/2 the rows encode the
    half-derivation relation; a general delta replaces the factor 2 on
    the bracket-image side by 1/delta. No row is built here: the system
    streams them when solved or materialized.
    """
    degree = tuple(degree)
    if len(degree) != spec.rank:  # the offsets read one coordinate per unit difference
        raise RankMismatchError("degree %s does not have the algebra's rank %d"
                                % (degree, spec.rank))
    delta = Fraction(delta)
    if delta == 0:
        raise ValueError("delta must be nonzero")
    _check_unknowns(spec, window, max_unknowns)
    return HalfDerivationSystem(spec, degree, window, delta)


def _n_unknowns(spec, window: Window):
    """The count of ``columns_for``'s keys, dim V^2 per box point, unbuilt."""
    return (2 * window.radius + 1) ** spec.rank * spec.dim_v ** 2


def _check_unknowns(spec, window: Window, max_unknowns):
    """Refuse past ``max_unknowns`` from ``_n_unknowns``, before any key is built."""
    n = _n_unknowns(spec, window)
    if max_unknowns is not None and n > max_unknowns:
        raise exactlin.DimensionOverflowError(
            "%d unknowns exceed the max_unknowns limit %d" % (n, max_unknowns))


def _n_constraints(spec, window: Window):
    """Rows of a degree's system, as reports count them: dim V^3 per
    ordered pair (x, y) with x, y and x + y in the box.

    Per axis, the coordinates summing to u (|u| <= r) give 2r + 1 - |u|
    pairs, 3r^2 + 3r + 1 in all; the axes are independent.
    """
    r = window.radius
    return (3 * r * r + 3 * r + 1) ** spec.rank * spec.dim_v ** 3


def _pair_table(spec, radius):
    """The window's degree-invariant row data, built once per (spec, radius):
    ``(box, pos x, pos y, pos x+y, t(x, y), units x, units y, index)``.

    The first five run over the unordered pairs of Box(radius) with x + y
    in it, in stream order: x through the box sorted by ``norm_inf``, y
    from x on (past x when dim V = 1, as a label with itself gives a zero
    row); t(x, y) flattened, (i, j, l) at (i dv + j) dv + l. The next two
    are the unit differences every degree's offsets combine, and t(x, y)
    with them: ``units x[m]`` holds t(e_m, y) - t(0, y) flattened for each y
    of the box in turn, ``units y[m]`` t(x, e_m) - t(x, 0) for each x.
    ``index[pos x * |box| + pos y]`` is the pair of x and y, in either
    order. Kept in ``spec.pair_tables`` and never changed: the positions and
    ``index`` as ``array('q')``, the constants, of any size, as a list."""
    tables = spec.pair_tables
    if radius not in tables:
        tables[radius] = _build_pair_table(spec, radius)
    return tables[radius]


def _build_pair_table(spec, radius):
    rank = spec.rank
    box = box_points(radius, rank)
    order = sorted(range(len(box)), key=lambda p: norm_inf(box[p]))
    # q(x) = sum_m x_m width^(rank-1-m) is additive, q(x + y) = q(x) + q(y),
    # and one-to-one on Box(2 radius), which holds every x + y: at[q(x + y) +
    # corner] is the position of x + y in Box(radius), or -1 off it
    width = 4 * radius + 1
    qs = [sum(c * width ** (rank - 1 - m) for m, c in enumerate(x)) for x in box]
    corner = (width ** rank - 1) // 2
    at = [-1] * width ** rank
    for p, q in enumerate(qs):
        at[q + corner] = p
    # rows are homogeneous, so the constants' common scale drops out; t is
    # bi-affine, so t(x, y) = t(0, y) + sum_m x_m [t(e_m, y) - t(0, y)]: one
    # call of t per box point and unit
    _, t = spec.structure_constants
    o = zero(rank)
    units = [tuple(int(m == k) for k in range(rank)) for m in range(rank)]
    base_x = [v for y in box for v in _flat(t(o, y))]
    units_x = [[u - v for u, v in zip((w for y in box for w in _flat(t(e, y))), base_x)]
               for e in units]
    base_y = [v for x in box for v in _flat(t(x, o))]
    units_y = [[u - v for u, v in zip((w for x in box for w in _flat(t(x, e))), base_y)]
               for e in units]
    pxs, pys, pxys = array("q"), array("q"), array("q")
    size, dv3, consts = len(box), spec.dim_v ** 3, []
    index = array("q", bytes(8 * size * size))
    for n, px in enumerate(order):
        x, qx = box[px], qs[px] + corner
        tx = _combination(base_x, units_x, x)  # t(x, y) for each y of the box in turn
        for py in order[n + (spec.dim_v == 1):]:  # one label: (x, x) gives a zero row
            pxy = at[qx + qs[py]]
            if pxy >= 0:
                index[px * size + py] = index[py * size + px] = len(pxs)
                pxs.append(px)
                pys.append(py)
                pxys.append(pxy)
                consts.extend(tx[py * dv3:(py + 1) * dv3])
    return box, pxs, pys, pxys, consts, units_x, units_y, index


def _pair_orbits(spec, radius, sigmas):
    """The window's pairs in orbits of the group ``sigmas``, by the stream
    position of each orbit's first pair: one (first pair, other pairs) of
    table indices per orbit. The pair {x, y} goes to {sigma x, sigma y},
    which the table holds in one order or the other (``index``). The
    trivial group gives one orbit, every pair first. Orbits are found as
    they are drawn, and only as far as the solve draws them."""
    box, pxs, pys, *_, index = _pair_table(spec, radius)
    if len(sigmas) == 1:
        yield range(len(pxs)), ()
        return
    size, perms = len(box), [_box_perm(sigma, radius) for sigma in sigmas[1:]]
    seen = bytearray(len(pxs))
    for n in range(len(pxs)):
        if not seen[n]:
            px, py = pxs[n], pys[n]
            rest = {index[p[px] * size + p[py]] for p in perms}
            rest.discard(n)
            rest = sorted(rest)
            for m in rest:
                seen[m] = 1
            yield (n,), rest


def _certificate(spec, radius, draw, reached):
    """The certificate ``exactlin.kernel_of`` asks once a row shrinks the
    kernel basis K, or None when radius < 2d for d = ``spec.coefficient_degree``.

    Call a vector of K affine when each of its (r, c) entries, a function of
    the box point x, has degree at most d in each coordinate of x: its
    (d+1)-th differences along every axis vanish (``_differences``). Each
    row, applied to an affine vector, is then a polynomial in (x, y) of
    degree at most 2d in each coordinate, since t has degree d in each
    coordinate of both points; the row of (y, x) is the negation of a row
    of (x, y). If it vanishes on the pairs of Box(d) x Box(d), the grid, it
    vanishes everywhere (Alon, Combinatorial Nullstellensatz, 1999, Lemma
    2.1), so on every window pair. The grid's pairs are window pairs, with
    x + y in Box(R), because R >= 2d. Then K, which holds the kernel, lies
    in it, and is it.

    ``certificate(vectors)`` returns None unless every vector is affine, and
    otherwise the rows K must annihilate: those of the grid pairs at or past
    ``reached[0]``, the pair whose rows an orbit's first part draws now or
    drew last. That is the orbit's first pair, unless the stabilizer is
    trivial and its one orbit is the whole stream. K already annihilates
    every pair before it: each lies in an earlier orbit, drawn whole or
    skipped with its rest, or was drawn before it. A nonzero affine vector
    has (2R + 1 - d)^rank nonzero entries or more, since a nonzero (r, c)
    entry is nonzero at that many points (a nonzero polynomial of degree d
    in one variable has at most d roots, coordinate by coordinate), so a
    sparser vector is refused before any difference is taken.
    """
    d = spec.coefficient_degree
    if radius < 2 * d:
        return None
    box, *_, index = _pair_table(spec, radius)
    size, dv = len(box), spec.dim_v
    near = [p for p, x in enumerate(box) if norm_inf(x) <= d]
    grid = sorted({index[p * size + q] for p in near for q in near if p != q or dv > 1})
    floor = (2 * radius + 1 - d) ** spec.rank
    affine = _differences(spec.rank, dv * dv, radius, d)

    def certificate(vectors):
        if any(len(k) < floor for k in vectors) or not all(map(affine, vectors)):
            return None
        return draw(grid[bisect_left(grid, reached[0]):])
    return certificate


@lru_cache
def _differences(rank, block, radius, d):
    """The test that an integer dict over the columns of Box(radius), ``block``
    per box point, has vanishing (d+1)-th differences along every axis."""
    width, box = 2 * radius + 1, box_points(radius, rank)
    weights = [(-1) ** j * comb(d + 1, j) for j in range(d + 2)]
    axes = []
    for m in range(rank):
        stride = width ** (rank - 1 - m) * block
        axes.append(([(w, j * stride) for j, w in enumerate(weights)],
                     [p * block + e for p, x in enumerate(box) if x[m] + d < radius
                      for e in range(block)]))
    n_cols = len(box) * block

    def affine(k):
        dense = [0] * n_cols
        for c, v in k.items():
            dense[c] = v
        return not any(sum(w * dense[c + o] for w, o in terms)
                       for terms, starts in axes for c in starts)
    return affine


@lru_cache
def _box_perm(sigma, radius):
    """The position in Box(radius) of sigma x, for each point x of it."""
    box = box_points(radius, len(sigma))
    at = {x: p for p, x in enumerate(box)}
    return tuple(at[act(sigma, x)] for x in box)


def _offsets(units, a, size):
    """sum_m a_m units[m], cut into one list of ``size`` per box point:
    t(a, y) - t(0, y) on the x side, t(x, a) - t(x, 0) on the y side."""
    flat = _combination([0] * len(units[0]), units, a)
    return [flat[p:p + size] for p in range(0, len(flat), size)]


def _combination(flat, units, a):
    """flat + sum_m a_m units[m], entry by entry."""
    for am, unit in zip(a, units):
        if am:
            flat = [s + am * d for s, d in zip(flat, unit)]
    return flat


def _flat(c):
    return [v for ci in c for cij in ci for v in cij]


def solve(system: HalfDerivationSystem) -> NullspaceBasis:
    """Canonical exact nullspace of the system, from its row orbits."""
    return exactlin.nullspace(system)


def predicted(spec, degree, window: Window) -> PredictedBasis:
    """Spanning maps predicted for this degree by the classification."""
    return _predictor(spec, window)(degree)


def _predictor(spec, window: Window):
    """The prediction of every degree on ``window``, as a function of the
    degree: the window's degree-invariant work is done here, once."""
    box = box_points(window.radius, spec.rank)
    dv = range(spec.dim_v)
    one = tuple(tuple(Fraction(int(r == c)) for c in dv) for r in dv)
    named_at = _PREDICTIONS[spec.family](spec, window, box, one)
    authoritative = _authoritative(spec)

    def at(degree):
        degree = tuple(degree)
        named = named_at(degree)
        return PredictedBasis(degree, tuple(table for _, table in named),
                              authoritative, tuple(name for name, _ in named))
    return at


def _authoritative(spec):
    """Block, generalized Witt with dim V > 1 and every rank-1 spec (the
    dim V = 1 theorem: Delta = span{shift}) are asserted; the shift maps of
    Witt type and dim V = 1 at a higher rank are flagged as non-authoritative,
    and excess dimensions merely get reported."""
    return spec.family == "block" or spec.dim_v > 1 or spec.rank == 1


def _predicted_witt(spec, window, box, one):
    """Witt type and generalized Witt: shifts (dim V = 1) or the identity."""
    if spec.dim_v == 1:
        return lambda degree: [("shift", {x: one for x in box})]
    return lambda degree: [] if any(degree) else [("id", {x: one for x in box})]


def _predicted_block(spec, window, box, one):
    """The identity at degree 0, and u_b -> u_(b + degree) for each b
    outside the square whose target lies in the window and in the center.
    The points b off the square are found once per window; each degree
    tests only them."""
    off_square = [b for b in box if not square_predicate(spec, b)]

    def named_at(degree):
        named = [("id", {x: one for x in box})] if not any(degree) else []
        for b in off_square:
            target = add(b, degree)
            if window.contains(target) and center_predicate(spec, target):
                name = "alpha" if spec.g_is_zero else "alpha_(%s,%s)" % (_fmt(b), _fmt(target))
                named.append((name, {b: one}))
        return named
    return named_at


_PREDICTIONS = {
    "generalized_witt": _predicted_witt,
    "witt_type": _predicted_witt,
    "block": _predicted_block,
}


def _fmt(point):
    return "(" + ",".join(str(x) for x in point) + ")"


def inner_column_positions(spec, window: Window) -> tuple:
    """Positions of the columns whose box index lies in the inner box.

    They depend on the spec only through its rank and dim V (a box point
    has dim V^2 columns), so one tuple per (rank, dim V, radius, inner
    margin) serves every degree and caller.
    """
    return _inner_positions(spec.rank, spec.dim_v, window.radius, window.inner_margin)


@lru_cache
def _inner_positions(rank, dim_v, radius, margin):
    window, per_point = Window(radius, margin), dim_v * dim_v
    return tuple(n * per_point + k for n, x in enumerate(box_points(radius, rank))
                 if window.in_inner(x) for k in range(per_point))


@lru_cache
def _inner_at(rank, dim_v, radius, margin):
    """Column position -> its place among ``_inner_positions``."""
    return {p: n for n, p in enumerate(_inner_positions(rank, dim_v, radius, margin))}


def inner_projection(spec, window: Window, rows):
    """Restrict full-box integer dict rows to the inner-box columns.

    Returns the kept column keys (from ``columns_for``), the projected
    rows keyed by inner position, one per row and empty rows included,
    and their ``RowSpace``. Every span check after the solve reads this
    one projection.
    """
    cols = columns_for(spec, window)
    positions = inner_column_positions(spec, window)
    at = _inner_at(spec.rank, spec.dim_v, window.radius, window.inner_margin)
    rows = [{at[c]: v for c, v in row.items() if c in at} for row in rows]
    return (tuple(cols[p] for p in positions), rows,
            RowSpace.of_rows(rows, len(positions)))


class DegreeResult:
    """One degree's kernel against its prediction: the record a sweep reports."""

    def __init__(self, degree: tuple, n_unknowns: int, n_constraints: int,
                 computed_dim: int, projected_dim: int, predicted_dim: int,
                 membership: tuple, visible: tuple, excess: tuple, authoritative: bool):
        self.degree, self.n_unknowns, self.n_constraints = degree, n_unknowns, n_constraints
        self.computed_dim, self.projected_dim = computed_dim, projected_dim
        self.predicted_dim, self.membership = predicted_dim, membership
        self.visible, self.excess, self.authoritative = visible, excess, authoritative

    def __eq__(self, other):
        return isinstance(other, DegreeResult) and vars(self) == vars(other)

    @property
    def membership_pass(self) -> bool:
        return all(self.membership)

    @property
    def passed(self) -> bool:
        if not self.membership_pass:
            return False
        if self.authoritative:
            return self.projected_dim == self.predicted_dim
        return self.projected_dim >= self.predicted_dim

    def to_json(self):
        return {
            "degree": list(self.degree),
            "n_unknowns": self.n_unknowns,
            "n_constraints": self.n_constraints,
            "computed_dim": self.computed_dim,
            "projected_dim": self.projected_dim,
            "predicted_dim": self.predicted_dim,
            "membership_pass": self.membership_pass,
            "verdict": "pass" if self.passed else "fail",
        }


def compare(spec, window: Window, computed: NullspaceBasis,
            expected: PredictedBasis) -> DegreeResult:
    """Check predictions against a computed solution space.

    Membership: every predicted component must solve all assembled
    constraints, which is equivalent to lying in the computed nullspace
    (one ``RowSpace`` of the kernel's integer rows, built only when there
    are predicted components). Projection: ``inner_projection`` restricts
    computed and predicted rows to inner-box columns and their span
    dimensions must agree; the computed directions outside the predicted
    span are listed as excess, with the values of the kernel's unit-pivot
    ``vectors`` (for non-authoritative families flagged, not failed).
    """
    rows = [component_row(spec, window, table) for table in expected.components]
    kernel = RowSpace.of_rows(computed.int_vectors, computed.n_cols) if rows else None
    membership = tuple(not kernel.reduce(row) for row in rows)
    keys, computed_rows, computed_space = inner_projection(spec, window, computed.int_vectors)
    _, predicted_rows, predicted_space = inner_projection(spec, window, rows)
    excess = ()
    if computed_space.rank > predicted_space.rank:
        leads = (full[max(full)] for full in computed.int_vectors)
        excess = tuple({keys[p]: Fraction(v, lead) for p, v in row.items()}
                       for row, lead in zip(computed_rows, leads)
                       if row and predicted_space.reduce(row))
    return DegreeResult(expected.degree, computed.n_cols, _n_constraints(spec, window),
                        computed.dimension, computed_space.rank, predicted_space.rank,
                        membership, tuple(bool(row) for row in predicted_rows),
                        excess, expected.authoritative)


class SweepReport:
    """Aggregated per-degree comparison over a box of degrees; ``reason``
    says why it reports dimensions only, or is None if it asserts them."""

    def __init__(self, family: str, window: Window, delta: Fraction, degree_bound: int,
                 results: tuple, verdict: str, reason: str):
        self.family, self.window, self.delta = family, window, delta
        self.degree_bound, self.results = degree_bound, results
        self.verdict, self.reason = verdict, reason

    @property
    def authoritative(self) -> bool:
        return all(r.authoritative for r in self.results)

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.results)

    def to_json(self):
        return {
            "family": self.family,
            "radius": self.window.radius,
            "inner_margin": self.window.inner_margin,
            "delta": exactlin.scalar_to_str(self.delta),
            "degree_bound": self.degree_bound,
            "degrees": [r.to_json() for r in self.results],
            "verdict": self.verdict,
            "authoritative": self.authoritative,
            "all_pass": self.all_pass,
        }


def solve_degrees(spec, window: Window, degree_bound: int, delta=HALF,
                  max_unknowns=None) -> dict:
    """Assemble and solve every degree in Box(degree_bound).

    Returns degree -> kernel (``NullspaceBasis``): the one map of solved
    degrees, read as it is by ``sweep`` and ``tpstruct.classify``. The
    unknowns are counted against ``max_unknowns``, and every degree's
    cells (the same count for each) against ``exactlin.DEFAULT_MAX_CELLS``,
    before any degree is listed. An automorphism of ``spec.automorphisms``
    carries the degree-a system onto the degree sigma a one, and its kernel
    with it: the first degree of each orbit in ``box_points`` order is
    solved, the others are transported (``_transported``).
    """
    if degree_bound > window.radius:
        raise ValueError("degree_bound must not exceed the window radius")
    _check_unknowns(spec, window, max_unknowns)
    exactlin.check_cells(_n_constraints(spec, window), _n_unknowns(spec, window))
    box, out = box_points(degree_bound, spec.rank), {}
    for a in box:
        if a not in out:
            out[a] = kernel = solve(assemble(spec, a, window, delta=delta))
            for element in spec.automorphisms:
                if act(element[0], a) not in out:
                    out[act(element[0], a)] = _transported(spec, window, kernel, element)
    return {a: out[a] for a in box}


def _transported(spec, window: Window, kernel: NullspaceBasis, element) -> NullspaceBasis:
    """The kernel at sigma a from the kernel at a: conjugating by the
    automorphism e_(x,i) -> s eps_i e_(sigma x, tau i) of ``element`` moves the
    entry at (x, r, c) to (sigma x, tau r, tau c) times eps_r eps_c, and the
    moved span is put back in canonical form. No row is drawn."""
    sigma, tau, _ = element
    dv = spec.dim_v
    cols = [((p * dv + tau[r][0]) * dv + tau[c][0], tau[r][1] * tau[c][1])
            for p in _box_perm(sigma, window.radius) for r in range(dv) for c in range(dv)]
    rows = [{cols[n][0]: cols[n][1] * v for n, v in row.items()} for row in kernel.int_vectors]
    return NullspaceBasis(kernel.n_cols, exactlin._canonical(rows, kernel.n_cols))


def sweep(spec, window: Window, degree_bound: int, delta=HALF,
          max_unknowns=None, solved: dict = None) -> SweepReport:
    """Solve every degree in Box(degree_bound) and compare it with its prediction.

    The classifications are wired for delta = 1/2 only, and the
    authoritative ones assume a form f (Block) or pairing (generalized
    Witt) of rank n over Q (``spec.nondegenerate``). Where either fails,
    every degree gets a dimension report with nothing asserted, and the
    verdict names the reason.
    """
    if solved is None:
        solved = solve_degrees(spec, window, degree_bound, delta=delta,
                               max_unknowns=max_unknowns)
    reason = None
    if Fraction(delta) != HALF:
        reason = "delta != 1/2"
    elif _authoritative(spec) and not spec.nondegenerate:
        reason = "degenerate %s" % {"block": "form f", "witt_type": "map f"}.get(
            spec.family, "pairing")
    predict = _predictor(spec, window) if reason is None else None
    results = []
    span_names = []
    for a in box_points(degree_bound, spec.rank):
        exp = (predict(a) if reason is None
               else PredictedBasis(tuple(a), (), authoritative=False))
        rep = compare(spec, window, solved[tuple(a)], exp)
        span_names.extend(name for name, vis in zip(exp.names, rep.visible) if vis)
        results.append(rep)
    authoritative = all(r.authoritative for r in results)
    all_pass = all(r.passed for r in results)
    body = "span{%s}" % ", ".join(dict.fromkeys(span_names))
    if reason is not None:
        verdict = "dimension report only (%s)" % reason
    elif authoritative:
        verdict = ("Delta = %s" % body) if all_pass else ("FAILED: expected Delta = %s" % body)
    else:
        extra = "" if all(r.projected_dim == r.predicted_dim for r in results) \
            else "; excess dimensions present"
        verdict = "Delta contains %s (non-authoritative%s)" % (body, extra)
    return SweepReport(spec.family, window, Fraction(delta), degree_bound,
                       tuple(results), verdict, reason)
