"""Independent oracles used to cross-check the library's fast paths.

The elimination oracles are textbook row reduction over Fractions, dense
or row at a time on dict rows, with none of the library's machinery, so
the paths share no code. ``_constraint_rows``, ``RebuildingRowSpace``,
``fraction_back_substitution`` and ``slow_pair_constants`` are the slow
paths the row stream, the in-place kernel index, the fraction-free
back-substitution and the pair table's unit differences replaced, kept to
be compared with them on the same inputs.
"""

from fractions import Fraction
from math import gcd, lcm

from tpw.exactlin import NullspaceBasis, _gcd_normalize


def dense_rref(rows):
    """Reduced row echelon form of dense rows; returns (matrix, pivot cols)."""
    mat = [[Fraction(v) for v in row] for row in rows]
    n_rows = len(mat)
    n_cols = len(mat[0]) if mat else 0
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot_row = None
        for i in range(r, n_rows):
            if mat[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        pv = mat[r][c]
        mat[r] = [x / pv for x in mat[r]]
        for i in range(n_rows):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return mat, pivots


def oracle_rank(rows):
    if not rows:
        return 0
    return len(dense_rref(rows)[1])


def oracle_nullspace(rows, n_cols):
    """Kernel basis by brute force: one vector per free column."""
    if rows:
        mat, pivots = dense_rref(rows)
    else:
        mat, pivots = [], []
    pivot_set = set(pivots)
    vectors = []
    for f in range(n_cols):
        if f in pivot_set:
            continue
        vec = [Fraction(0)] * n_cols
        vec[f] = Fraction(1)
        for r, p in enumerate(pivots):
            if mat[r][f]:
                vec[p] = -mat[r][f]
        vectors.append(tuple(vec))
    return vectors


def sparse_nullspace(rows, n_cols):
    """Kernel basis by row-at-a-time Gauss-Jordan on dict rows (col -> value).

    Every kept row has a unit at its pivot, which is its leading column,
    and zeros at every other pivot. A new row is cleared at the pivots it
    touches, scaled to a unit at its leading column, and that column is
    then cleared from the kept rows. The kernel is ``oracle_nullspace``'s
    canonical basis, one vector per free column.
    """
    kept = {}
    for row in rows:
        row = {c: Fraction(v) for c, v in row.items() if v}
        for p in [c for c in row if c in kept]:
            f = row[p]
            for c, v in kept[p].items():
                w = row.get(c, 0) - f * v
                if w:
                    row[c] = w
                else:
                    row.pop(c, None)
        if not row:
            continue
        lead = min(row)
        inv = 1 / row[lead]
        row = {c: v * inv for c, v in row.items()}
        for other in kept.values():
            f = other.get(lead)
            if f:
                for c, v in row.items():
                    w = other.get(c, 0) - f * v
                    if w:
                        other[c] = w
                    else:
                        other.pop(c, None)
        kept[lead] = row
    vectors = []
    for f in range(n_cols):
        if f in kept:
            continue
        vec = [Fraction(0)] * n_cols
        vec[f] = Fraction(1)
        for p, row in kept.items():
            if f in row:
                vec[p] = -row[f]
        vectors.append(tuple(vec))
    return vectors


class CountingSource:
    """A row source that passes ``source``'s row orbits and certificate on
    and counts the rows drawn from them: ``drawn`` all of them,
    ``certificate_rows`` those the certificate handed over. The rows of a
    skipped orbit part are never drawn."""

    def __init__(self, source):
        self.source = source
        self.n_rows, self.n_cols = source.n_rows, source.n_cols
        self.drawn = self.certificate_rows = 0

    def orbits(self):
        return self.certified_orbits()[0]

    def certified_orbits(self):
        certified = getattr(self.source, "certified_orbits", None)
        orbits, certificate = certified() if certified else (self.source.orbits(), None)
        orbits = (map(self._counted, orbit) for orbit in orbits)
        if certificate is None:
            return orbits, None

        def counted(vectors):
            rows = certificate(vectors)
            return None if rows is None else self._counted(rows, certified=True)
        return orbits, counted

    def _counted(self, rows, certified=False):
        for row in rows:
            self.drawn += 1
            self.certificate_rows += certified
            yield row


def oracle_in_span(vector, vectors):
    """Span membership by comparing ranks of stacked rows."""
    base = [list(v) for v in vectors]
    return oracle_rank(base + [list(vector)]) == oracle_rank(base)


def scalar_bracket_coeff(spec, a, b):
    """The paper's bracket coefficient of a scalar family, from its data.

    f(a, b) + g(a - b) for Block and f(b) - f(a) for Witt type, evaluated
    through ``AdditiveMap`` and ``BiadditiveForm`` in Fractions, so it
    shares nothing with the algebra's integer structure constants.
    """
    if spec.family == "block":
        return spec.f(a, b) + spec.g(tuple(s - t for s, t in zip(a, b)))
    assert spec.family == "witt_type", spec.family
    return spec.f(b) - spec.f(a)


def ordered_pair_rows(spec, degree, radius, delta):
    """Constraint rows of one degree, one per ordered pair, as dense rows.

    The assembly as first written: a row (a block of dim V^3 rows for
    generalized Witt) for every ordered pair (x, y) with x, y and x + y in
    Box(radius), entries computed in Fractions straight from the family's
    closed bracket formula. Column positions follow ``halfderiv.columns_for``
    (its own keys are x on the scalar families).
    """
    from itertools import product as iter_product

    def add(p, q):
        return tuple(s + t for s, t in zip(p, q))

    box = list(iter_product(range(-radius, radius + 1), repeat=spec.rank))
    box_set = set(box)
    inv_delta = 1 / Fraction(delta)
    witt = spec.family == "generalized_witt"
    dv = spec.dim_v if witt else 1
    col = {}
    for x in box:
        for r in range(dv):
            for c in range(dv):
                col[(x, r, c) if witt else x] = len(col)
    rows = []
    for x in box:
        for y in box:
            xy = add(x, y)
            if xy not in box_set:
                continue
            if not witt:
                row = [Fraction(0)] * len(col)
                row[col[xy]] += scalar_bracket_coeff(spec, x, y) * inv_delta
                row[col[x]] -= scalar_bracket_coeff(spec, add(degree, x), y)
                row[col[y]] -= scalar_bracket_coeff(spec, x, add(degree, y))
                rows.append(row)
                continue
            px, py = spec.pairing.gen_column(x), spec.pairing.gen_column(y)
            pax = spec.pairing.gen_column(add(degree, x))
            pay = spec.pairing.gen_column(add(degree, y))
            for i in range(dv):
                for j in range(dv):
                    for k in range(dv):
                        row = [Fraction(0)] * len(col)
                        row[col[(xy, k, j)]] += inv_delta * py[i]
                        row[col[(xy, k, i)]] -= inv_delta * px[j]
                        if j == k:
                            for l in range(dv):
                                row[col[(x, l, i)]] -= py[l]
                        row[col[(x, k, i)]] += pax[j]
                        row[col[(y, k, j)]] -= pay[i]
                        if i == k:
                            for l in range(dv):
                                row[col[(y, l, j)]] += px[l]
                        rows.append(row)
    return rows


def _constraint_rows(system):
    """The streamed constraint rows of a system, as ``halfderiv`` first wrote them.

    The slow path of ``HalfDerivationSystem.int_rows``: every unordered pair
    (x, y) in the same order (the box sorted by the max norm, y from x on),
    with t(x, y), t(a + x, y) and t(x, a + y) each read from the family's
    structure constants instead of offset from a pair table. The row of
    (x, i; y, j; k) is the e_(a+x+y, k) coefficient of
    phi([u, v]) / delta - [phi(u), v] - [u, phi(v)] for u = e_(x,i) and
    v = e_(y,j), with column (x, r, c) at pos(x) dv^2 + r dv + c; only
    labels (x, i) < (y, j) are generated, and rows that vanish are skipped.
    """
    from itertools import product as iter_product

    def add(p, q):
        return tuple(s + t for s, t in zip(p, q))

    spec, a, delta = system.spec, system.degree, system.delta
    radius = system.window.radius
    box = list(iter_product(range(-radius, radius + 1), repeat=spec.rank))
    pos = {x: n for n, x in enumerate(box)}
    order = sorted(box, key=lambda p: max(map(abs, p), default=0))
    dv = spec.dim_v
    span = range(dv)
    _, bracket = spec.structure_constants
    image_w, side_w = delta.denominator, delta.numerator
    for n, x in enumerate(order):
        ax = add(a, x)
        base_x = pos[x] * dv * dv
        for y in order[n:]:
            pxy = pos.get(add(x, y))
            if pxy is None:
                continue
            base_y = pos[y] * dv * dv
            base_xy = pxy * dv * dv
            t_img = bracket(x, y)
            t_x = bracket(ax, y)
            t_y = bracket(x, add(a, y))
            for i in span:
                for j in (range(i + 1, dv) if x == y else span):
                    for k in span:
                        row = {}
                        for l in span:
                            c = t_img[i][j][l]
                            if c:
                                key = base_xy + k * dv + l
                                row[key] = row.get(key, 0) + image_w * c
                            c = t_x[l][j][k]
                            if c:
                                key = base_x + l * dv + i
                                row[key] = row.get(key, 0) - side_w * c
                            c = t_y[i][l][k]
                            if c:
                                key = base_y + l * dv + j
                                row[key] = row.get(key, 0) - side_w * c
                        row = {c: v for c, v in row.items() if v}
                        if row:
                            yield row


class RebuildingRowSpace:
    """The row space of a row source as the kernel loop of
    ``exactlin.kernel_of`` reads it, as the loop was first written: the
    slow twin of both of its update rules. Every vector a row meets becomes
    s0 k - s k0 over its content, whether or not s0 divides s, and the
    column index of the kernel basis K is rebuilt after every shrink.

    K starts at the identity and is a list in id order, so a position
    orders like a stable id. ``kernel()`` reads the canonical basis off K
    by ``dense_rref`` on the reversed columns.
    """

    def __init__(self, source):
        self.n_cols = source.n_cols
        self.rows_consumed = self.rows_checked = 0
        kernel = [{c: 1} for c in range(self.n_cols)]
        index = _column_index(kernel)
        rows = source.int_rows()
        while kernel:
            row = next(rows, None)
            if row is None:
                break
            dots = {}
            for c, v in row.items():
                for i, kv in index.get(c, ()):
                    dots[i] = dots.get(i, 0) + v * kv
            dots = {i: s for i, s in dots.items() if s}
            if not dots:
                self.rows_checked += 1
                continue
            self.rows_consumed += 1
            i0 = min(dots, key=lambda i: (len(kernel[i]), i))
            s0, k0 = dots[i0], kernel[i0]
            kernel = [k if i not in dots else _gcd_normalize(
                {c: w for c in k.keys() | k0.keys()
                 if (w := s0 * k.get(c, 0) - dots[i] * k0.get(c, 0))})
                for i, k in enumerate(kernel) if i != i0]
            index = _column_index(kernel)
        self.vectors = kernel

    def kernel(self):
        n = self.n_cols
        reversed_rows = [[k.get(c, 0) for c in reversed(range(n))] for k in self.vectors]
        mat, pivots = dense_rref(reversed_rows)
        rows = tuple(primitive_row(mat[r][::-1]) for r in reversed(range(len(pivots))))
        return NullspaceBasis(n, rows, self.rows_consumed, self.rows_checked)


def primitive_row(vector):
    """The nonzero entries of a rational vector as an integer dict in column
    order, scaled by a positive rational to coprime integers."""
    entries = {c: Fraction(v) for c, v in enumerate(vector) if v}
    scale = lcm(*(v.denominator for v in entries.values()))
    ints = {c: int(v * scale) for c, v in entries.items()}
    content = gcd(*ints.values())
    return {c: v // content for c, v in ints.items()}


def check_canonical(basis):
    """Assert the canonical form of a ``NullspaceBasis``: primitive integer
    rows in column order, by pivot, each positive at its pivot (its last
    nonzero column) and zero at every other pivot."""
    pivots = [max(row) for row in basis.int_vectors]
    assert pivots == sorted(set(pivots)), pivots
    for row, p in zip(basis.int_vectors, pivots):
        assert list(row) == sorted(row) and all(row.values()), row
        assert row[p] > 0 and gcd(*row.values()) == 1, row
        assert not any(q in row for q in pivots if q != p), row


def fraction_back_substitution(space):
    """The reduced echelon of a ``RowSpace`` as dense rows, by pivot column,
    back-substituted in Fractions as ``RowSpace.basis()`` first was: each
    row to a unit pivot with zeros at every other pivot, from the last
    pivot column down."""
    reduced = {}
    for col in sorted(space.rows, reverse=True):
        src = space.rows[col]
        inv = Fraction(1, src[col])
        row = {c: v * inv for c, v in src.items()}
        for p in [c for c in row if c != col and c in reduced]:
            coeff = row.pop(p)
            for cc, vv in reduced[p].items():
                if cc == p:
                    continue
                w = row.get(cc, 0) - coeff * vv
                if w:
                    row[cc] = w
                else:
                    row.pop(cc, None)
        reduced[col] = row
    out = []
    for p in sorted(reduced):
        vec = [Fraction(0)] * space.n_cols
        for c, v in reduced[p].items():
            vec[c] = v
        out.append(tuple(vec))
    return tuple(out)


def _column_index(vectors):
    """column -> [(i, entry)] over the nonzero entries of integer dicts."""
    index = {}
    for i, vec in enumerate(vectors):
        for c, v in vec.items():
            index.setdefault(c, []).append((i, v))
    return index


def _first_failure(spec, labels, sides):
    """First triple of ``labels`` in nested order whose two sides differ.

    ``sides`` takes the three basis elements. Returns
    ``((triple, lhs, rhs), position)`` with a 1-based position, or
    ``(None, len(labels) ** 3)`` when the identity holds on every triple;
    the position is also the number of triples evaluated.
    """
    from itertools import product as iter_product

    e = {l: spec.basis_element(l) for l in labels}
    for n, triple in enumerate(iter_product(labels, repeat=3), 1):
        lhs, rhs = sides(*(e[l] for l in triple))
        if lhs != rhs:
            return (triple, lhs, rhs), n
    return None, len(labels) ** 3


def element_verify(spec, product, window):
    """``tpstruct.verify`` written out identity by identity.

    Every side is evaluated with the public ``multiply`` and the spec's
    element bracket, with no memo, and each identity is scanned on its own
    over the shell-ordered labels. The report counts the triples up to the
    last of the three first witnesses, or all triples when one identity
    holds everywhere, which is where a joint scan stops.
    """
    from tpw.lattice import search_order
    from tpw.tpstruct import IdentityCheck, VerificationReport, multiply

    labels = spec.basis_labels(search_order(window.radius, spec.rank))
    e = {l: spec.basis_element(l) for l in labels}
    br = spec.bracket

    def mul(x, y):
        return multiply(spec, product, x, y)

    comm, n_comm = None, 0
    for u in labels:
        for v in labels:
            n_comm += 1
            if mul(e[u], e[v]) != mul(e[v], e[u]):
                comm = ((u, v), mul(e[u], e[v]), mul(e[v], e[u]))
                break
        if comm:
            break
    assoc, n_assoc = _first_failure(
        spec, labels, lambda x, y, z: (mul(mul(x, y), z), mul(x, mul(y, z))))
    trans, n_trans = _first_failure(
        spec, labels,
        lambda x, y, z: (2 * mul(x, br(y, z)), br(mul(x, y), z) + br(y, mul(x, z))))
    poisson, n_poisson = _first_failure(
        spec, labels,
        lambda x, y, z: (br(mul(x, y), z), mul(x, br(y, z)) + mul(br(x, z), y)))
    n_triples = (max(n_assoc, n_trans, n_poisson) if assoc and trans and poisson
                 else len(labels) ** 3)
    return VerificationReport(
        commutative=IdentityCheck(comm),
        associative=IdentityCheck(assoc),
        trans_leibniz=IdentityCheck(trans),
        poisson_leibniz=IdentityCheck(poisson),
        n_triples=n_triples,
        visited=n_comm + n_assoc + n_trans + n_poisson,
    )


def element_lie(spec, window):
    """``algebra.verify_lie_axioms`` as a plain ordered scan with no memo.

    Every bracket is evaluated afresh with the public ``algebra.bracket``:
    [x, y] + [y, x] on the basis pairs i <= j of the shell-ordered labels,
    then the Jacobi sum on the triples i <= j <= k. Each stage counts its
    tuples up to its first witness, or all of them, as the library does.
    """
    from tpw.algebra import LieReport, bracket
    from tpw.lattice import search_order

    labels = spec.basis_labels(search_order(window.radius, spec.rank))
    e = [spec.basis_element(l) for l in labels]
    n = len(labels)

    def br(x, y):
        return bracket(spec, x, y)

    def first(tuples, residual):
        count = 0
        for count, idx in enumerate(tuples, 1):
            res = residual(*(e[i] for i in idx))
            if not res.is_zero:
                return tuple(labels[i] for i in idx) + (res,), count
        return None, count

    anti, n_pairs = first(((i, j) for i in range(n) for j in range(i, n)),
                          lambda x, y: br(x, y) + br(y, x))
    jac, n_triples = first(
        ((i, j, k) for i in range(n) for j in range(i, n) for k in range(j, n)),
        lambda x, y, z: br(br(x, y), z) + br(br(y, z), x) + br(br(z, x), y))
    return LieReport(anti, jac, n_pairs, n_triples, visited=n_pairs + n_triples)


def element_associativity(spec, product, labels):
    """``(passed, first failing triple)`` of (u.v).w = u.(v.w), via ``multiply``."""
    from tpw.tpstruct import multiply

    def mul(x, y):
        return multiply(spec, product, x, y)

    witness, _ = _first_failure(
        spec, labels, lambda x, y, z: (mul(mul(x, y), z), mul(x, mul(y, z))))
    return (witness is None, None if witness is None else witness[0])


def slow_pair_constants(spec, radius):
    """The constants of ``halfderiv._pair_table`` as its pairs were first
    filled: t(x, y) flattened, one call of the family's t per pair, for x
    through Box(radius) sorted by the max norm and y from x on (past x when
    dim V = 1), wherever x + y lies in the box."""
    from itertools import product as iter_product

    box = list(iter_product(range(-radius, radius + 1), repeat=spec.rank))
    inside = set(box)
    order = sorted(box, key=lambda p: max(map(abs, p), default=0))
    _, t = spec.structure_constants
    consts = []
    for n, x in enumerate(order):
        for y in order[n + (spec.dim_v == 1):]:
            if tuple(s + u for s, u in zip(x, y)) in inside:
                consts.extend(v for ci in t(x, y) for cij in ci for v in cij)
    return consts
