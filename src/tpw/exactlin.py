"""Exact linear algebra over the rationals.

Scalars are arbitrary-precision rationals (``fractions.Fraction``), which
already carry the canonical invariants we need: reduced representation and
a positive denominator. ``kernel_of`` is the one kernel algorithm: it
shrinks an integer kernel basis, from the identity, by each drawn row that
meets it, and reads the canonical basis off what is left. It reads rows in
orbits of a symmetry of the system and draws the rest of an orbit only
when the orbit's first rows shrink the basis; a plain row stream is one
orbit. A certificate from the row source can prove the basis is already
the kernel, and then no more rows are drawn. ``nullspace`` and the
classifier's commutativity solve both call it.
``RowSpace`` is an incremental echelon of denominator-cleared integer
rows with per-row gcd reduction and one fraction-free back-substitution
(``reduced``); a rank, a row-space basis, ``in_span``, every span check
after a solve and the canonical kernel basis are reads of it. A kernel
basis stays in primitive integer rows (``NullspaceBasis.int_vectors``) from
the elimination to every verdict; its ``Fraction`` vectors are built only
when a caller reads them. ``SparseMatrix`` holds a matrix assembled from
entries (a system's ``matrix``). No floating point appears anywhere in
this package.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd

__all__ = [
    "DEFAULT_MAX_CELLS",
    "DimensionMismatchError",
    "DimensionOverflowError",
    "NullspaceBasis",
    "RowSpace",
    "SparseMatrix",
    "check_cells",
    "in_span",
    "int_row",
    "kernel_of",
    "nullspace",
    "scalar_from_str",
    "scalar_to_str",
]

DEFAULT_MAX_CELLS = 200_000_000


class DimensionOverflowError(Exception):
    """The matrix exceeds the cell limit; the window is too large."""


class DimensionMismatchError(Exception):
    """A vector length does not match the expected column count."""


def scalar_from_str(text: str) -> Fraction:
    """Parse ``"p/q"`` or ``"p"`` exactly; ``ValueError`` if malformed or q = 0."""
    try:
        return Fraction(str(text).strip())
    except ZeroDivisionError:
        raise ValueError("%r has a zero denominator" % (text,)) from None


def scalar_to_str(value) -> str:
    """Render an exact rational as ``"p/q"``, or just ``"p"`` when q = 1."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return "%d/%d" % (value.numerator, value.denominator)


class SparseMatrix:
    """Immutable sparse matrix with Fraction entries.

    Entries are kept sorted by (row, col) with no explicit zeros and no
    duplicates, so iteration is deterministic however the matrix was built.
    Rows with no entries still count toward ``n_rows``.
    """

    __slots__ = ("n_rows", "n_cols", "entries")

    def __init__(self, n_rows: int, n_cols: int, entries=()):
        if n_rows < 0 or n_cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        cleaned = {}
        for r, c, v in entries:
            if not (0 <= r < n_rows and 0 <= c < n_cols):
                raise ValueError("entry (%r, %r) out of range" % (r, c))
            if (r, c) in cleaned:
                raise ValueError("duplicate entry at (%r, %r)" % (r, c))
            v = Fraction(v)
            if v:
                cleaned[(r, c)] = v
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.entries = tuple(sorted((r, c, v) for (r, c), v in cleaned.items()))

    @classmethod
    def from_rows(cls, rows):
        """Build from an iterable of dense rows."""
        rows = [list(row) for row in rows]
        if rows:
            width = len(rows[0])
            if any(len(row) != width for row in rows):
                raise ValueError("ragged rows")
        else:
            width = 0
        ents = []
        for r, row in enumerate(rows):
            for c, v in enumerate(row):
                if v:
                    ents.append((r, c, Fraction(v)))
        return cls(len(rows), width, ents)

    def row_dicts(self):
        rows = [dict() for _ in range(self.n_rows)]
        for r, c, v in self.entries:
            rows[r][c] = v
        return rows

    def int_rows(self):
        """Nonzero rows with denominators cleared, in row order."""
        for row in self.row_dicts():
            if row:
                yield int_row(row)

    def orbits(self):
        """The rows as ``kernel_of`` reads them: one orbit, nothing skipped."""
        return [(self.int_rows(),)]

    def apply(self, vector):
        """Exact matrix-vector product."""
        if len(vector) != self.n_cols:
            raise DimensionMismatchError(
                "vector length %d != %d columns" % (len(vector), self.n_cols))
        out = [Fraction(0)] * self.n_rows
        for r, c, v in self.entries:
            out[r] += v * vector[c]
        return tuple(out)

    def __repr__(self):
        return "SparseMatrix(%d, %d, nnz=%d)" % (
            self.n_rows, self.n_cols, len(self.entries))


def _gcd_normalize(row):
    """Divide an integer row by its content; make the leading entry positive."""
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            break
    if g == 0:
        return {}
    if row[min(row)] < 0:
        g = -g
    if g != 1:
        row = {c: v // g for c, v in row.items()}
    return row


def int_row(row):
    """Integer multiple of a rational dict row: its denominators cleared."""
    lcm = 1
    for v in row.values():
        d = v.denominator
        lcm = lcm // gcd(lcm, d) * d
    return {c: v.numerator * (lcm // v.denominator) for c, v in row.items()}


class RowSpace:
    """Exact row space of rational vectors, kept as an incremental echelon.

    Rows are stored as gcd-reduced integer dicts (column -> nonzero int)
    keyed by leading column. ``RowSpace(vectors, n_cols)`` spans dense
    rational vectors, ``of_rows`` integer rows, and ``insert`` adds an
    integer row. ``v in space`` decides membership exactly; ``reduced()``
    returns the unique reduced echelon as primitive integer rows and
    ``basis()`` the same rows with unit pivots, so insertion order never
    shows.
    """

    def __init__(self, vectors=(), n_cols=None):
        vectors = list(vectors)
        if n_cols is None:
            n_cols = len(vectors[0]) if vectors else 0
        self.n_cols = n_cols
        self.rows = {}
        for v in vectors:
            self._check_length(v)
            self.insert(_vector_int_row(v))

    @classmethod
    def of_rows(cls, rows, n_cols: int):
        """The span of integer dict rows (column -> int) in ``n_cols`` columns."""
        space = cls(n_cols=n_cols)
        for row in rows:
            space.insert(row)
        return space

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _check_length(self, vector):
        if len(vector) != self.n_cols:
            raise DimensionMismatchError(
                "vector length %d != %d columns" % (len(vector), self.n_cols))

    def reduce(self, row):
        """Return the normalized remainder of an integer ``row`` against the basis.

        Explicit zero entries are dropped first: a zero lead would be stored."""
        row = {c: v for c, v in row.items() if v}
        while row:
            lead = min(row)
            pivot = self.rows.get(lead)
            if pivot is None:
                return _gcd_normalize(row)
            row, scaled = _eliminate(row, pivot, lead)
            # the remainder is the same up to a factor, and it is normalized
            # on return: take the content out only where the row was scaled
            if scaled and row:
                row = _gcd_normalize(row)
        return {}

    def insert(self, row):
        """Add an integer row to the span."""
        rem = self.reduce(row)
        if rem:
            self.rows[min(rem)] = rem

    def __contains__(self, vector) -> bool:
        """Whether a rational vector of length ``n_cols`` lies in the span."""
        self._check_length(vector)
        return not self.reduce(_vector_int_row(vector))

    def reduced(self) -> tuple:
        """The reduced echelon as primitive integer dicts, by pivot column.

        A row's pivot is its leading column, its entry there is positive
        and every other pivot column is zero; its entries are in column
        order. One fraction-free back-substitution from the last pivot
        column down: each row is cleared at every later pivot by that
        pivot's reduced row (``_eliminate``) and divided by its content.
        """
        reduced = {}
        for col in sorted(self.rows, reverse=True):
            row = dict(self.rows[col])
            for p in [p for p in row if p != col and p in reduced]:
                row, _ = _eliminate(row, reduced[p], p)
            reduced[col] = dict(sorted(_gcd_normalize(row).items()))
        return tuple(reduced[p] for p in sorted(reduced))

    def basis(self) -> tuple:
        """Canonical reduced-echelon basis as dense rows, by pivot column:
        the rows of ``reduced()`` over their pivot entries, unit at the pivot."""
        return tuple(_dense(row, row[min(row)], self.n_cols) for row in self.reduced())


def _eliminate(row, pivot, col):
    """Clear ``row`` at ``col`` by the integer row ``pivot``, positive there:
    (b/g) row - (a/g) pivot for a and b their entries at col and g = gcd(a, b).
    Returns the new row, ``row`` itself when b/g = 1, and whether it was scaled."""
    a, b = row[col], pivot[col]
    g = gcd(a, b)
    scaled = b != g
    if scaled:
        row = {c: v * (b // g) for c, v in row.items()}
    a //= g
    for c, v in pivot.items():
        w = row.get(c, 0) - v * a
        if w:
            row[c] = w
        else:
            del row[c]
    return row, scaled


def _dense(row, lead, n_cols):
    """The integer dict ``row`` over ``lead`` as a dense tuple of Fractions."""
    vec = [Fraction(0)] * n_cols
    for c, v in row.items():
        vec[c] = Fraction(v, lead)
    return tuple(vec)


class NullspaceBasis:
    """Canonical basis of a matrix kernel, kept as primitive integer rows.

    ``int_vectors`` holds the kernel's reduced echelon with each pivot at
    its row's last nonzero column, by pivot column: each row is a primitive
    integer dict in column order, positive at its pivot and zero at every
    other pivot. That makes the basis uniquely determined by the kernel
    itself, so golden comparisons stay byte-stable. ``vectors`` reads it as
    dense ``Fraction`` rows with a unit at the pivot, built on first read;
    no solve or verdict reads them. ``rows_consumed`` counts the drawn rows
    that shrank the kernel (the rank) and ``rows_checked`` the drawn rows
    that did not (``rows_generated`` is their sum), a certificate's rows
    among them; the rows of an orbit that ``kernel_of`` skips, and those
    left when a certificate stops the solve, are never drawn and count in
    neither. A kernel
    read off another one draws no row and both read 0 (``halfderiv``'s
    transported degrees, all but the first of each orbit). No count takes
    part in equality.
    """

    def __init__(self, n_cols: int, int_vectors: tuple, rows_consumed: int = 0,
                 rows_checked: int = 0):
        self.n_cols, self.int_vectors = n_cols, int_vectors
        self.rows_consumed, self.rows_checked = rows_consumed, rows_checked

    @cached_property
    def vectors(self) -> tuple:
        return tuple(_dense(row, row[max(row)], self.n_cols) for row in self.int_vectors)

    def __eq__(self, other):
        return (isinstance(other, NullspaceBasis) and self.n_cols == other.n_cols
                and self.int_vectors == other.int_vectors)

    @property
    def dimension(self) -> int:
        return len(self.int_vectors)

    @property
    def rows_generated(self) -> int:
        return self.rows_consumed + self.rows_checked


def kernel_of(orbits, n_cols: int, certificate=None) -> NullspaceBasis:
    """Canonical basis of the vectors that every integer row dict annihilates.

    The rows come in orbits of a group G of signed column permutations: an
    orbit is a sequence of row iterables, its first rows first, and G
    carries the span of the first onto the span of each other one (in
    ``halfderiv``, the rows of one pair of the window, then those of its
    images under the degree's stabilizer). A plain row stream is one orbit
    of one iterable.

    An integer basis K of the kernel starts at the identity and is kept by
    stable id, with a column index (column -> {id: entry}). A drawn row r
    that annihilates K lies in the span of the rows before it and is only
    counted. Otherwise K shrinks by one: k0 is the sparsest vector r meets
    (least id on ties), s0 = r . k0, each k with r . k = s != 0 is cleared
    against k0, and k0 leaves; only these vectors change in the index. When
    s0 divides s, k becomes k - (s/s0) k0 in place: only k0's columns are
    written, in k and in the index. Otherwise k becomes s0 k - s k0 over
    its content and is re-indexed in full. Both give k a multiple of the
    same vector, so the supports, the pivot choices and which rows shrink
    K are those of either rule alone, and so are ``rows_consumed`` and
    ``rows_checked``. No row is drawn once K is empty. K is the kernel of
    whole orbits, so G maps it onto itself: when an orbit's first rows
    annihilate K, so do their images, and the rest of the orbit is never
    drawn. The canonical basis is read off K once (``_canonical``), which
    normalizes, so it depends only on the row space, not on the scale of
    K's vectors, row order, row scaling or the rows skipped.

    A ``certificate`` from the row source stops the solve before the rows
    run out. It is asked after each row that shrinks a nonempty K, with K's
    vectors, and returns None or rows: K annihilating those rows proves
    that every row of the system does (``halfderiv._certificate``). Since K
    always holds the kernel, K is then the kernel, and no more rows are
    drawn. Its rows are checked against K as drawn rows are and count in
    ``rows_checked``; the first that meets K ends the reading and the
    stream goes on. The stop changes neither K nor ``rows_consumed``.
    """
    kernel = {c: {c: 1} for c in range(n_cols)}  # id -> integer vector
    index = [{c: 1} for c in range(n_cols)]  # column -> {id: entry}
    consumed = checked = 0
    done = False
    for orbit in orbits if kernel else ():
        before = consumed
        for rows in orbit:
            for row in rows:
                dots = _dots(row, index)
                if not any(dots.values()):
                    checked += 1
                    continue
                consumed += 1
                dots = {i: s for i, s in dots.items() if s}
                i0 = min(dots, key=lambda i: (len(kernel[i]), i))
                s0, k0 = dots.pop(i0), kernel.pop(i0)
                for c in k0:
                    del index[c][i0]
                for i, s in dots.items():
                    if not s % s0:  # k - (s/s0) k0: only k0's columns change
                        k, q = kernel[i], s // s0
                        for c, v in k0.items():
                            w = k.get(c, 0) - q * v
                            if w:
                                k[c] = index[c][i] = w
                            else:
                                del k[c], index[c][i]
                        continue
                    g = gcd(s0, s)
                    a, s = s0 // g, s // g
                    k = {c: a * v for c, v in kernel[i].items()}
                    for c, v in k0.items():
                        w = k.get(c, 0) - s * v
                        if w:
                            k[c] = w
                        else:  # c cancels, so it was in k
                            del k[c], index[c][i]
                    k = kernel[i] = _gcd_normalize(k)
                    for c, v in k.items():
                        index[c][i] = v
                if not kernel:
                    done = True
                elif certificate is not None:
                    read, done = _certify(certificate, kernel, index)
                    checked += read
                if done:
                    break
            if consumed == before or done:
                break  # the first rows annihilate K: so does the rest of the orbit
        if done:
            break
    return NullspaceBasis(n_cols, _canonical(kernel.values(), n_cols),
                          rows_consumed=consumed, rows_checked=checked)


def _dots(row, index):
    """id -> the dot of the integer dict ``row`` with that vector of K, for
    the vectors it meets, from K's column index (zero dots included)."""
    dots = {}
    get = dots.get
    for c, v in row.items():
        for i, kv in index[c].items():
            dots[i] = get(i, 0) + v * kv
    return dots


def _certify(certificate, kernel, index):
    """Ask ``certificate`` whether K is the kernel: it returns None, or rows
    whose annihilating K proves it. Returns the rows read and the answer;
    the first row that meets K ends the reading."""
    rows = certificate(kernel.values())
    if rows is None:
        return 0, False
    read = 0
    for row in rows:
        read += 1
        if any(_dots(row, index).values()):
            return read, False
    return read, True


def _canonical(vectors, n_cols):
    """The canonical basis of the span of integer dicts ``vectors``: their
    reduced echelon with each pivot at its largest column, by pivot column,
    as primitive integer dicts in column order (``RowSpace.reduced`` on the
    reversed columns)."""
    last = n_cols - 1
    space = RowSpace.of_rows(({last - c: v for c, v in k.items()} for k in vectors), n_cols)
    return tuple({last - c: v for c, v in reversed(row.items())}
                 for row in reversed(space.reduced()))


def nullspace(source) -> NullspaceBasis:
    """Exact canonical kernel basis of a row source, by ``kernel_of``.

    ``source`` has ``n_rows``, ``n_cols`` and an ``orbits()`` iterator of
    row orbits, as ``kernel_of`` reads them; a ``SparseMatrix`` is one. A
    source with a certificate also has ``certified_orbits()``, which returns its
    orbits together with it, and is read by that. ``n_rows x n_cols`` is
    checked against ``DEFAULT_MAX_CELLS`` before any orbit is built.
    """
    check_cells(source.n_rows, source.n_cols)
    certified = getattr(source, "certified_orbits", None)
    orbits, certificate = certified() if certified else (source.orbits(), None)
    return kernel_of(orbits, source.n_cols, certificate)


def check_cells(n_rows: int, n_cols: int):
    """Refuse an ``n_rows x n_cols`` system past ``DEFAULT_MAX_CELLS``."""
    if n_rows * n_cols > DEFAULT_MAX_CELLS:
        raise DimensionOverflowError("%dx%d matrix exceeds the %d-cell limit"
                                     % (n_rows, n_cols, DEFAULT_MAX_CELLS))


def _vector_int_row(vector):
    return int_row({c: Fraction(v) for c, v in enumerate(vector) if v})


def in_span(vector, basis: NullspaceBasis) -> bool:
    """Whether ``vector`` is a rational combination of the basis vectors."""
    return vector in RowSpace.of_rows(basis.int_vectors, basis.n_cols)
