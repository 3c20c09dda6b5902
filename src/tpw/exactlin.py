"""Exact linear algebra over the rationals.

Scalars are arbitrary-precision rationals (``fractions.Fraction``), which
already carry the canonical invariants we need: reduced representation and
a positive denominator. ``RowSpace`` is the one elimination kernel: an
incremental echelon of denominator-cleared integer rows with per-row gcd
reduction, which keeps entry growth bounded in practice while every
intermediate value stays exact. ``RowSpace.from_source`` reads every row
source by one rule, elimination and then a certificate against an integer
kernel basis; ``RowSpace.kernel()`` is the one kernel read-out. A rank, a
row-space basis, ``nullspace``, ``in_span``, the classifier's
commutativity solve and every span check after a solve are reads of one
``RowSpace``. ``SparseMatrix`` holds a matrix assembled from entries (a
system's ``matrix``). No floating point appears anywhere in this package.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

__all__ = [
    "DEFAULT_MAX_CELLS",
    "DimensionMismatchError",
    "DimensionOverflowError",
    "NullspaceBasis",
    "RowSpace",
    "SparseMatrix",
    "in_span",
    "int_row",
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
    rational vectors; ``RowSpace.from_source`` eliminates a row source.
    ``v in space`` decides membership exactly and ``basis()`` returns the
    unique reduced echelon basis, so insertion order never shows.
    """

    def __init__(self, vectors=(), n_cols=None):
        vectors = list(vectors)
        if n_cols is None:
            n_cols = len(vectors[0]) if vectors else 0
        self.n_cols = n_cols
        self.rows = {}
        self._reduced = None  # (rank, rows): rows are only added, each raising the rank
        self.rows_consumed = 0
        self.rows_checked = 0
        for v in vectors:
            self._check_length(v)
            self.insert(_vector_int_row(v))

    @classmethod
    def from_source(cls, source) -> "RowSpace":
        """The row space of ``source``, its rows drawn in stream order.

        ``source`` has ``n_rows``, ``n_cols`` and an ``int_rows()`` iterator
        of integer row dicts; a ``SparseMatrix`` is one. Rows are eliminated
        until as many of them have reduced to zero as the kernel still has
        dimensions (``n_cols - rank``); each later row of the same stream
        is checked against the kernel K of the rows before it
        (``_certify``). So every drawn row is consumed or checked
        (``rows_generated = rows_consumed + rows_checked``), and
        ``rows_consumed - rank``, the rows reduced for nothing, never
        exceeds ``n_cols``. ``n_rows x n_cols`` is checked against
        ``DEFAULT_MAX_CELLS`` before any row is drawn, and no row is drawn
        once the rank reaches ``n_cols``.
        """
        if source.n_rows * source.n_cols > DEFAULT_MAX_CELLS:
            raise DimensionOverflowError(
                "%dx%d matrix exceeds the %d-cell limit"
                % (source.n_rows, source.n_cols, DEFAULT_MAX_CELLS))
        space = cls(n_cols=source.n_cols)
        rows = source.int_rows()
        zeros = 0
        for row in rows:
            rank = space.rank
            space.rows_consumed += 1
            space.insert(row)
            if space.rank == space.n_cols:
                return space
            zeros += space.rank == rank
            if zeros >= space.n_cols - space.rank:
                break
        space._certify(rows)
        return space

    def _certify(self, rows):
        """Add ``rows`` to the span, eliminating only those that shrink it.

        K, an integer basis of the kernel of the span, is kept by stable id
        in canonical order and indexed by column. A row with zero dot product
        against all of K lies in the span and is only counted in
        ``rows_checked``. A row r with r . k0 = s0 != 0, k0 of least id, is
        inserted and K loses k0: each k with r . k = s becomes s0 k - s k0,
        which r annihilates, and only k0 and these leave and re-enter the
        index. So K stays the kernel of the span, and the row space is exact.
        """
        kernel = dict(enumerate(int_row(k) for k in self._kernel_dicts()))
        index = {c: {} for c in range(self.n_cols)}  # column -> {id: entry}
        for i, k in kernel.items():
            for c, v in k.items():
                index[c][i] = v
        for row in rows:
            dots = {}
            for c, v in row.items():
                for i, kv in index[c].items():
                    dots[i] = dots.get(i, 0) + v * kv
            dots = {i: s for i, s in dots.items() if s}
            if not dots:
                self.rows_checked += 1
                continue
            self.rows_consumed += 1
            self.insert(row)
            if self.rank == self.n_cols:
                return
            i0 = min(dots)
            s0, k0 = dots.pop(i0), kernel.pop(i0)
            for i in (i0, *dots):
                for c in k0 if i == i0 else kernel[i]:
                    del index[c][i]
            for i, s in dots.items():
                k = kernel[i] = _gcd_normalize(
                    {c: w for c in kernel[i].keys() | k0.keys()
                     if (w := s0 * kernel[i].get(c, 0) - s * k0.get(c, 0))})
                for c, v in k.items():
                    index[c][i] = v

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _check_length(self, vector):
        if len(vector) != self.n_cols:
            raise DimensionMismatchError(
                "vector length %d != %d columns" % (len(vector), self.n_cols))

    def reduce(self, row):
        """Return the normalized remainder of an integer ``row`` against the basis."""
        row = dict(row)
        while row:
            lead = min(row)
            pivot = self.rows.get(lead)
            if pivot is None:
                return _gcd_normalize(row)
            a = row[lead]
            b = pivot[lead]
            g = gcd(a, b)
            mb = a // g
            # Scale the row only when the pivot's lead does not divide its
            # own, and only then take the content out again: the remainder
            # is the same up to a factor, and it is normalized on return.
            scaled = b != g
            if scaled:
                ma = b // g
                row = {c: v * ma for c, v in row.items()}
            for c, v in pivot.items():
                w = row.get(c, 0) - v * mb
                if w:
                    row[c] = w
                else:
                    del row[c]
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

    def reduced_fraction_rows(self):
        """Back-substitute into reduced echelon rows with unit pivots, once per rank."""
        if self._reduced is not None and self._reduced[0] == self.rank:
            return self._reduced[1]
        reduced = {}
        for col in sorted(self.rows, reverse=True):
            src = self.rows[col]
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
        self._reduced = self.rank, reduced
        return reduced

    def basis(self) -> tuple:
        """Canonical reduced-echelon basis as dense rows, by pivot column."""
        reduced = self.reduced_fraction_rows()
        zero = Fraction(0)
        out = []
        for p in sorted(reduced):
            vec = [zero] * self.n_cols
            for c, v in reduced[p].items():
                vec[c] = v
            out.append(tuple(vec))
        return tuple(out)

    def _kernel_dicts(self):
        """Canonical kernel basis as sparse rational dicts, by free column."""
        reduced = self.reduced_fraction_rows()
        pivots = sorted(reduced)
        one = Fraction(1)
        vectors = []
        for f in range(self.n_cols):
            if f in reduced:
                continue
            vec = {f: one}
            for p in pivots:
                if p >= f:
                    break
                coeff = reduced[p].get(f)
                if coeff:
                    vec[p] = -coeff
            vectors.append(vec)
        return vectors

    def kernel(self) -> "NullspaceBasis":
        """Canonical basis of the vectors every row annihilates.

        Vector k has a unit entry at its own free (non-pivot) column and
        zeros at the other free columns; it depends only on the span.
        """
        n_cols = self.n_cols
        zero = Fraction(0)
        vectors = []
        for k in (self._kernel_dicts() if self.rank < n_cols else ()):
            vec = [zero] * n_cols
            for c, v in k.items():
                vec[c] = v
            vectors.append(tuple(vec))
        return NullspaceBasis(n_cols, tuple(vectors),
                              rows_consumed=self.rows_consumed,
                              rows_checked=self.rows_checked)


class NullspaceBasis:
    """Canonical basis of a matrix kernel.

    Vector k carries a unit entry at its own free column and zeros at all
    other free columns, which makes the basis uniquely determined by the
    kernel itself: golden comparisons stay byte-stable. ``rows_consumed``
    and ``rows_checked`` count the drawn rows as ``RowSpace.from_source``
    does (``rows_generated`` is their sum); no count takes part in equality.
    """

    def __init__(self, n_cols: int, vectors: tuple, rows_consumed: int = 0,
                 rows_checked: int = 0):
        self.n_cols, self.vectors = n_cols, vectors
        self.rows_consumed, self.rows_checked = rows_consumed, rows_checked

    def __eq__(self, other):
        return (isinstance(other, NullspaceBasis) and self.n_cols == other.n_cols
                and self.vectors == other.vectors)

    @property
    def dimension(self) -> int:
        return len(self.vectors)

    @property
    def rows_generated(self) -> int:
        return self.rows_consumed + self.rows_checked


def nullspace(source) -> NullspaceBasis:
    """Exact canonical kernel basis of a matrix or a row source.

    ``source`` is read by ``RowSpace.from_source``. Deterministic: the
    result depends only on the row space, not on row order or row scaling.
    """
    return RowSpace.from_source(source).kernel()


def _vector_int_row(vector):
    return int_row({c: Fraction(v) for c, v in enumerate(vector) if v})


def in_span(vector, basis: NullspaceBasis) -> bool:
    """Whether ``vector`` is a rational combination of the basis vectors."""
    return vector in RowSpace(basis.vectors, basis.n_cols)
