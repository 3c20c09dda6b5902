"""The index group Z^n and the scalar-valued structure data living on it.

Group elements are plain integer tuples. Additive maps into the rationals
are stored by their values on the lattice generators, antisymmetric
biadditive forms and pairings by their matrices.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product as iter_product

from .exactlin import scalar_from_str, scalar_to_str

__all__ = [
    "AdditiveMap",
    "BiadditiveForm",
    "Pairing",
    "RankMismatchError",
    "Window",
    "WitnessReport",
    "act",
    "add",
    "box_points",
    "form_from_gh",
    "nondegeneracy_witnesses",
    "norm_inf",
    "search_order",
    "signed_permutations",
    "sub",
    "zero",
]


class RankMismatchError(ValueError):
    """A group element does not match the rank of the map or form."""


def add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def zero(rank: int):
    return (0,) * rank


def norm_inf(a) -> int:
    return max(abs(x) for x in a) if a else 0


def box_points(radius: int, rank: int):
    """All points with coordinates in [-radius, radius], lexicographic."""
    rng = range(-radius, radius + 1)
    return [p for p in iter_product(rng, repeat=rank)]


def signed_permutations(rank: int):
    """The signed permutations of Z^rank, the identity first, as one
    ``(image, sign)`` per basis vector: they map each Box(r) onto itself."""
    return [tuple(zip(perm, signs)) for perm in permutations(range(rank))
            for signs in iter_product((1, -1), repeat=rank)]


def act(g, x):
    """g x for a signed permutation ``g``."""
    out = [0] * len(x)
    for xi, (k, s) in zip(x, g):
        out[k] = s * xi
    return tuple(out)


def search_order(radius: int, rank: int):
    """Box points ordered by shell, then support size, then descending lex.

    Puts simple points like (1, 0, ...) early, so witness searches return
    small deterministic witnesses near the origin.
    """
    key = lambda p: (norm_inf(p), sum(1 for x in p if x), tuple(-x for x in p))
    return sorted(box_points(radius, rank), key=key)


class Window:
    """Finite truncation of the index group.

    Identities are quantified over Box(radius). Comparisons that have to
    ignore under-constrained boundary indices restrict to the inner box of
    radius ``inner_margin`` (default: ceil(radius / 2)).
    """

    def __init__(self, radius: int, inner_margin: int = None):
        if radius < 1:
            raise ValueError("window radius must be positive")
        if inner_margin is None:
            inner_margin = min(-(-radius // 2), radius - 1)
        if not 0 <= inner_margin < radius:
            raise ValueError("inner_margin must satisfy 0 <= m < radius")
        self.radius, self.inner_margin = radius, inner_margin

    def contains(self, a) -> bool:
        return norm_inf(a) <= self.radius

    def in_inner(self, a) -> bool:
        return norm_inf(a) <= self.inner_margin


class AdditiveMap:
    """Additive map Z^n -> Q determined by its generator values."""

    __slots__ = ("gen_values",)

    def __init__(self, gen_values):
        self.gen_values = tuple(Fraction(v) for v in gen_values)

    @property
    def rank(self) -> int:
        return len(self.gen_values)

    @property
    def is_zero(self) -> bool:
        return not any(self.gen_values)

    def __call__(self, a) -> Fraction:
        if len(a) != len(self.gen_values):
            raise RankMismatchError(
                "element of rank %d fed to rank-%d map" % (len(a), self.rank))
        total = Fraction(0)
        for g, x in zip(self.gen_values, a):
            if x:
                total += g * x
        return total

    def __eq__(self, other):
        return isinstance(other, AdditiveMap) and self.gen_values == other.gen_values

    def __hash__(self):
        return hash(self.gen_values)

    def __repr__(self):
        return "AdditiveMap(%s)" % (self.gen_values,)

    def to_json(self):
        return [scalar_to_str(v) for v in self.gen_values]

    @classmethod
    def from_json(cls, data):
        return cls(scalar_from_str(v) for v in _json_array(data))


class BiadditiveForm:
    """Antisymmetric biadditive form f(a, b) = a^T M b with rational M."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        rows = tuple(tuple(Fraction(v) for v in row) for row in matrix)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("form matrix must be square")
        for i in range(n):
            for j in range(n):
                if rows[i][j] != -rows[j][i]:
                    raise ValueError("form matrix must be antisymmetric")
        self.matrix = rows

    @property
    def rank(self) -> int:
        return len(self.matrix)

    @property
    def is_zero(self) -> bool:
        return not any(any(row) for row in self.matrix)

    def __call__(self, a, b) -> Fraction:
        if len(a) != self.rank or len(b) != self.rank:
            raise RankMismatchError("element rank does not match the form")
        total = Fraction(0)
        for i, ai in enumerate(a):
            if not ai:
                continue
            row = self.matrix[i]
            for j, bj in enumerate(b):
                if bj and row[j]:
                    total += ai * row[j] * bj
        return total

    def __repr__(self):
        return "BiadditiveForm(%s)" % (self.matrix,)

    def to_json(self):
        return [[scalar_to_str(v) for v in row] for row in self.matrix]

    @classmethod
    def from_json(cls, data):
        return cls([[scalar_from_str(v) for v in _json_array(row)]
                    for row in _json_array(data)])


class Pairing:
    """Pairing <v, a> = v^T P a, linear in v and additive in a."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        rows = tuple(tuple(Fraction(v) for v in row) for row in matrix)
        if not rows or not rows[0]:
            raise ValueError("pairing matrix must be non-empty")
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise ValueError("pairing matrix must be rectangular")
        self.matrix = rows

    @property
    def dim_v(self) -> int:
        return len(self.matrix)

    @property
    def rank(self) -> int:
        return len(self.matrix[0])

    def gen_column(self, a):
        """The vector (<e_l, a>)_l, i.e. P applied to the group element."""
        if len(a) != self.rank:
            raise RankMismatchError("element rank does not match the pairing")
        return tuple(
            sum((row[j] * x for j, x in enumerate(a) if x), Fraction(0))
            for row in self.matrix)

    def __call__(self, v, a) -> Fraction:
        if len(v) != self.dim_v:
            raise RankMismatchError("vector length does not match dim V")
        col = self.gen_column(a)
        return sum((Fraction(vl) * cl for vl, cl in zip(v, col) if vl), Fraction(0))

    def __repr__(self):
        return "Pairing(%s)" % (self.matrix,)

    def to_json(self):
        return [[scalar_to_str(v) for v in row] for row in self.matrix]

    @classmethod
    def from_json(cls, data):
        return cls([[scalar_from_str(v) for v in _json_array(row)]
                    for row in _json_array(data)])


def _json_array(data):
    """``data`` if it is a JSON array: a string is no list of scalars."""
    if not isinstance(data, list):
        raise ValueError("expected a JSON array, got %r" % (data,))
    return data


def form_from_gh(g: AdditiveMap, h: AdditiveMap) -> BiadditiveForm:
    """The form f(a, b) = g(a) h(b) - g(b) h(a) as a matrix."""
    if g.rank != h.rank:
        raise RankMismatchError("g and h must have the same rank")
    gv, hv = g.gen_values, h.gen_values
    n = g.rank
    return BiadditiveForm(
        [[gv[i] * hv[j] - hv[i] * gv[j] for j in range(n)] for i in range(n)])


class WitnessReport:
    """Witnesses of non-degeneracy found within a window."""

    def __init__(self, witnesses: dict, missing: tuple):
        self.witnesses, self.missing = witnesses, missing

    @property
    def degenerate_in_window(self) -> bool:
        return bool(self.missing)


def nondegeneracy_witnesses(datum, window: Window) -> WitnessReport:
    """For each nonzero a in the box, a witness that a pairs non-trivially.

    For a form the witness is a group element b with f(a, b) != 0; for a
    pairing it is a basis vector v of V with <v, a> != 0. Absence of a
    witness is reported, never raised: a windowed search cannot prove
    global degeneracy.
    """
    rank = datum.rank
    witnesses = {}
    missing = []
    if isinstance(datum, Pairing):
        unit = [Fraction(0)] * datum.dim_v
        for a in box_points(window.radius, rank):
            if not any(a):
                continue
            col = datum.gen_column(a)
            hit = next((l for l, v in enumerate(col) if v), None)
            if hit is None:
                missing.append(a)
            else:
                vec = list(unit)
                vec[hit] = Fraction(1)
                witnesses[a] = tuple(vec)
    else:
        order = search_order(window.radius, rank)
        for a in box_points(window.radius, rank):
            if not any(a):
                continue
            hit = next((b for b in order if datum(a, b)), None)
            if hit is None:
                missing.append(a)
            else:
                witnesses[a] = hit
    return WitnessReport(witnesses, tuple(missing))
