"""Tests for the exact rational linear algebra kernel."""

import collections
import inspect
import math
import random
import sys
from fractions import Fraction

import pytest

from tpw import exactlin
from tpw.exactlin import (
    DimensionMismatchError,
    DimensionOverflowError,
    NullspaceBasis,
    RowSpace,
    SparseMatrix,
    in_span,
    int_row,
    nullspace,
    scalar_from_str,
    scalar_to_str,
)

from oracles import (
    CountingSource,
    RebuildingRowSpace,
    check_canonical,
    dense_rref,
    fraction_back_substitution,
    oracle_in_span,
    oracle_nullspace,
    oracle_rank,
    sparse_nullspace,
)


def test_scalar_strings_round_trip():
    assert scalar_to_str(Fraction(3, 4)) == "3/4"
    assert scalar_to_str(Fraction(-2, 1)) == "-2"
    assert scalar_to_str(0) == "0"
    assert scalar_from_str("7/3") == Fraction(7, 3)
    assert scalar_from_str("-5") == Fraction(-5)
    for s in ("1/2", "-9/7", "0", "12"):
        assert scalar_to_str(scalar_from_str(s)) == s


def test_sparse_matrix_rejects_bad_entries():
    with pytest.raises(ValueError):
        SparseMatrix(2, 2, [(2, 0, 1)])
    with pytest.raises(ValueError):
        SparseMatrix(2, 2, [(0, 0, 1), (0, 0, 2)])


def test_sparse_matrix_drops_zeros_and_sorts():
    m = SparseMatrix(2, 2, [(1, 1, 3), (0, 0, 0), (0, 1, 2)])
    assert m.entries == ((0, 1, Fraction(2)), (1, 1, Fraction(3)))


def test_nullspace_of_identity_is_trivial():
    ns = nullspace(SparseMatrix.from_rows([[1, 0], [0, 1]]))
    assert ns.dimension == 0
    assert ns.vectors == ()


def test_nullspace_of_zero_matrix_is_everything():
    ns = nullspace(SparseMatrix(2, 3))
    assert ns.dimension == 3
    assert ns.vectors == (
        (Fraction(1), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(1)),
    )


def test_nullspace_back_substitution_example():
    # hand back-substitution of [[1,2,3],[0,1,1]] gives (-1,-1,1)
    ns = nullspace(SparseMatrix.from_rows([[1, 2, 3], [0, 1, 1]]))
    assert ns.dimension == 1
    assert ns.vectors == ((Fraction(-1), Fraction(-1), Fraction(1)),)
    rows = [[1, 2, 3], [0, 1, 1]]
    assert [tuple(v) for v in oracle_nullspace(rows, 3)] == list(ns.vectors)


def _rank(m):
    space = RowSpace(n_cols=m.n_cols)
    for row in m.int_rows():
        space.insert(row)
    return space.rank


def test_rank_examples():
    assert _rank(SparseMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 3
    assert _rank(SparseMatrix(3, 3)) == 0
    # proportional rows: the 2x2 determinant 1*4 - 2*2 vanishes
    assert 1 * 4 - 2 * 2 == 0
    assert _rank(SparseMatrix.from_rows([[1, 2], [2, 4]])) == 1


def test_in_span_examples():
    basis = NullspaceBasis(2, ({1: 1},))
    assert in_span((Fraction(0), Fraction(2)), basis)
    assert in_span((0, 0), basis)
    assert not in_span((Fraction(1), Fraction(0)), basis)
    with pytest.raises(DimensionMismatchError):
        in_span((1, 0, 0), basis)


def test_in_span_of_own_vectors():
    ns = nullspace(SparseMatrix.from_rows([[1, 1, 1, 1]]))
    for v in ns.vectors:
        assert in_span(v, ns)


def test_dimension_overflow(monkeypatch):
    m = SparseMatrix.from_rows([[1, 2], [3, 4]])
    monkeypatch.setattr(exactlin, "DEFAULT_MAX_CELLS", 3)
    with pytest.raises(DimensionOverflowError):
        nullspace(m)


def _random_matrix(rng, n_rows, n_cols, density=0.4, span=4):
    entries = []
    for r in range(n_rows):
        for c in range(n_cols):
            if rng.random() < density:
                num = rng.randint(-span, span)
                if num:
                    entries.append((r, c, Fraction(num, rng.randint(1, 3))))
    return SparseMatrix(n_rows, n_cols, entries)


def test_kernel_vectors_are_exact_solutions():
    rng = random.Random(2024)
    for _ in range(40):
        m = _random_matrix(rng, rng.randint(1, 12), rng.randint(1, 10))
        ns = nullspace(m)
        for v in ns.vectors:
            assert all(x == 0 for x in m.apply(v))


def _reversed_fraction_read(basis):
    """The kernel read out as ``_canonical`` first did: the Fraction
    back-substitution of the echelon of its rows on reversed columns."""
    last = basis.n_cols - 1
    space = RowSpace.of_rows(({last - c: v for c, v in row.items()}
                              for row in basis.int_vectors), basis.n_cols)
    return tuple(vec[::-1] for vec in reversed(fraction_back_substitution(space)))


def test_kernels_are_primitive_integer_rows_read_as_fractions():
    """Random kernels are in canonical integer form, and ``vectors`` is the
    Fraction back-substitution of their span."""
    rng = random.Random(29)
    for _ in range(120):
        m = _random_matrix(rng, rng.randint(0, 9), rng.randint(1, 9),
                           span=rng.choice([4, 40]))
        ns = nullspace(m)
        check_canonical(ns)
        assert ns.vectors == _reversed_fraction_read(ns)
        assert ns.dimension == len(ns.vectors)


def test_the_reduced_echelon_is_the_fraction_back_substitution_scaled():
    """``RowSpace.reduced()`` rows are primitive, positive at their leading
    column and zero at every other one; ``basis()`` is the Fraction
    back-substitution of the same echelon."""
    rng = random.Random(30)
    for _ in range(120):
        n_cols = rng.randint(1, 8)
        rows = [[rng.randint(-9, 9) if rng.random() < 0.5 else 0 for _ in range(n_cols)]
                for _ in range(rng.randint(0, 8))]
        space = RowSpace(rows, n_cols)
        reduced = space.reduced()
        leads = [min(row) for row in reduced]
        assert leads == sorted(space.rows)
        for row, lead in zip(reduced, leads):
            assert list(row) == sorted(row) and row[lead] > 0
            assert math.gcd(*row.values()) == 1
            assert not any(q in row for q in leads if q != lead)
        assert space.basis() == fraction_back_substitution(space)


def test_rank_nullity_on_random_sparse_matrices():
    rng = random.Random(60)
    for n_rows, n_cols in [(60, 60), (50, 60), (60, 40), (17, 23)]:
        m = _random_matrix(rng, n_rows, n_cols, density=0.08)
        assert _rank(m) + nullspace(m).dimension == n_cols


def test_oracle_equivalence_small_dense():
    rng = random.Random(99)
    for _ in range(200):
        n_rows = rng.randint(1, 6)
        n_cols = rng.randint(1, 6)
        rows = [[rng.randint(-2, 2) for _ in range(n_cols)] for _ in range(n_rows)]
        ns = nullspace(SparseMatrix.from_rows(rows))
        oracle = oracle_nullspace(rows, n_cols)
        assert ns.dimension == len(oracle)
        check_canonical(ns)
        assert sparse_nullspace((dict(enumerate(r)) for r in rows), n_cols) == oracle
        assert n_cols - ns.dimension == oracle_rank(rows)
        assert ns.rows_consumed == n_cols - ns.dimension
        for v in ns.vectors:
            assert oracle_in_span(v, oracle)
        for v in oracle:
            assert in_span(v, ns)
        space = RowSpace(rows, n_cols)
        assert space.rank == oracle_rank(rows)
        mat, _ = dense_rref(rows)
        assert space.basis() == tuple(tuple(r) for r in mat if any(r))
        for _ in range(3):
            v = [rng.randint(-2, 2) for _ in range(n_cols)]
            assert (v in space) == oracle_in_span(v, rows)
        for v in list(ns.vectors) + rows:
            assert (v in space) == oracle_in_span(v, rows)


def test_row_scaling_leaves_nullspace_unchanged():
    rng = random.Random(7)
    for _ in range(25):
        m = _random_matrix(rng, rng.randint(2, 8), rng.randint(2, 8))
        rows = m.row_dicts()
        scaled = []
        for r, row in enumerate(rows):
            factor = Fraction(rng.choice([1, 2, -3, 5]), rng.choice([1, 2, 7]))
            scaled.append({c: factor * v for c, v in row.items()})
        entries = [(r, c, v) for r, row in enumerate(scaled) for c, v in row.items()]
        m2 = SparseMatrix(m.n_rows, m.n_cols, entries)
        assert nullspace(m).vectors == nullspace(m2).vectors
        assert nullspace(m) == nullspace(m2)
        assert nullspace(m).int_vectors == nullspace(m2).int_vectors


def test_row_order_does_not_matter():
    rng = random.Random(11)
    m = _random_matrix(rng, 8, 6)
    rows = m.row_dicts()
    perm = list(range(len(rows)))
    rng.shuffle(perm)
    entries = [(i, c, v) for i, p in enumerate(perm) for c, v in rows[p].items()]
    m2 = SparseMatrix(m.n_rows, m.n_cols, entries)
    assert nullspace(m).vectors == nullspace(m2).vectors


def test_row_space_basis_is_canonical():
    a = RowSpace([[2, 4, 6], [1, 1, 1]])
    b = RowSpace([[1, 1, 1], [3, 5, 7], [1, 2, 3]])
    assert a.basis() == b.basis()
    assert a.rank == b.rank == oracle_rank([[1, 1, 1], [1, 2, 3]])


def test_reads_after_an_insertion_see_the_new_row():
    """A row that raises the rank is seen by the next basis, a row in the
    span changes nothing."""
    space = RowSpace([(1, 2, 0, 1)])
    first = space.basis()
    space.insert(int_row({0: 2, 1: 4, 3: 2}))
    assert space.basis() == first
    space.insert(int_row({2: 1, 3: 3}))
    fresh = RowSpace([(1, 2, 0, 1), (0, 0, 1, 3)])
    assert space.basis() == fresh.basis() != first


def test_inserted_rows_with_explicit_zeros_match_the_oracle():
    """Zero entries of an inserted row are not stored: {0: 0, 1: 1} spans
    e_1 alone, and with {0: 1} the whole of Q^2."""
    space = RowSpace((), 2)
    space.insert({0: 0, 1: 1})
    assert space.basis() == ((0, 1),)
    space.insert({0: 1})
    assert space.rank == 2 and space.basis() == ((1, 0), (0, 1))
    rng = random.Random(7)
    for _ in range(40):
        rows = [[rng.choice([0, 0, 1, -2, 3]) for _ in range(5)] for _ in range(4)]
        space = RowSpace((), 5)
        for r in rows:
            space.insert(dict(enumerate(r)))  # every zero given explicitly
        mat, pivots = dense_rref(rows)
        assert space.rank == len(pivots)
        assert space.basis() == tuple(tuple(r) for r in mat[:len(pivots)])


def test_the_read_out_depends_only_on_the_span_of_the_kernel():
    """A kernel basis recombined by a random invertible integer matrix
    reads out as the canonical basis."""
    rng = random.Random(21)
    for _ in range(150):
        n_cols = rng.randint(1, 8)
        rows = [[rng.randint(-3, 3) if rng.random() < 0.5 else 0 for _ in range(n_cols)]
                for _ in range(rng.randint(0, n_cols))]
        oracle = oracle_nullspace(rows, n_cols)
        d = len(oracle)
        mix = [[rng.randint(-4, 4) for _ in range(d)] for _ in range(d)]
        while d and oracle_rank(mix) < d:
            mix = [[rng.randint(-4, 4) for _ in range(d)] for _ in range(d)]
        mixed = [int_row({c: x for c in range(n_cols)
                          if (x := sum(m * v[c] for m, v in zip(coeffs, oracle)))})
                 for coeffs in mix]
        rng.shuffle(mixed)
        assert list(NullspaceBasis(n_cols, exactlin._canonical(mixed, n_cols)).vectors) == oracle


def test_row_space_membership_checks_the_column_count():
    space = RowSpace([(1, 2, 0)])
    assert space.n_cols == 3 and space.rank == 1
    assert (Fraction(1, 2), 1, 0) in space
    assert (0, 0, 1) not in space
    with pytest.raises(DimensionMismatchError):
        (1, 2) in space
    with pytest.raises(DimensionMismatchError):
        RowSpace([(1, 2), (1, 2, 3)])
    assert RowSpace((), 2).basis() == ()
    assert (0, 0) in RowSpace((), 2)


class _Rows:
    """A row source: ``n_rows``, ``n_cols`` and a fresh ``int_rows()`` stream,
    which ``orbits()`` hands on as one orbit.

    ``rows`` is a list of integer dicts, or a function returning an
    iterator, for streams that must not be drawn past some row."""

    def __init__(self, n_cols, rows, n_rows=None):
        self.n_cols = n_cols
        self.n_rows = len(rows) if n_rows is None else n_rows
        self.rows = rows

    def int_rows(self):
        return self.rows() if callable(self.rows) else iter(self.rows)

    def orbits(self):
        return [(self.int_rows(),)]


def test_late_rows_that_fail_the_check_shrink_the_kernel():
    """K starts at the identity on four columns. x0 - x1, x1 + x2 + x3 and
    x0 + x1 each meet K and shrink it, to K = <(0, 0, -1, 1)>; the repeat
    2 x0 - 2 x1, the sum x0 + x2 + x3 and 3 x0 + 3 x1 - x2 - x3 meet no
    vector of K and are only checked."""
    rows = [
        {0: 1, 1: -1},
        {0: 2, 1: -2},              # a repeat up to scaling: checked
        {1: 1, 2: 1, 3: 1},
        {0: 1, 2: 1, 3: 1},         # the sum of the two rows before: checked
        {0: 1, 1: 1},               # meets K: K = <(0, 0, -1, 1)>
        {0: 3, 1: 3, 2: -1, 3: -1}, # checked: it meets no vector of K
        {1: 3, 2: 1, 3: -1},        # meets K: K is empty, the rank is full
        {0: 5, 3: 2},               # never drawn
    ]
    source = CountingSource(_Rows(4, rows))
    ns = nullspace(source)
    assert ns.vectors == ()
    assert (source.drawn, ns.rows_consumed, ns.rows_checked) == (7, 4, 3)
    rows[6:] = [{0: 1, 1: 2, 2: 1, 3: 1}]  # checked: in the span as well
    source = CountingSource(_Rows(4, rows))
    ns = nullspace(source)
    assert ns.vectors == ((0, 0, -1, 1),)
    assert ns == nullspace(SparseMatrix.from_rows(
        [[row.get(c, 0) for c in range(4)] for row in rows]))
    assert (source.drawn, ns.rows_consumed, ns.rows_checked) == (7, 3, 4)


def test_no_row_is_drawn_once_the_checked_rows_saturate_the_rank():
    """K empties after a checked row (x0 + x1 meets no vector of K), with
    none, and at once when there are no columns."""
    for n_cols, rows, counts in [(3, [{0: 1}, {1: 1}, {0: 1, 1: 1}, {2: 1}], (4, 3, 1)),
                                 (3, [{0: 1}, {1: 1}, {2: 1}], (3, 3, 0)),
                                 (0, [], (0, 0, 0))]:
        def stream():
            yield from rows
            raise AssertionError("a row was drawn after the rank saturated")
        source = CountingSource(_Rows(n_cols, stream, n_rows=len(rows) + 1))
        ns = nullspace(source)
        assert ns.vectors == ()
        assert (source.drawn, ns.rows_consumed, ns.rows_checked) == counts


def test_checked_rows_give_the_kernel_of_all_rows():
    """Random streams against the dense oracle. Each opens with k
    independent rows and n_cols distinct combinations of them, which are
    only checked; the random rows after them must still shrink the kernel,
    as they do in most cases."""
    rng = random.Random(8)
    shrunk = 0
    for _ in range(150):
        n_cols = rng.randint(2, 8)
        k = rng.randint(2, n_cols)
        base = [[rng.randint(-3, 3) for _ in range(n_cols)] for _ in range(k)]
        if oracle_rank(base) < k:
            continue
        prefix = [[sum(j ** i * b[c] for i, b in enumerate(base)) for c in range(n_cols)]
                  for j in range(1, n_cols + 1)]
        suffix = [[rng.randint(-3, 3) if rng.random() < 0.5 else 0
                   for _ in range(n_cols)] for _ in range(rng.randint(0, 6))]
        dense = base + prefix + suffix
        rows = [{c: v for c, v in enumerate(r) if v} for r in dense]
        source = CountingSource(_Rows(n_cols, rows))
        ns = nullspace(source)
        assert list(ns.vectors) == oracle_nullspace(dense, n_cols)
        check_canonical(ns)
        assert ns == nullspace(SparseMatrix.from_rows(dense))
        assert ns.rows_consumed == n_cols - ns.dimension
        assert source.drawn == ns.rows_consumed + ns.rows_checked == ns.rows_generated
        shrunk += oracle_rank(dense) > k
    assert shrunk > 50


def test_repeated_rescaled_and_negated_rows_give_the_oracle_kernel():
    """No row is skipped as a repeat: each copy of a row, rescaled, negated
    or zero, is eliminated or checked like any other row."""
    rng = random.Random(13)
    repeats = 0
    for _ in range(150):
        n_cols = rng.randint(1, 7)
        base = [[rng.randint(-3, 3) if rng.random() < 0.6 else 0 for _ in range(n_cols)]
                for _ in range(rng.randint(1, n_cols))]
        # more draws than base rows, so some base row comes more than once
        dense = [[rng.choice([1, -1, 2, -3, 5]) * v for v in rng.choice(base)]
                 for _ in range(len(base) + rng.randint(1, 6))]
        source = CountingSource(_Rows(n_cols, [
            {c: v for c, v in enumerate(r) if v} for r in dense]))
        ns = nullspace(source)
        assert list(ns.vectors) == oracle_nullspace(dense, n_cols)
        check_canonical(ns)
        assert source.drawn == ns.rows_consumed + ns.rows_checked
        assert ns.rows_consumed == n_cols - ns.dimension
        repeats += source.drawn > n_cols - ns.dimension
    assert repeats > 75


def test_in_place_kernel_index_matches_the_rebuilt_one():
    """Random streams that open with a row and n_cols - 1 multiples of it,
    which are only checked; the later rows, random ones and sums of earlier
    ones, shrink the kernel many times. The in-place column index gives the
    kernel, and consumes and checks the rows, as rebuilding the index after
    every shrink does."""
    rng = random.Random(16)
    shrinks = 0
    for _ in range(150):
        n_cols = rng.randint(2, 12)
        lead = [rng.randint(-3, 3) for _ in range(n_cols)]
        dense = [[j * v for v in lead] for j in range(1, n_cols + 1)]
        for _ in range(rng.randint(0, 2 * n_cols)):
            dense.append([rng.randint(-3, 3) if rng.random() < 0.4 else 0
                          for _ in range(n_cols)])
            if rng.random() < 0.3:
                dense.append([u + v for u, v in zip(*rng.sample(dense, 2))])
        source = _Rows(n_cols, [{c: v for c, v in enumerate(r) if v} for r in dense])
        ns = nullspace(source)
        rebuilt = RebuildingRowSpace(source)
        assert ns == rebuilt.kernel()
        assert list(ns.vectors) == oracle_nullspace(dense, n_cols)
        assert (ns.rows_consumed, ns.rows_checked) == (
            rebuilt.rows_consumed, rebuilt.rows_checked)
        shrinks += ns.rows_consumed
    assert shrinks > 500


def _update_rules(run):
    """``run()``, and how many vector updates ``kernel_of`` made in it by
    each rule: (in place, rebuilt), counted from the lines it executes."""
    code = exactlin.kernel_of.__code__
    lines, first = inspect.getsourcelines(exactlin.kernel_of)
    in_place, rebuilt = (first + next(n for n, line in enumerate(lines) if text in line)
                         for text in ("s // s0", "gcd(s0, s)"))
    counts = collections.Counter()

    def count(frame, event, arg):
        if event == "line":
            counts[frame.f_lineno] += 1
        return count

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: count if frame.f_code is code else None)
    try:
        result = run()
    finally:
        sys.settrace(previous)
    return result, counts[in_place], counts[rebuilt]


def _unit_row(rng, n_cols):
    return {c: rng.choice((1, -1)) for c in range(n_cols) if rng.random() < 0.4}


def _coprime_row(rng, n_cols):
    p, q = rng.choice(((2, 3), (3, 2), (2, 5), (3, 4), (5, 3)))
    a, b = rng.sample(range(n_cols), 2)
    return {a: rng.choice((p, -p)), b: rng.choice((q, -q))}


def _mixed_row(rng, n_cols):
    return rng.choice((_unit_row, _coprime_row))(rng, n_cols)


@pytest.mark.parametrize("make_row,ran", [
    (_unit_row, lambda in_place, rebuilt: in_place > 10 * rebuilt),
    (_coprime_row, lambda in_place, rebuilt: rebuilt > 2 * in_place),
    (_mixed_row, lambda in_place, rebuilt: min(in_place, rebuilt) > 100),
], ids=["units", "coprime", "mixed"])
def test_both_update_rules_match_the_rebuilt_kernel(make_row, ran):
    """A met vector k is shrunk to k - (s/s0) k0 in place when the pivot's
    dot s0 divides its dot s, and to s0 k - s k0 over its content with a
    full re-index otherwise. Rows with entries in {1, -1} meet the identity
    with unit dots, so the first rule runs most; rows pairing coprime
    entries (2 and 3, 2 and 5, 3 and 4) meet two unit vectors with coprime
    dots, so the second does; mixed streams run both. Either way the kernel
    and the row counts are those of the slow twin, which normalizes every
    changed vector and rebuilds the index."""
    rng = random.Random(31)
    totals = [0, 0]
    for _ in range(120):
        n_cols = rng.randint(2, 10)
        rows = [make_row(rng, n_cols) for _ in range(rng.randint(1, n_cols + 3))]
        if rng.random() < 0.3:  # a sum of two rows: only checked
            u, v = rng.choices(rows, k=2)
            rows.append({c: w for c in u.keys() | v.keys() if (w := u.get(c, 0) + v.get(c, 0))})
        dense = [[row.get(c, 0) for c in range(n_cols)] for row in rows]
        source = _Rows(n_cols, rows)
        ns, in_place, rebuilt = _update_rules(lambda: nullspace(source))
        slow = RebuildingRowSpace(source)
        assert ns == slow.kernel()
        check_canonical(ns)
        assert list(ns.vectors) == oracle_nullspace(dense, n_cols)
        assert (ns.rows_consumed, ns.rows_checked) == (slow.rows_consumed, slow.rows_checked)
        totals[0] += in_place
        totals[1] += rebuilt
    assert ran(*totals), totals
