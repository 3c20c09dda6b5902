"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings. All checks are exact (zero residual); the only
tolerances are the runtime ceilings stated alongside each criterion.
"""

import random
import time
from fractions import Fraction

from tpw.algebra import (
    Block,
    Element,
    GeneralizedWitt,
    WittType,
    verify_center,
    verify_lie_axioms,
    verify_square,
)
from tpw.exactlin import RowSpace, SparseMatrix, in_span, nullspace
from tpw.halfderiv import solve_degrees, sweep
from tpw.lattice import AdditiveMap, BiadditiveForm, Pairing, Window
from tpw.tpstruct import (
    ExplicitProduct,
    ExtensionByZero,
    Mutation,
    SingleIdempotent,
    classify,
    verify,
)

from oracles import oracle_in_span, oracle_nullspace, oracle_rank


def gw_spec():
    return GeneralizedWitt(Pairing([[1, 0], [0, 1]]))


def b0_spec():
    return Block.with_form(BiadditiveForm([[0, -1], [1, 0]]))


def b1_spec():
    return Block.from_gh(AdditiveMap([-1, 0]), AdditiveMap([0, 1]))


def witt_spec():
    return WittType(AdditiveMap([1]))


def corrupted_block():
    return Block.raw_form(
        AdditiveMap([1, 0, 0]),
        BiadditiveForm([[0, 0, 0], [0, 0, 1], [0, -1, 0]]))


class _Criterion:
    def __init__(self, number, limit_seconds):
        self.number = number
        self.limit = limit_seconds
        self.started = time.monotonic()

    def finish(self):
        elapsed = time.monotonic() - self.started
        print("criterion %d: PASS (%.1fs, limit %ds)"
              % (self.number, elapsed, self.limit))
        assert elapsed < self.limit, (
            "criterion %d exceeded its %ds runtime limit" % (self.number, self.limit))


_SWEEP_CACHE = {}
_SPECS = {"gw": gw_spec, "b0": b0_spec, "b1": b1_spec}


def sweep_n3(name):
    """Classification sweep at radius 3, inner box 2, computed on first use.

    Computed inside the test bodies (not in a fixture) so each criterion's
    printed runtime includes the sweep it depends on.
    """
    if name not in _SWEEP_CACHE:
        _SWEEP_CACHE[name] = sweep(_SPECS[name](), Window(3, 2), 2)
    return _SWEEP_CACHE[name]


def test_criterion_1_lie_axiom_suite():
    crit = _Criterion(1, 10)
    window = Window(2, 1)
    for spec in (gw_spec(), b1_spec(), b0_spec(), witt_spec()):
        report = verify_lie_axioms(spec, window)
        assert report.passed, spec.family
    bad = verify_lie_axioms(corrupted_block(), window)
    assert bad.anticommutative
    assert not bad.jacobi
    assert bad.jacobi_witness is not None
    crit.finish()


def test_criterion_2_generalized_witt_rigidity():
    crit = _Criterion(2, 300)
    report = sweep_n3("gw")
    assert report.all_pass
    for r in report.results:
        if r.degree == (0, 0):
            assert r.projected_dim == 1
            assert r.membership_pass  # the identity table solves the system
        else:
            assert r.projected_dim == 0, r
    crit.finish()


def test_criterion_3_block_g0_half_derivations():
    crit = _Criterion(3, 120)
    report = sweep_n3("b0")
    assert report.all_pass
    for r in report.results:
        if r.degree == (0, 0):
            assert r.projected_dim == 2
            assert r.predicted_dim == 2
            assert r.membership_pass  # id and alpha both solve the system
        else:
            assert r.projected_dim == 0, r
    crit.finish()


def test_criterion_4_b1_half_derivations():
    crit = _Criterion(4, 120)
    report = sweep_n3("b1")
    assert report.all_pass
    assert report.verdict == "Delta = span{id, alpha_((0,-2),(0,-1))}"
    for r in report.results:
        if r.degree == (0, 1):
            assert r.projected_dim == 1
            assert r.predicted_dim == 1
            assert r.membership_pass
            assert r.excess == ()
        elif r.degree == (0, 0):
            assert r.projected_dim == 1
        else:
            assert r.projected_dim == 0, r
    crit.finish()


def test_criterion_5_block_g0_unique_structure():
    crit = _Criterion(5, 60)
    spec = b0_spec()
    window = Window(3, 2)
    solved = solve_degrees(spec, window, 2)
    result = classify(spec, solved, window, 2, n_samples=5, seed=11)
    assert result.n_parameters == 1
    table = result.generators[0].table
    assert list(table) == [((0, 0), (0, 0))]
    assert set(table[((0, 0), (0, 0))].terms) == {(0, 0)}
    assert result.associativity_pass

    report = verify(spec, SingleIdempotent(), window)
    assert report.all_pass  # includes the ordinary Poisson rule

    bad = ExplicitProduct({((1, 0), (1, 0)): Element({(1, 0): Fraction(1)})})
    bad_report = verify(spec, bad, window)
    assert not bad_report.tp_pass
    witness = (bad_report.trans_leibniz.witness
               or bad_report.associative.witness
               or bad_report.commutative.witness)
    assert witness is not None
    crit.finish()


def test_criterion_6_b1_extension_family():
    crit = _Criterion(6, 60)
    spec = b1_spec()
    window = Window(3, 2)
    solved = solve_degrees(spec, window, 2)
    result = classify(spec, solved, window, 2, n_samples=5, seed=11)
    assert result.n_parameters == 1
    table = result.generators[0].table
    assert list(table) == [((0, -2), (0, -2))]
    assert table[((0, -2), (0, -2))] == Element({(0, -1): 1})
    assert result.associativity_pass

    star = ExtensionByZero({((0, -2), (0, -2)): Element({(0, -1): Fraction(1)})})
    assert verify(spec, star, window).all_pass

    shifted = Block.from_gh(AdditiveMap([-1, 0]), AdditiveMap([0, 3]))
    solved = solve_degrees(shifted, window, 2)
    result = classify(shifted, solved, window, 2, n_samples=3, seed=11)
    assert result.n_parameters == 0
    crit.finish()


def test_criterion_7_mutations_on_witt_type():
    crit = _Criterion(7, 120)
    spec = witt_spec()
    window = Window(4, 2)
    rng = random.Random(20240809)
    checked = 0
    while checked < 20:
        terms = {}
        for _ in range(rng.randint(1, 5)):
            terms[(rng.randint(-3, 3),)] = Fraction(rng.randint(-5, 5),
                                                    rng.randint(1, 4))
        w = Element(terms)
        if w.is_zero:
            continue
        report = verify(spec, Mutation(w), window)
        assert report.commutative.passed
        assert report.associative.passed
        assert report.trans_leibniz.passed
        checked += 1

    report = verify(spec, Mutation(Element({(0,): 1})), window)
    assert not report.poisson_leibniz.passed
    labels, lhs, rhs = report.poisson_leibniz.witness
    assert labels == ((0,), (0,), (1,))
    assert lhs == Element({(1,): 1})
    assert rhs == Element({(1,): 2})
    crit.finish()


def test_criterion_8_center_and_square():
    crit = _Criterion(8, 60)
    window = Window(3, 1)
    for spec in (b1_spec(), b0_spec()):
        center = verify_center(spec, window)
        assert center.passed, center.failures
        square = verify_square(spec, window)
        assert square.passed, square.failures
        # each witness b is the first in search order with [u_(a-b), u_b] != 0
        for a, (b, coeff) in square.witnesses.items():
            assert coeff != 0
    crit.finish()


def test_criterion_9_oracle_equivalence():
    crit = _Criterion(9, 60)
    rng = random.Random(500500)
    for _ in range(500):
        n_rows = rng.randint(1, 6)
        n_cols = rng.randint(1, 6)
        rows = [[rng.randint(-2, 2) for _ in range(n_cols)]
                for _ in range(n_rows)]
        m = SparseMatrix.from_rows(rows)
        ns = nullspace(m)
        oracle = oracle_nullspace(rows, n_cols)
        assert ns.dimension == len(oracle)
        assert RowSpace(rows, n_cols).rank == n_cols - ns.dimension == oracle_rank(rows)
        for v in ns.vectors:
            assert oracle_in_span(v, oracle)
        for v in oracle:
            assert in_span(v, ns)
    crit.finish()


def test_criterion_10_window_stability():
    crit = _Criterion(10, 1800)
    window4 = Window(4, 2)
    for name, spec in (("gw", gw_spec()), ("b0", b0_spec()), ("b1", b1_spec())):
        wide = sweep(spec, window4, 2)
        assert wide.all_pass
        narrow = sweep_n3(name)
        for r4 in wide.results:
            r3 = {r.degree: r for r in narrow.results}[r4.degree]
            assert r4.projected_dim == r3.projected_dim, r4.degree
    crit.finish()
