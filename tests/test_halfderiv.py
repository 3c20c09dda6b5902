"""Tests for the per-degree derivation constraint systems."""

import random
from copy import deepcopy
from fractions import Fraction
from itertools import product as iter_product
from math import prod

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (
    CountingSource,
    RebuildingRowSpace,
    _constraint_rows,
    check_canonical,
    oracle_in_span,
    oracle_rank,
    ordered_pair_rows,
    slow_pair_constants,
    sparse_nullspace,
)
from tpw import exactlin, halfderiv
from tpw.algebra import Block, Element, GeneralizedWitt, WittType, bracket
from tpw.halfderiv import (
    PredictedBasis,
    assemble,
    columns_for,
    compare,
    component_vector,
    predicted,
    solve,
    solve_degrees,
    sweep,
)
from tpw.lattice import (AdditiveMap, BiadditiveForm, Pairing, RankMismatchError, Window,
                         act, add, box_points)


def b1_spec():
    return Block.from_gh(AdditiveMap([-1, 0]), AdditiveMap([0, 1]))


def b0_spec():
    return Block.with_form(BiadditiveForm([[0, -1], [1, 0]]))


def gw_spec():
    return GeneralizedWitt(Pairing([[1, 0], [0, 1]]))


def _result(report, degree):
    """The sweep's record of one degree."""
    return next(r for r in report.results if r.degree == tuple(degree))


def test_assemble_counts_unknowns_and_pairs():
    system = assemble(b1_spec(), (0, 0), Window(2, 1))
    assert system.n_unknowns == 25
    # one row per ordered pair (x, y) with x, y, x+y in the box
    per_axis = sum(5 - abs(u) for u in range(-2, 3))
    assert system.n_constraints == per_axis ** 2


@pytest.mark.parametrize("spec,n", [(b1_spec(), 25), (gw_spec(), 25 * 4)],
                         ids=["block", "generalized-witt"])
def test_max_unknowns_admits_exactly_the_column_count(spec, n):
    assert assemble(spec, (0, 0), Window(2, 1), max_unknowns=n).n_unknowns == n
    with pytest.raises(exactlin.DimensionOverflowError,
                       match="%d unknowns exceed the max_unknowns limit %d" % (n, n - 1)):
        assemble(spec, (0, 0), Window(2, 1), max_unknowns=n - 1)


def test_max_unknowns_refuses_before_any_column_is_built(monkeypatch):
    """The refusal counts the columns of Box(300) without building its
    361,201 keys (times dim V^2 for generalized Witt)."""
    def no_columns(*args):
        raise AssertionError("a column key was built")
    monkeypatch.setattr(halfderiv, "_columns", no_columns)
    for spec, n in ((b0_spec(), 601 ** 2), (gw_spec(), 601 ** 2 * 4)):
        with pytest.raises(exactlin.DimensionOverflowError,
                           match="%d unknowns exceed the max_unknowns limit 10" % n):
            assemble(spec, (0, 0), Window(300), max_unknowns=10)


def test_assemble_generalized_witt_unknowns():
    window = Window(2, 1)
    system = assemble(gw_spec(), (1, 0), window)
    assert system.n_unknowns == 25 * 4
    computed = solve(system)
    rep = compare(gw_spec(), window, computed, predicted(gw_spec(), (1, 0), window))
    assert rep.projected_dim == 0
    assert rep.passed


def test_identity_solves_degree_zero():
    for spec in (b1_spec(), b0_spec(), gw_spec()):
        window = Window(2, 1)
        system = assemble(spec, (0, 0), window)
        ident = predicted(spec, (0, 0), window).components[0]
        vec = component_vector(spec, window, ident)
        assert all(x == 0 for x in system.matrix.apply(vec))


def test_a_solved_vector_round_trips_through_its_table():
    """On generalized Witt with dim V = 2 at delta = 1, each kernel vector
    read as {x: block}, the entry [r][c] at column pos(x) dv^2 + r dv + c,
    is a derivation phi(e_(x,c)) = sum_r block[r][c] e_(a+x, r) by the
    element bracket, and ``component_vector`` gives the vector back. The
    inner derivations have blocks that are not symmetric, so a transposed
    read fails both."""
    spec, window, a = gw_spec(), Window(2, 1), (1, 1)
    box, dv = box_points(window.radius, spec.rank), range(spec.dim_v)
    kernel = solve(assemble(spec, a, window, delta=Fraction(1)))
    assert kernel.dimension == 2 and spec.dim_v == 2
    for vector in kernel.vectors:
        table = {x: tuple(tuple(vector[(n * 2 + r) * 2 + c] for c in dv) for r in dv)
                 for n, x in enumerate(box)}
        assert any(m[0][1] != m[1][0] for m in table.values())
        assert component_vector(spec, window, table) == tuple(vector)

        def phi(label):
            x, c = label
            return Element({(add(a, x), r): table[x][r][c] for r in dv})
        labels = spec.basis_labels(box)
        for u in labels:
            for v in labels:
                if window.contains(add(u[0], v[0])):
                    eu, ev = Element({u: 1}), Element({v: 1})
                    image = sum((k * phi(l) for l, k in bracket(spec, eu, ev).terms.items()),
                                Element())
                    assert image == (bracket(spec, phi(u), ev)
                                     + bracket(spec, eu, phi(v))), (u, v)


def test_membership_of_alpha_for_block_g0():
    window = Window(2, 1)
    spec = b0_spec()
    system = assemble(spec, (0, 0), window)
    vec = component_vector(spec, window, {(0, 0): ((Fraction(1),),)})
    assert all(x == 0 for x in system.matrix.apply(vec))


def test_membership_of_alpha_pair_for_b1():
    window = Window(3, 2)
    spec = b1_spec()
    system = assemble(spec, (0, 1), window)
    vec = component_vector(spec, window, {(0, -2): ((Fraction(1),),)})
    assert all(x == 0 for x in system.matrix.apply(vec))


def test_degree_with_projected_zero_nullspace():
    window = Window(2, 1)
    system = assemble(b0_spec(), (1, 0), window)
    computed = solve(system)
    rep = compare(b0_spec(), window, computed, predicted(b0_spec(), (1, 0), window))
    assert rep.projected_dim == 0
    assert rep.passed


def test_inner_derivation_is_a_derivation_at_delta_one():
    """ad(e_c) solves the assembled system with delta = 1."""
    spec = WittType(AdditiveMap([1]))
    window = Window(3, 1)
    c = (1,)
    system = assemble(spec, c, window, delta=Fraction(1))
    table = {x: ((spec.f(x) - spec.f(c),),) for x in box_points(3, 1)}
    vec = component_vector(spec, window, table)
    assert all(r == 0 for r in system.matrix.apply(vec))


def test_delta_zero_rejected():
    with pytest.raises(ValueError):
        assemble(b0_spec(), (0, 0), Window(2, 1), delta=0)


def test_predicted_shapes():
    window = Window(3, 2)
    assert list(predicted(b0_spec(), (0, 0), window).components) == [
        {x: ((Fraction(1),),) for x in box_points(3, 2)},
        {(0, 0): ((Fraction(1),),)},
    ]
    assert predicted(b0_spec(), (1, 0), window).components == ()
    p = predicted(b1_spec(), (0, 1), window)
    assert len(p.components) == 1
    assert p.components[0] == {(0, -2): ((Fraction(1),),)}
    assert predicted(gw_spec(), (1, 1), window).components == ()
    shift = predicted(WittType(AdditiveMap([1])), (2,), Window(3, 1))
    assert shift.authoritative  # the dim V = 1 theorem, asserted at rank 1
    assert shift.components[0] == {x: ((Fraction(1),),) for x in box_points(3, 1)}
    assert not predicted(WittType(AdditiveMap([1, 2])), (1, 0), Window(3, 1)).authoritative


def test_compare_flags_membership_failure():
    window = Window(2, 1)
    spec = b0_spec()
    system = assemble(spec, (1, 0), window)
    computed = solve(system)
    bogus = PredictedBasis((1, 0), ({(0, 0): ((Fraction(1),),)},))
    rep = compare(spec, window, computed, bogus)
    assert not rep.membership_pass
    assert not rep.passed


def test_sweep_block_g0_small_window():
    report = sweep(b0_spec(), Window(2, 1), 1)
    assert report.all_pass
    assert report.verdict == "Delta = span{id, alpha}"
    degree_zero = _result(report, (0, 0))
    assert degree_zero.projected_dim == 2
    for r in report.results:
        if r.degree != (0, 0):
            assert r.projected_dim == 0


def test_sweep_b1_sees_alpha_only_with_wide_inner_box():
    # inner radius 1 cannot see the alpha support at (0, -2)
    small = sweep(b1_spec(), Window(2, 1), 1)
    assert small.all_pass
    assert small.verdict == "Delta = span{id}"
    wide = sweep(b1_spec(), Window(3, 2), 2)
    assert wide.all_pass
    assert wide.verdict == "Delta = span{id, alpha_((0,-2),(0,-1))}"
    assert _result(wide, (0, 1)).projected_dim == 1
    assert _result(wide, (0, 0)).projected_dim == 1


def test_sweep_witt_type_is_non_authoritative():
    """At rank 2 the shifts are only bounded below: f = (1, 2) is outside
    the dim V = 1 theorem, whose rank-1 case the next test asserts."""
    report = sweep(WittType(AdditiveMap([1, 2])), Window(3, 1), 1)
    assert not report.authoritative
    assert "non-authoritative" in report.verdict
    for r in report.results:
        assert r.membership_pass
        assert r.projected_dim >= 1


@pytest.mark.parametrize("spec", [WittType(AdditiveMap([1])), GeneralizedWitt(Pairing([[1]])),
                                  WittType(AdditiveMap([Fraction(-2, 3)]))],
                         ids=["witt", "gw", "witt-rational"])
def test_rank_1_sweeps_assert_the_shift(spec):
    """dim V = 1 at rank 1: Delta is exactly span{shift} at every degree."""
    report = sweep(spec, Window(4, 2), 2)
    assert report.authoritative and report.all_pass
    assert report.verdict == "Delta = span{shift}"
    assert all(r.projected_dim == r.predicted_dim == 1 for r in report.results)


@pytest.mark.parametrize("spec,reason", [(WittType(AdditiveMap([0])), "map f"),
                                         (GeneralizedWitt(Pairing([[0]])), "pairing")])
def test_a_rank_1_spec_with_zero_data_reports_dimensions_only(spec, reason):
    report = sweep(spec, Window(3, 1), 1)
    assert report.verdict == "dimension report only (degenerate %s)" % reason
    assert not spec.nondegenerate and not report.authoritative


def test_sweep_report_json_round_trip_fields():
    report = sweep(b0_spec(), Window(2, 1), 1)
    data = report.to_json()
    assert data["all_pass"] is True
    assert data["delta"] == "1/2"
    keys = {"degree", "n_unknowns", "n_constraints", "computed_dim",
            "projected_dim", "predicted_dim", "membership_pass", "verdict"}
    for entry in data["degrees"]:
        assert set(entry) == keys


def test_solve_degrees_reuse():
    spec = b0_spec()
    window = Window(2, 1)
    solved = solve_degrees(spec, window, 1)
    report = sweep(spec, window, 1, solved=solved)
    assert report.all_pass
    assert set(solved) == set(tuple(a) for a in box_points(1, 2))
    # the sweep reports compare's record of each kernel in the map
    assert _result(report, (1, 0)) == compare(
        spec, window, solved[(1, 0)], predicted(spec, (1, 0), window))


def test_sweep_at_other_delta_reports_dimensions_only():
    report = sweep(b0_spec(), Window(2, 1), 1, delta=Fraction(1))
    assert report.verdict == "dimension report only (delta != 1/2)"
    assert not report.authoritative
    assert report.all_pass  # nothing asserted, membership trivially holds
    # degree zero at delta = 1 still contains the identity direction
    assert _result(report, (0, 0)).projected_dim >= 1


def test_compare_with_margin_one_projects_alpha_away():
    """With the inner box shrunk to radius 1 the far-supported map projects
    to zero, so both spans restrict to nothing at its degree."""
    spec = b1_spec()
    window = Window(3, 1)
    system = assemble(spec, (2, 0), window)
    rep = compare(spec, window, solve(system), predicted(spec, (2, 0), window))
    assert rep.projected_dim == 0
    assert rep.passed
    system = assemble(spec, (0, 1), window)
    rep = compare(spec, window, solve(system), predicted(spec, (0, 1), window))
    assert rep.projected_dim == 0
    assert rep.predicted_dim == 0
    assert rep.visible == (False,)
    assert rep.membership  # alpha still solves the full-box constraints


# Families of the suite, plus a generalized Witt algebra small enough for
# the dense oracle (rank one, dim V = 2) and Witt types of rank one and two.
DIFFERENTIAL_SPECS = {
    "b0": b0_spec,
    "b1": b1_spec,
    "gw": gw_spec,
    "gw-rank1": lambda: GeneralizedWitt(Pairing([[1], [2]])),
    "witt1": lambda: WittType(AdditiveMap([1])),
    "witt12": lambda: WittType(AdditiveMap([1, 2])),
}
DELTAS = (Fraction(1, 2), Fraction(1), Fraction(2))


@pytest.mark.parametrize("delta", DELTAS, ids=str)
@pytest.mark.parametrize("radius", (2, 3))
@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_SPECS))
def test_streamed_solve_matches_materialized_matrix(name, radius, delta):
    spec = DIFFERENTIAL_SPECS[name]()
    if name == "gw" and radius == 3 and delta == 1:
        # the kernel is large at every degree here; the R3 sweeps use b0
        degrees = [(0, 0)]
    else:
        degrees = box_points(1, spec.rank)
    for a in degrees:
        system = assemble(spec, a, Window(radius), delta=delta)
        streamed_rows = CountingSource(system)
        streamed = solve(streamed_rows)
        assert "matrix" not in vars(system)
        materialized_rows = CountingSource(system.matrix)
        materialized = exactlin.nullspace(materialized_rows)
        assert streamed == materialized, a
        assert streamed.rows_generated <= system.matrix.n_rows
        # each consumed row shrinks the kernel by one, so they count the
        # rank; every drawn row is consumed or checked
        for ns, source in ((streamed, streamed_rows), (materialized, materialized_rows)):
            assert ns.rows_consumed == ns.n_cols - ns.dimension, a
            assert source.drawn == ns.rows_consumed + ns.rows_checked, a


@pytest.mark.parametrize("delta", DELTAS, ids=str)
@pytest.mark.parametrize("name", sorted(set(DIFFERENTIAL_SPECS) - {"gw"}))
def test_streamed_solve_matches_oracle_on_ordered_pair_rows(name, delta):
    """The sparse row-at-a-time oracle on the rows of every ordered pair,
    built in Fractions; it is checked against the dense oracle in
    ``test_exactlin.py``."""
    spec = DIFFERENTIAL_SPECS[name]()
    for a in box_points(1, spec.rank):
        system = assemble(spec, a, Window(2), delta=delta)
        rows = ordered_pair_rows(spec, a, 2, delta)
        assert len(rows) == system.n_constraints
        expected = sparse_nullspace((dict(enumerate(r)) for r in rows),
                                    system.n_unknowns)
        assert solve(system).vectors == tuple(expected), a


@pytest.mark.parametrize("a", [(0, 0), (1, 0), (1, 1)], ids=str)
def test_streamed_solve_matches_the_sparse_oracle_on_generalized_witt(a):
    """The suite's rank-2, dim V = 2 spec, too slow for the dense oracle."""
    spec = gw_spec()
    system = assemble(spec, a, Window(2, 1))
    rows = ordered_pair_rows(spec, a, 2, Fraction(1, 2))
    expected = sparse_nullspace((dict(enumerate(r)) for r in rows), system.n_unknowns)
    assert solve(system).vectors == tuple(expected)


def _brute_force_pairs(radius, rank):
    box = set(iter_product(range(-radius, radius + 1), repeat=rank))
    return sum(1 for x in box for y in box
               if tuple(s + t for s, t in zip(x, y)) in box)


@pytest.mark.parametrize("spec,dim_v", [
    (WittType(AdditiveMap([1])), 1),
    (b1_spec(), 1),
    (WittType(AdditiveMap([1, 2, 3])), 1),
    (gw_spec(), 2),
    (GeneralizedWitt(Pairing([[1, 0, 0]])), 1),
], ids=["rank1", "rank2", "rank3", "gw-rank2", "gw-rank3"])
def test_n_constraints_counts_ordered_pairs(spec, dim_v):
    for radius in (1, 2, 3) if spec.rank < 3 else (1, 2):
        system = assemble(spec, (0,) * spec.rank, Window(radius))
        assert system.n_constraints == (
            _brute_force_pairs(radius, spec.rank) * dim_v ** 3), radius


@pytest.fixture
def table_builds(monkeypatch):
    """The radius of every pair table built while the test runs."""
    builds = []
    build = halfderiv._build_pair_table
    monkeypatch.setattr(halfderiv, "_build_pair_table",
                        lambda spec, radius: builds.append(radius) or build(spec, radius))
    return builds


def test_cell_limit_is_checked_before_any_row_is_built(monkeypatch, table_builds):
    """The cell limit and ``max_unknowns`` refuse before any pair table,
    pair orbit or row is built; degree (1, 0) has a stabilizer of order 2."""
    spec = gw_spec()
    system = assemble(spec, (1, 0), Window(2, 1))
    cells = system.n_constraints * system.n_unknowns
    orbit_calls, pair_orbits = [], halfderiv._pair_orbits
    monkeypatch.setattr(halfderiv, "_pair_orbits",
                        lambda *args: orbit_calls.append(args[2]) or pair_orbits(*args))

    def no_rows():
        raise AssertionError("a row was requested")
    system.int_rows = system.orbits = no_rows
    monkeypatch.setattr(exactlin, "DEFAULT_MAX_CELLS", cells - 1)
    with pytest.raises(exactlin.DimensionOverflowError):
        solve(system)
    del system.int_rows, system.orbits
    with pytest.raises(exactlin.DimensionOverflowError):
        solve(system)
    with pytest.raises(exactlin.DimensionOverflowError):
        solve_degrees(spec, Window(2, 1), 1, max_unknowns=system.n_unknowns - 1)
    assert table_builds == [] and orbit_calls == []
    monkeypatch.setattr(exactlin, "DEFAULT_MAX_CELLS", cells)
    assert solve(system).dimension == 0
    assert table_builds == [2]
    assert [len(sigmas) for sigmas in orbit_calls] == [2]


def test_a_sweep_builds_one_pair_table_per_window(table_builds):
    """The 9 degrees of Box(1) read one table; another radius builds its own,
    and each spec keeps its own tables."""
    spec = b1_spec()
    assert len(solve_degrees(spec, Window(2, 1), 1)) == 9
    assert table_builds == [2]
    sweep(spec, Window(2, 1), 1)
    sweep(spec, Window(3, 2), 1)
    assert table_builds == [2, 3]
    assert set(spec.pair_tables) == {2, 3}
    solve_degrees(b1_spec(), Window(2, 1), 1)
    assert table_builds == [2, 3, 2]


def test_a_refused_sweep_never_builds_the_degree_box(monkeypatch):
    """Block g = 0 at radius 600 has the default degree bound 300: the
    refusal comes before the 361,201 degrees of Box(300) are listed."""
    calls = []
    monkeypatch.setattr(halfderiv, "box_points",
                        lambda *args: calls.append(args) or box_points(*args))
    window = Window(600)
    with pytest.raises(exactlin.DimensionOverflowError,
                       match="%d unknowns exceed the max_unknowns limit 10" % 1201 ** 2):
        solve_degrees(b0_spec(), window, window.inner_margin, max_unknowns=10)
    with pytest.raises(exactlin.DimensionOverflowError):
        sweep(b0_spec(), window, window.inner_margin, max_unknowns=10)
    assert calls == []


@pytest.mark.parametrize("spec,sign", [
    (gw_spec(), -1), (GeneralizedWitt(Pairing([[1], [2]])), -1),
    (WittType(AdditiveMap([1, 2])), -1), (b0_spec(), 1), (b1_spec(), None),
    (Block.raw_form(AdditiveMap([1, 0]), BiadditiveForm([[0, 0], [0, 0]])), -1),
    (WittType(AdditiveMap([0])), 1)],
    ids=["gw", "gw-dimv2-rank1", "witt", "block-g0", "block-gh", "raw-f0", "abelian"])
def test_reflection_sign_of_each_family(spec, sign):
    """The point reflection's element of ``spec.automorphisms``: x (x) v ->
    (-x) (x) (-v) on generalized Witt, e_x -> -e_(-x) on Witt type, e_x ->
    e_(-x) on Block g = 0; c(x, y) = x^T M y + g(x) - g(y) with both parts
    has none."""
    minus = tuple((k, -1) for k in range(spec.rank))
    identity = tuple((i, 1) for i in range(spec.dim_v))
    assert next(((tau, s) for sigma, tau, s in spec.automorphisms if sigma == minus),
                (identity, None)) == (identity, sign)


def _rank3_block():
    """The held-out rank-3 Block: g = e1, h = e2."""
    return Block.from_gh(AdditiveMap([1, 0, 0]), AdditiveMap([0, 1, 0]))


_SWAPPED = GeneralizedWitt(Pairing([[0, 1], [1, 0]]))  # <v_0, x> = x_1, <v_1, x> = x_0


@pytest.mark.parametrize("spec,order", [
    (gw_spec(), 8), (_SWAPPED, 8), (b0_spec(), 8), (b1_spec(), 2),
    (Block.from_gh(AdditiveMap([-1, 0]), AdditiveMap([0, 3])), 2),
    (WittType(AdditiveMap([1, 2])), 2), (WittType(AdditiveMap([1])), 2),
    (_rank3_block(), 4)],
    ids=["gw", "gw-swapped", "block-g0", "block-gh", "block-no-coset", "witt",
         "witt-rank1", "block-rank3"])
def test_automorphism_group_order_of_each_spec(spec, order):
    """One element per sigma, the identity first; each tau keeps the pairing
    and fixes the basis of V on the scalar families."""
    group = spec.automorphisms
    assert len(group) == order == len({sigma for sigma, _, _ in group})
    assert group[0] == (tuple((k, 1) for k in range(spec.rank)),
                        tuple((i, 1) for i in range(spec.dim_v)), 1)
    if spec.vectorial:  # <v_(tau i), sigma x> = s eps_i <v_i, x>
        for sigma, tau, s in group:
            for i, (j, e) in enumerate(tau):
                for x in box_points(1, spec.rank):
                    assert spec.pairing(_unit(spec, j), act(sigma, x)) == (
                        s * e * spec.pairing(_unit(spec, i), x))
    else:
        assert all(tau == ((0, 1),) for _, tau, _ in group)


def _unit(spec, i):
    return [int(k == i) for k in range(spec.dim_v)]


def test_tau_differs_from_sigma_on_the_swapped_pairing():
    """sigma = diag(-1, 1) negates <v_1, .> = x_0 only: tau = diag(1, -1), s = 1."""
    assert (((0, -1), (1, 1)), ((0, 1), (1, -1)), 1) in _SWAPPED.automorphisms


_HALF, _TWO_THIRDS = Fraction(1, 2), Fraction(2, 3)
_MIRROR_SPECS = {  # every family: rank-1, rational, degenerate and swapped (tau != sigma)
    # pairings, and the held-out rank-3 Block
    "gw-rank1": GeneralizedWitt(Pairing([[1], [2]])),
    "gw-rational": GeneralizedWitt(Pairing([[_HALF, 3], [0, -_TWO_THIRDS]])),
    "gw-degenerate": GeneralizedWitt(Pairing([[1, 1], [1, 1]])),
    "gw-swapped": _SWAPPED,
    "witt": WittType(AdditiveMap([1, 2])),
    "block-g0": b0_spec(),
    "block-gh": b1_spec(),
    "block-gh-rational": Block.from_gh(AdditiveMap([_HALF, 0]),
                                       AdditiveMap([1, -_TWO_THIRDS])),
    "block-rank3": _rank3_block(),
}


def _orbits(spec, degrees):
    """The orbits of the certified sigma on ``degrees``, each in box order."""
    orbits = []
    for a in degrees:
        if not any(a in orbit for orbit in orbits):
            images = {act(sigma, a) for sigma, _, _ in spec.automorphisms}
            orbits.append([b for b in degrees if b in images])
    return orbits


@pytest.mark.parametrize("delta", [_HALF, Fraction(1), _TWO_THIRDS])
@pytest.mark.parametrize("name", _MIRROR_SPECS)
def test_mirrored_kernels_match_the_solve_of_every_degree(monkeypatch, name, delta):
    """One degree of each orbit of the certified group is solved, the first
    in box order; every other degree is transported (it draws no row) and
    equals the solve of its own system."""
    spec, window = _MIRROR_SPECS[name], Window(2, 1)
    degrees = box_points(1, spec.rank)
    calls, kernel_of = [], exactlin.kernel_of
    monkeypatch.setattr(exactlin, "kernel_of",
                        lambda *args: calls.append(args[1]) or kernel_of(*args))
    solved = solve_degrees(spec, window, 1, delta=delta)
    n_solved = len(calls)
    assert solved == {a: solve(assemble(spec, a, window, delta=delta)) for a in degrees}
    for kernel in solved.values():  # the transported ones are put back in canonical form
        check_canonical(kernel)
    orbits = _orbits(spec, degrees)
    assert n_solved == len(orbits)
    assert {a for a, b in solved.items() if b.rows_generated == 0} == {
        a for orbit in orbits for a in orbit[1:]}


@settings(max_examples=15, deadline=None)
@given(g=st.lists(st.integers(-2, 2), min_size=2, max_size=2),
       k=st.fractions(min_value=-2, max_value=2, max_denominator=2),
       zero=st.sampled_from(["g", "f", None]),
       delta=st.sampled_from([_HALF, Fraction(1), _TWO_THIRDS]))
def test_mirrored_kernels_match_on_raw_blocks(g, k, zero, delta):
    """Raw Blocks with g = 0 (8 elements), f = 0 (sigma with g o sigma = +-g)
    or neither."""
    g = [0, 0] if zero == "g" else g
    k = 0 if zero == "f" else k
    spec = Block.raw_form(AdditiveMap(g), BiadditiveForm([[0, k], [-k, 0]]))
    window = Window(2, 1)
    assert solve_degrees(spec, window, 1, delta=delta) == {
        a: solve(assemble(spec, a, window, delta=delta)) for a in box_points(1, 2)}


@st.composite
def orbit_specs(draw):
    """Specs whose certified groups fix some degrees: generalized Witt with
    a random or a swapped pairing (tau != sigma), Witt type, raw Blocks and
    rank-3 Blocks (g, h), each with the windows its rank affords."""
    kind = draw(st.sampled_from(["gw", "gw-swapped", "witt", "block-raw", "block-rank3"]))
    small = st.integers(-2, 2)
    if kind == "block-rank3":
        vector = st.lists(small, min_size=3, max_size=3)
        spec = Block.from_gh(AdditiveMap(draw(vector.filter(any))), AdditiveMap(draw(vector)))
        return spec, Window(1, 0)
    vector = st.lists(small, min_size=2, max_size=2)
    if kind == "gw":
        spec = GeneralizedWitt(Pairing(draw(st.lists(vector, min_size=1, max_size=2))))
    elif kind == "gw-swapped":
        p, q = draw(small.filter(bool)), draw(small.filter(bool))
        spec = GeneralizedWitt(Pairing([[0, p], [q, 0]]))
    elif kind == "witt":
        spec = WittType(AdditiveMap(draw(vector)))
    else:
        k = draw(small)
        spec = Block.raw_form(AdditiveMap(draw(vector)), BiadditiveForm([[0, k], [-k, 0]]))
    return spec, draw(st.sampled_from([Window(1, 0), Window(2, 1)]))


@settings(max_examples=15, deadline=None)
@example(case=(Block.raw_form(AdditiveMap([0, -2]), BiadditiveForm([[0, -1], [1, 0]])),
               Window(1, 0)), delta=_HALF)
@example(case=(_SWAPPED, Window(2, 1)), delta=_TWO_THIRDS)
@example(case=(_rank3_block(), Window(1, 0)), delta=_HALF)
@given(case=orbit_specs(), delta=st.sampled_from([_HALF, Fraction(1), _TWO_THIRDS]))
def test_the_orbit_solve_matches_the_plain_stream_and_the_oracles(case, delta):
    """The kernel drawn in orbits of each degree's stabilizer is the kernel
    of the plain stream, of the materialized matrix and of the sparse
    oracle; where it does not empty, with no more rows drawn. (Where it
    empties, whole orbits may draw a few more.) The examples: reading the
    whole group as the stabilizer gives dim 1, not 0, at degree (1, -1) of
    the first; the signed permutations that fix the degree, certified or
    not, give dim 2, not 0, at degree (-1, -1, -1) of the rank-3 Block (4 of
    its 48 are certified); never drawing the rest of an orbit fails on all
    three."""
    spec, window = case
    for a in box_points(1, spec.rank):
        system = assemble(spec, a, window, delta=delta)
        source = CountingSource(system)
        kernel = solve(source)
        plain = exactlin.kernel_of([(system.int_rows(),)], system.n_cols)
        assert kernel == plain == exactlin.nullspace(system.matrix), a
        assert kernel.vectors == tuple(sparse_nullspace(
            system.matrix.row_dicts(), system.n_unknowns)), a
        check_canonical(kernel)
        assert kernel.rows_consumed == plain.rows_consumed == system.n_cols - kernel.dimension
        assert source.drawn == kernel.rows_generated, a
        if kernel.dimension:  # then the plain stream draws every nonzero row
            assert kernel.rows_generated <= plain.rows_generated, a


def test_the_orbits_draw_fewer_rows_than_the_plain_stream():
    """Generalized Witt, identity pairing, delta = 1, degree 0 on Window(3, 2):
    the kernel never empties, so the plain stream draws every nonzero row,
    and the stabilizer of order 8 skips most of them. The certificate stops
    the solve once the kernel basis is affine and annihilates the grid rows
    not yet reached, which it reads and counts as checked."""
    system = assemble(gw_spec(), (0, 0), Window(3, 2), delta=Fraction(1))
    plain = exactlin.nullspace(system.matrix)
    uncertified = exactlin.kernel_of(system.orbits(), system.n_cols)
    kernel = solve(system)
    assert kernel == uncertified == plain and kernel.dimension == 2
    assert (plain.rows_consumed, plain.rows_generated) == (194, 5242)
    assert (uncertified.rows_consumed, uncertified.rows_generated) == (194, 1193)
    assert (kernel.rows_consumed, kernel.rows_generated) == (194, 774)


@st.composite
def certified_cases(draw):
    """A spec, a window with R >= 2d and a degree in Box(2), inside Box(1) or
    not: Witt type, generalized Witt with dim V 1-3 (the swapped pairing
    among them), raw Blocks, Block g = 0 and Block (g, h), of rank 1-3 where
    the family has it."""
    kind = draw(st.sampled_from(["witt", "gw", "gw-swapped", "block-raw", "block-g0",
                                 "block-gh"]))
    small = st.integers(-2, 2)
    rank = draw(st.integers(2, 3) if kind == "block-gh" else st.sampled_from(
        [2] if kind in ("gw-swapped", "block-raw", "block-g0") else [1, 2, 3]))
    vector = st.lists(small, min_size=rank, max_size=rank)
    if kind == "witt":
        spec = WittType(AdditiveMap(draw(vector)))
    elif kind == "gw":
        dim_v = draw(st.integers(1, 3 if rank == 1 else 2 if rank == 2 else 1))
        spec = GeneralizedWitt(Pairing(draw(st.lists(vector, min_size=dim_v, max_size=dim_v))))
    elif kind == "gw-swapped":
        spec = GeneralizedWitt(Pairing([[0, draw(small.filter(bool))],
                                        [draw(small.filter(bool)), 0]]))
    elif kind == "block-raw":
        k = draw(small)
        spec = Block.raw_form(AdditiveMap(draw(vector)), BiadditiveForm([[0, k], [-k, 0]]))
    elif kind == "block-g0":
        k = draw(small.filter(bool))
        spec = Block.with_form(BiadditiveForm([[0, -k], [k, 0]]))
    else:
        spec = Block.from_gh(AdditiveMap(draw(vector.filter(any))), AdditiveMap(draw(vector)))
    windows = [Window(2, 1)] if rank == 3 or spec.dim_v > 1 and rank == 2 else [
        Window(2, 1), Window(3, 2)]
    degree = tuple(draw(st.lists(small, min_size=rank, max_size=rank)))
    return spec, draw(st.sampled_from(windows)), degree


@settings(max_examples=60, deadline=None)
@example(case=(WittType(AdditiveMap([1])), Window(2, 1), (0,)), delta=Fraction(1))
@example(case=(gw_spec(), Window(3, 2), (0, 0)), delta=Fraction(1))
@example(case=(GeneralizedWitt(Pairing([[1], [2], [-1]])), Window(3, 2), (2,)), delta=_HALF)
@given(case=certified_cases(),
       delta=st.sampled_from([_HALF, Fraction(1), _TWO_THIRDS, Fraction(2), Fraction(-1)]))
def test_the_certified_solve_matches_the_uncertified_one(case, delta):
    """The certificate only stops a solve: its kernel basis and rank are those
    of ``kernel_of`` on the same orbits with no certificate, and every row
    it reads counts as checked."""
    spec, window, degree = case
    system = assemble(spec, degree, window, delta=delta)
    source = CountingSource(system)
    certified = solve(source)
    uncertified = exactlin.kernel_of(system.orbits(), system.n_cols)
    assert certified == uncertified
    assert certified.rows_consumed == uncertified.rows_consumed
    assert source.drawn == certified.rows_consumed + certified.rows_checked
    check_canonical(certified)


def _dot(row, vector):
    return sum(v * vector.get(c, 0) for c, v in row.items())


def test_the_certificate_refuses_an_affine_vector_outside_the_kernel():
    """Witt type f = (1) at delta = 1, degree 0 on Window(2, 1): the identity
    is affine, but [u, v] - 2 [u, v] != 0, so it is no 1-derivation; while
    grid rows remain unreached the certificate hands over rows, one of which
    meets it. The grading derivation e_x -> x e_x is the kernel; it is
    nonzero at 2R of the 2R + 1 points, the fewest for a nonzero affine
    vector, and the rows annihilate it. Once the stream is past every grid
    pair, no row is left to read."""
    system = assemble(WittType(AdditiveMap([1])), (0,), Window(2, 1), delta=Fraction(1))
    box = box_points(2, 1)
    identity = {c: 1 for c in range(len(box))}
    grading = {c: x[0] for c, x in enumerate(box) if x[0]}
    orbits, certificate = system.certified_orbits()
    assert any(_dot(row, identity) for row in certificate([identity]))
    rows = list(certificate([grading]))
    assert rows and not any(_dot(row, grading) for row in rows)
    assert solve(system).int_vectors == (grading,)
    for orbit in orbits:  # draw the whole stream
        for rows in orbit:
            list(rows)
    assert list(certificate([grading])) == []


def test_the_certificate_refuses_a_vector_that_is_not_affine():
    """Witt type f = (1), degree 0 on Window(4, 3) at delta = 1: the grading
    derivation plus e_4 is nonzero at 8 points, the floor, and annihilates
    every grid row, which reads only Box(2d) = Box(2); its second difference
    at 2 is 1, so it is refused. The grading derivation itself is not."""
    system = assemble(WittType(AdditiveMap([1])), (0,), Window(4, 3), delta=Fraction(1))
    box = box_points(4, 1)
    grading = {c: x[0] for c, x in enumerate(box) if x[0]}
    bumped = dict(grading)
    bumped[box.index((4,))] += 1
    _, certificate = system.certified_orbits()
    assert len(bumped) == 8 and certificate([bumped]) is None
    assert not any(_dot(row, bumped) for row in system.int_rows()
                   if all(abs(box[c][0]) <= 2 for c in row))
    assert certificate([grading]) is not None


def test_the_certificate_reads_the_grid_pairs_from_the_orbit_first_pair_on():
    """Generalized Witt, identity pairing, degree 0 on Window(2, 1), whose
    stabilizer has order 8. Every pair before an orbit's first pair has been
    drawn, or skipped with its orbit; a pair of the orbit's rest has not
    covered the pairs between. So while an orbit is drawn, first pair or
    rest, the certificate hands over the rows of the grid pairs from its
    first pair on: here, those past a grid pair that the orbit's rest
    jumps over too."""
    spec, window, degree = gw_spec(), Window(2, 1), (0, 0)
    system = assemble(spec, degree, window, delta=Fraction(1))
    box, pxs, pys, *_ = halfderiv._pair_table(spec, window.radius)
    grid = [n for n in range(len(pxs)) if max(map(abs, box[pxs[n]] + box[pys[n]])) <= 1]
    draw = system._pair_rows()
    identity = {c: 1 for c, (x, r, k) in enumerate(columns_for(spec, window)) if r == k}
    sigmas = tuple(sigma for sigma, _, _ in spec.automorphisms)
    assert len(sigmas) == 8
    layout = list(halfderiv._pair_orbits(spec, window.radius, sigmas))
    orbits, certificate = system.certified_orbits()
    jumps = 0
    for (first, rest), (first_rows, rest_rows) in zip(layout, orbits):
        expected = list(draw(n for n in grid if n >= first[0]))
        list(first_rows)
        assert list(certificate([identity])) == expected
        if next(rest_rows, None) is not None:
            assert list(certificate([identity])) == expected
            jumps += any(first[0] < n < rest[0] and n not in rest for n in grid)
        list(rest_rows)
    assert jumps


@pytest.mark.parametrize("rank,block,radius,d", [
    (1, 1, 2, 1), (2, 1, 3, 1), (2, 4, 2, 1), (3, 1, 2, 1), (3, 4, 2, 1), (2, 1, 4, 2)])
def test_the_difference_test_accepts_exactly_the_affine_vectors(rank, block, radius, d):
    """Each (r, c) entry a random polynomial of degree at most d in each
    coordinate is accepted; one more power of one coordinate in one entry,
    or one entry moved at one point, is refused."""
    rng = random.Random(rank * 100 + block * 10 + radius + d)
    box = box_points(radius, rank)
    affine = halfderiv._differences(rank, block, radius, d)
    powers = list(iter_product(range(d + 1), repeat=rank))

    def vector(coefficients, extra=None):
        k = {}
        for p, x in enumerate(box):
            for e in range(block):
                v = sum(c * prod(xm ** pm for xm, pm in zip(x, power))
                        for c, power in zip(coefficients[e], powers))
                if extra is not None and extra[0] == e:
                    v += x[extra[1]] ** (d + 1)
                if v:
                    k[p * block + e] = v
        return k
    for _ in range(20):
        coefficients = [[rng.randint(-3, 3) for _ in powers] for _ in range(block)]
        k = vector(coefficients)
        assert affine(k)
        assert not affine(vector(coefficients, (rng.randrange(block), rng.randrange(rank))))
        c = rng.randrange(len(box) * block)
        k[c] = k.get(c, 0) + 1
        assert not affine(k)


@pytest.mark.parametrize("spec", [WittType(AdditiveMap([1])), gw_spec(), b1_spec(),
                                  _rank3_block()], ids=["witt1", "gw", "block-gh", "rank3"])
def test_windows_with_radius_below_2d_give_no_certificate(monkeypatch, spec):
    """Box(d) x Box(d) needs x + y in the window: R >= 2d. At d = 1 that is
    R >= 2; at d = 2, R >= 4."""
    degree = (0,) * spec.rank
    radii = (1, 2) if spec.rank == 3 else (1, 2, 3)
    assert [assemble(spec, degree, Window(r, 0)).certified_orbits()[1] is None
            for r in radii] == [r < 2 for r in radii]
    monkeypatch.setattr(type(spec), "coefficient_degree", 2)
    if spec.rank < 3:
        assert [assemble(spec, degree, Window(r, 0)).certified_orbits()[1] is None
                for r in (3, 4)] == [True, False]


@pytest.mark.parametrize("spec,degree,window,delta", [
    (gw_spec(), (0, 0), Window(3, 2), Fraction(1)),
    (WittType(AdditiveMap([1, 2])), (1, 0), Window(3, 2), _HALF),
    (b1_spec(), (0, 1), Window(3, 2), _HALF),
    (_rank3_block(), (0, 1, 0), Window(2, 1), _HALF),
], ids=["gw-identity", "witt-12", "block-gh", "block-rank3"])
def test_degree_systems_match_the_rebuilding_kernel(spec, degree, window, delta):
    """One degree system per family: the kernel and the rank that
    ``kernel_of`` finds, updating a met vector in place when s0 divides s
    (most updates here; all of them on Witt type) and rebuilding it
    otherwise, are those of the slow twin, which normalizes every changed
    vector and rebuilds the index after each shrink. The slow twin reads
    the plain stream, not the orbits, so the checked rows differ."""
    system = assemble(spec, degree, window, delta=delta)
    kernel = exactlin.nullspace(system)
    slow = RebuildingRowSpace(system)
    assert kernel == slow.kernel()
    check_canonical(kernel)
    assert kernel.rows_consumed == slow.rows_consumed == system.n_cols - kernel.dimension


def test_constants_past_64_bits_stream_the_same_rows():
    """Structure constants past 64 bits give the direct generator's rows."""
    for spec in (WittType(AdditiveMap([2 ** 64, 1])),
                 GeneralizedWitt(Pairing([[2 ** 63, 1], [0, 1]]))):
        system = assemble(spec, (1, -1), Window(2, 1))
        assert list(system.int_rows()) == list(_constraint_rows(system))


@st.composite
def pair_table_specs(draw):
    """A spec and a radius: rational raw Blocks of rank 2 or 3 (any
    antisymmetric f), generalized Witt with dim V = 2 or 3, Witt type, and
    each of these with a constant past 64 bits."""
    kind = draw(st.sampled_from(["block-raw", "gw", "witt"]))
    rank = draw(st.integers(2, 3)) if kind == "block-raw" else 2
    value = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    vector = st.lists(value, min_size=rank, max_size=rank)
    big = draw(st.sampled_from([0, 2 ** 64, -(2 ** 65) + 1]))
    if kind == "block-raw":
        upper = draw(st.lists(value, min_size=rank * rank, max_size=rank * rank))
        upper[rank - 1] += big
        f = [[upper[i * rank + j] if i < j else -upper[j * rank + i] if j < i else 0
              for j in range(rank)] for i in range(rank)]
        spec = Block.raw_form(AdditiveMap(draw(vector)), BiadditiveForm(f))
    elif kind == "gw":
        pairing = draw(st.lists(vector, min_size=2, max_size=3))
        pairing[0][0] += big
        spec = GeneralizedWitt(Pairing(pairing))
    else:
        f = draw(vector)
        f[0] += big
        spec = WittType(AdditiveMap(f))
    return spec, draw(st.integers(1, 2 if rank == 3 else 3))


@settings(max_examples=40, deadline=None)
@given(case=pair_table_specs())
def test_pair_table_constants_match_one_t_call_per_pair(case):
    """The pair table's t(x, y), combined from t(0, y) and the unit
    differences, equals the family's t called on each pair, past 64 bits
    too."""
    spec, radius = case
    consts = halfderiv._pair_table(spec, radius)[4]
    assert list(consts) == slow_pair_constants(spec, radius)


@pytest.mark.parametrize("spec,degree,radius,order", [
    (b0_spec(), (0, 0), 3, 8),
    (_SWAPPED, (0, 0), 2, 8),
    (WittType(AdditiveMap([1])), (0,), 3, 2),
    (_rank3_block(), (0, 0, -1), 4, 2),
], ids=["b0", "swapped-pairing", "witt-rank1", "rank3-block"])
def test_pair_orbits_partition_the_pairs_as_the_group_does(spec, degree, radius, order):
    """The pair orbits of a degree's stabilizer are the orbits of {x, y} ->
    {sigma x, sigma y}, found here from the box points and ``act``: each
    table pair in exactly one, first at its least stream position, in
    stream order. A second find gives the same orbits and the table is
    left as it was."""
    sigmas = tuple(sigma for sigma, _, _ in spec.automorphisms if act(sigma, degree) == degree)
    assert len(sigmas) == order
    table = halfderiv._pair_table(spec, radius)
    before = deepcopy(table)
    box, pxs, pys = table[:3]
    at = {frozenset((box[px], box[py])): n for n, (px, py) in enumerate(zip(pxs, pys))}
    assert len(at) == len(pxs)
    found = list(halfderiv._pair_orbits(spec, radius, sigmas))
    firsts = [first for (first,), _ in found]
    assert firsts == sorted(firsts)
    assert sorted(n for (first,), rest in found for n in (first, *rest)) == list(range(len(pxs)))
    for (first,), rest in found:
        x, y = box[pxs[first]], box[pys[first]]
        orbit = {at[frozenset((act(sigma, x), act(sigma, y)))] for sigma in sigmas}
        assert orbit == {first, *rest} and first == min(orbit), (x, y)
    assert list(halfderiv._pair_orbits(spec, radius, sigmas)) == found
    assert len(spec.pair_tables[radius]) == 8
    assert spec.pair_tables[radius] == before


@st.composite
def row_stream_specs(draw):
    """Witt type, Block (g = 0, from (g, h), raw) and generalized Witt with
    dim V 1 or 2, of rank 1 or 2, with small rational data."""
    kind = draw(st.sampled_from(["witt", "block-g0", "block-gh", "block-raw", "gw"]))
    rank = 1 if kind == "witt" and draw(st.booleans()) else 2
    value = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    vector = st.lists(value, min_size=rank, max_size=rank)
    if kind == "witt":
        return WittType(AdditiveMap(draw(vector)))
    if kind == "gw":
        return GeneralizedWitt(Pairing(draw(st.lists(vector, min_size=1, max_size=2))))
    k = draw(value)
    f = BiadditiveForm([[0, k], [-k, 0]])
    if kind == "block-g0":
        return Block.with_form(f)
    g = AdditiveMap(draw(vector.filter(any)))
    if kind == "block-raw":
        return Block.raw_form(g, f)
    return Block.from_gh(g, AdditiveMap(draw(vector)))


@settings(max_examples=40, deadline=None)
@given(spec=row_stream_specs(),
       delta=st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(2, 3)]),
       radius=st.integers(1, 3))
def test_table_rows_match_the_slow_stream_row_by_row(spec, delta, radius):
    """Every degree's rows, read through the window's one pair table with
    bi-affine offsets, are the rows of the direct generator, in order."""
    for a in box_points(1, spec.rank):
        system = assemble(spec, a, Window(radius), delta=delta)
        assert list(system.int_rows()) == list(_constraint_rows(system)), a
    assert list(spec.pair_tables) == [radius]


@settings(max_examples=30, deadline=None)
@example(spec=b1_spec(), degree=(2, -3), radius=3, delta=Fraction(1, 2))
@given(spec=row_stream_specs(),
       degree=st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
       radius=st.integers(1, 3),
       delta=st.sampled_from([Fraction(1, 2), Fraction(2, 3)]))
def test_offsets_combine_exactly_at_degrees_outside_box_1(spec, degree, radius, delta):
    """A degree's offsets are the sum of a_m times the window's unit
    differences, also where some |a_m| >= 2: the rows equal the direct
    generator's, in order."""
    a = degree[:spec.rank]
    assume(max(map(abs, a)) >= 2)
    system = assemble(spec, a, Window(radius), delta=delta)
    assert list(system.int_rows()) == list(_constraint_rows(system))


@pytest.mark.parametrize("degree", [(1,), (1, 0, 0)])
def test_a_degree_of_another_rank_is_refused(degree):
    with pytest.raises(RankMismatchError):
        solve(assemble(b1_spec(), degree, Window(2, 1)))


def _count_t_calls(spec):
    """Route the spec's structure constants through a counter of t calls."""
    scale, t = spec.structure_constants
    calls = []
    spec.structure_constants = scale, lambda *args: calls.append(args) or t(*args)
    return calls


@pytest.mark.parametrize("make_spec", [b0_spec, b1_spec, gw_spec,
                                       lambda: WittType(AdditiveMap([1, 2, 3]))],
                         ids=["block-g0", "block-gh", "gw", "witt-rank3"])
def test_per_window_work_does_not_grow_with_the_degree_count(make_spec, monkeypatch):
    """A sweep evaluates t and the square predicate once per window,
    however many degrees read them; the inner positions are one shared tuple."""
    window = Window(3, 2) if make_spec().rank < 3 else Window(2, 1)
    t_calls = []
    for bound in (0, 1):
        spec = make_spec()
        calls = _count_t_calls(spec)
        sweep(spec, window, bound)
        t_calls.append(len(calls))
    assert t_calls[0] == t_calls[1]
    positions = halfderiv.inner_column_positions(spec, window)
    assert isinstance(positions, tuple)
    assert halfderiv.inner_column_positions(make_spec(), window) is positions
    assert positions == tuple(i for i, _ in _inner_columns(spec, window))
    if spec.family == "block":
        square = halfderiv.square_predicate
        points = []
        monkeypatch.setattr(halfderiv, "square_predicate",
                            lambda spec, b: points.append(b) or square(spec, b))
        sweep(make_spec(), window, 1)
        assert 0 < len(points) <= len(box_points(window.radius, spec.rank))


_SMALL = st.integers(-2, 2)
_NONZERO = _SMALL.filter(bool)


def _small_vector(rank):
    return st.lists(_SMALL, min_size=rank, max_size=rank)


@st.composite
def small_specs(draw):
    """Witt type of rank 1-2, Block g = 0, Block from (g, h), rank-1 generalized Witt."""
    kind = draw(st.sampled_from(["witt", "block-g0", "block-gh", "gw-rank1"]))
    if kind == "witt":
        return WittType(AdditiveMap(draw(st.integers(1, 2).flatmap(_small_vector)
                                         .filter(any))))
    if kind == "block-g0":
        k = draw(_NONZERO)
        return Block.with_form(BiadditiveForm([[0, -k], [k, 0]]))
    if kind == "block-gh":
        g = draw(_small_vector(2).filter(any))
        return Block.from_gh(AdditiveMap(g), AdditiveMap(draw(_small_vector(2))))
    dim_v = draw(st.integers(1, 2))
    return GeneralizedWitt(Pairing([[draw(_NONZERO)] for _ in range(dim_v)]))


def _inner_columns(spec, window):
    """(position, key) of the columns whose box index is in the inner box."""
    return [(i, col) for i, col in enumerate(columns_for(spec, window))
            if window.in_inner(col[0])]


def _inner_rows(spec, window, vectors):
    return [[v[i] for i, _ in _inner_columns(spec, window)] for v in vectors]


@settings(max_examples=60, deadline=None)
@given(spec=small_specs(), window=st.sampled_from([Window(2, 1), Window(3, 2)]))
def test_compare_matches_the_dense_oracle_on_inner_projections(spec, window):
    for a in box_points(1, spec.rank):
        computed = solve(assemble(spec, a, window))
        # a Block whose h is parallel to g has f = 0: as in ``sweep``, nothing
        # is predicted and the kernel is still checked against the oracle
        expected = (predicted(spec, a, window)
                    if spec.family != "block" or spec.nondegenerate
                    else PredictedBasis(tuple(a), (), authoritative=False))
        vectors = [component_vector(spec, window, c) for c in expected.components]
        rep = compare(spec, window, computed, expected)
        assert rep.membership == tuple(
            oracle_in_span(v, computed.vectors) for v in vectors), a
        assert rep.projected_dim == oracle_rank(
            _inner_rows(spec, window, computed.vectors)), a
        predicted_rows = _inner_rows(spec, window, vectors)
        assert rep.predicted_dim == oracle_rank(predicted_rows), a
        assert rep.visible == tuple(any(r) for r in predicted_rows), a
        keys = [key for _, key in _inner_columns(spec, window)]
        excess = tuple(dict((k, v) for k, v in zip(keys, row) if v)
                       for row in _inner_rows(spec, window, computed.vectors)
                       if any(row) and not oracle_in_span(row, predicted_rows))
        assert rep.excess == (excess if rep.projected_dim > rep.predicted_dim else ()), a


@settings(max_examples=30, deadline=None)
@given(spec=small_specs(),
       delta=st.sampled_from(DELTAS + (Fraction(-1), Fraction(1, 3))),
       window=st.sampled_from([Window(2, 1), Window(3, 2)]))
def test_certified_kernel_matches_the_oracle_on_random_specs(spec, delta, window):
    for a in box_points(1, spec.rank):
        system = assemble(spec, a, window, delta=delta)
        source = CountingSource(system)
        certified = solve(source)
        rank = system.n_cols - certified.dimension
        assert certified.rows_consumed == rank, a
        assert source.drawn == certified.rows_consumed + certified.rows_checked, a
        assert certified == exactlin.nullspace(system.matrix), a
        assert certified.vectors == tuple(sparse_nullspace(
            system.matrix.row_dicts(), system.n_unknowns)), a
        check_canonical(certified)
