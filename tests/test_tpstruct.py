"""Tests for product construction, verification and classification."""

import random
from fractions import Fraction
from itertools import product as iter_product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tpw import cli, tpstruct
from tpw.algebra import (
    Block,
    Element,
    FamilyMismatchError,
    GeneralizedWitt,
    WittType,
    _Scan,
    spec_from_json,
)
from tpw.halfderiv import assemble, component_vector, solve_degrees
from tpw.lattice import AdditiveMap, BiadditiveForm, Pairing, Window, box_points
from tpw.tpstruct import (
    ExplicitProduct,
    ExtensionByZero,
    LimitExceededError,
    Mutation,
    SingleIdempotent,
    ZeroProduct,
    classify,
    left_mult_table,
    multiply,
    product_from_json,
    product_to_json,
    verify,
)

from oracles import element_associativity, element_verify


def witt_spec():
    return WittType(AdditiveMap([1]))


def gw1_spec():
    return GeneralizedWitt(Pairing([[1]]))


def b0_spec():
    return Block.with_form(BiadditiveForm([[0, -1], [1, 0]]))


def b1_spec():
    return Block.from_gh(AdditiveMap([-1, 0]), AdditiveMap([0, 1]))


def star_product():
    return ExtensionByZero({((0, -2), (0, -2)): Element({(0, -1): Fraction(1)})})


def test_mutation_multiply_examples():
    spec = witt_spec()
    mut = Mutation(Element({(0,): 1}))
    assert multiply(spec, mut, spec.basis((2,)), spec.basis((3,))) == Element({(5,): 1})
    two_term = Mutation(Element({(1,): 1, (-1,): 2}))
    out = multiply(spec, two_term, spec.basis((0,)), spec.basis((0,)))
    assert out == Element({(1,): 1, (-1,): 2})


def test_single_idempotent_multiply():
    spec = b0_spec()
    p = SingleIdempotent()
    u0 = spec.basis((0, 0))
    u1 = spec.basis((0, 1))
    assert multiply(spec, p, u0, u0) == u0
    assert multiply(spec, p, u0, u1).is_zero


def test_extension_by_zero_multiply():
    spec = b1_spec()
    p = star_product()
    u = spec.basis((0, -2))
    assert multiply(spec, p, u, u) == Element({(0, -1): 1})
    assert multiply(spec, p, u, spec.basis((1, 0))).is_zero


def test_extension_by_zero_validates_domain():
    spec = b1_spec()
    bad_key = ExtensionByZero({((1, 0), (1, 0)): Element({(0, -1): Fraction(1)})})
    with pytest.raises(ValueError):
        multiply(spec, bad_key, spec.basis((1, 0)), spec.basis((1, 0)))
    bad_value = ExtensionByZero({((0, -2), (0, -2)): Element({(1, 1): Fraction(1)})})
    with pytest.raises(ValueError):
        multiply(spec, bad_value, spec.basis((0, -2)), spec.basis((0, -2)))


def test_extension_domain_check_runs_for_each_spec(monkeypatch):
    """One product shared by two specs whose centers differ.

    A freed spec's id can be reused by the next spec built. Every object
    gets the same id here, which makes that reuse certain: the domain
    check must still run for the second spec.
    """
    monkeypatch.setattr(tpstruct, "id", lambda obj: 0, raising=False)
    product = star_product()
    spec = b1_spec()
    u = spec.basis((0, -2))
    assert multiply(spec, product, u, u) == Element({(0, -1): 1})
    # h = (0, 2): no central index, and u_(0,-2) lies in the square
    other = Block.from_gh(AdditiveMap([-1, 0]), AdditiveMap([0, 2]))
    u = other.basis((0, -2))
    with pytest.raises(ValueError):
        multiply(other, product, u, u)


def test_multiply_checks_the_domain_once_per_spec(monkeypatch):
    calls = []
    check = ExtensionByZero.check_domain
    monkeypatch.setattr(ExtensionByZero, "check_domain",
                        lambda self, spec: calls.append(spec) or check(self, spec))
    product, spec, twin = star_product(), b1_spec(), b1_spec()
    u = spec.basis((0, -2))
    for _ in range(3):
        assert multiply(spec, product, u, u) == Element({(0, -1): 1})
    assert len(calls) == 1
    multiply(twin, product, u, u)
    multiply(spec, product, u, u)
    assert len(calls) == 3  # the last spec checked is remembered, by identity


@pytest.mark.parametrize("cls", [ExplicitProduct, ExtensionByZero])
def test_table_rejects_conflicting_mirrored_entries(cls):
    one = Element({(0, -1): Fraction(1)})
    for first in (Element(), 2 * one):
        with pytest.raises(ValueError, match="conflicting"):
            cls({((0, -2), (1, 0)): first, ((1, 0), (0, -2)): one})


def test_mutation_rejected_on_block():
    with pytest.raises(FamilyMismatchError):
        multiply(b0_spec(), Mutation(Element({(0, 0): 1})),
                 b0_spec().basis((0, 0)), b0_spec().basis((0, 0)))


def test_mutation_passes_tp_axioms_and_fails_poisson():
    spec = witt_spec()
    report = verify(spec, Mutation(Element({(0,): 1})), Window(4, 2))
    assert report.commutative.passed
    assert report.associative.passed
    assert report.trans_leibniz.passed
    assert not report.poisson_leibniz.passed
    labels, lhs, rhs = report.poisson_leibniz.witness
    assert labels == ((0,), (0,), (1,))
    assert lhs == Element({(1,): 1})
    assert rhs == Element({(1,): 2})


def test_random_mutations_pass_exactly():
    rng = random.Random(4242)
    spec = witt_spec()
    for _ in range(6):
        terms = {}
        for _ in range(rng.randint(1, 5)):
            idx = (rng.randint(-3, 3),)
            terms[idx] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        w = Element(terms)
        if w.is_zero:
            continue
        report = verify(spec, Mutation(w), Window(3, 1))
        assert report.tp_pass


def test_zero_product_passes_everything():
    report = verify(b1_spec(), ZeroProduct(), Window(2, 1))
    assert report.all_pass


def test_single_idempotent_passes_all_four():
    report = verify(b0_spec(), SingleIdempotent(), Window(2, 1))
    assert report.all_pass


def test_extension_by_zero_passes_all_four():
    report = verify(b1_spec(), star_product(), Window(3, 2))
    assert report.all_pass


def test_extension_by_zero_both_sides_vanish():
    """The compatibility identity holds because both sides are zero."""
    spec = b1_spec()
    p = star_product()
    pts = box_points(2, 2)
    for x in pts:
        for y in pts:
            for z in pts:
                ux, uy, uz = spec.basis(x), spec.basis(y), spec.basis(z)
                lhs = 2 * multiply(spec, p, uz, spec.bracket(ux, uy))
                rhs = spec.bracket(multiply(spec, p, uz, ux), uy) \
                    + spec.bracket(ux, multiply(spec, p, uz, uy))
                assert lhs.is_zero and rhs.is_zero


def test_scaling_preserves_the_identities():
    spec = b1_spec()
    scaled = ExtensionByZero(
        {((0, -2), (0, -2)): Element({(0, -1): Fraction(-7, 3)})})
    report = verify(spec, scaled, Window(3, 2))
    assert report.all_pass


def test_corrupted_idempotent_fails_with_witness():
    spec = b0_spec()
    bad = ExplicitProduct({((1, 0), (1, 0)): Element({(1, 0): Fraction(1)})})
    report = verify(spec, bad, Window(2, 1))
    assert not report.tp_pass
    assert report.trans_leibniz.witness is not None


def test_verify_respects_max_triples():
    with pytest.raises(LimitExceededError):
        verify(b0_spec(), SingleIdempotent(), Window(2, 1), max_triples=10)


def test_left_mult_table_single_idempotent():
    spec = b0_spec()
    window = Window(2, 1)
    comps = left_mult_table(spec, SingleIdempotent(), (0, 0), window)
    assert list(comps) == [(0, 0)]
    assert comps[(0, 0)] == {(0, 0): ((Fraction(1),),)}


def test_left_mult_table_zero_product():
    assert left_mult_table(b0_spec(), ZeroProduct(), (0, 0), Window(2, 1)) == {}


def test_left_mult_table_mutation_shifts():
    spec = witt_spec()
    comps = left_mult_table(spec, Mutation(Element({(1,): 1, (-1,): 1})),
                            (0,), Window(3, 1))
    assert set(comps) == {(1,), (-1,)}
    for table in (comps[(1,)], comps[(-1,)]):
        assert table == {x: ((Fraction(1),),) for x in box_points(3, 1)}


def test_left_mult_components_are_half_derivations():
    """Left multiplication by any element of a passing product solves the
    assembled system at its degree."""
    spec = b0_spec()
    window = Window(2, 1)
    comps = left_mult_table(spec, SingleIdempotent(), (0, 0), window)
    for degree, comp in comps.items():
        system = assemble(spec, degree, window)
        vec = component_vector(spec, window, comp)
        assert all(r == 0 for r in system.matrix.apply(vec))


def test_classify_block_g0():
    spec = b0_spec()
    window = Window(3, 2)
    solved = solve_degrees(spec, window, 2)
    res = classify(spec, solved, window, 2, n_samples=4, seed=3)
    assert res.n_parameters == 1
    gen = res.generators[0]
    assert list(gen.table) == [((0, 0), (0, 0))]
    value = gen.table[((0, 0), (0, 0))]
    assert set(value.terms) == {(0, 0)}
    assert res.associativity_pass


def test_classify_b1_extension_family():
    spec = b1_spec()
    window = Window(3, 2)
    solved = solve_degrees(spec, window, 2)
    res = classify(spec, solved, window, 2, n_samples=4, seed=3)
    assert res.n_parameters == 1
    gen = res.generators[0]
    assert list(gen.table) == [((0, -2), (0, -2))]
    assert gen.table[((0, -2), (0, -2))] == Element({(0, -1): 1})
    assert res.associativity_pass


def test_classify_generalized_witt_returns_zero_family():
    spec = GeneralizedWitt(Pairing([[1, 0], [0, 1]]))
    window = Window(2, 1)
    solved = solve_degrees(spec, window, 1)
    res = classify(spec, solved, window, 1, n_samples=2, seed=1)
    assert res.n_parameters == 0


def test_classify_no_center_spec_returns_zero_family():
    # h never takes the values -1 or -2 on the lattice
    spec = Block.from_gh(AdditiveMap([-1, 0]), AdditiveMap([0, 3]))
    window = Window(3, 2)
    solved = solve_degrees(spec, window, 2)
    res = classify(spec, solved, window, 2, n_samples=2, seed=1)
    assert res.n_parameters == 0


def test_classify_witt_type_finds_the_group_product():
    """Inside a bounded degree box the only mutation whose left
    multiplications all fit is the group product itself (a multiplier at
    c != 0 shifts some degree out of the box). Its truncated table loses
    associativity at the window boundary, which the samples report."""
    spec = witt_spec()
    window = Window(4, 2)
    solved = solve_degrees(spec, window, 2)
    res = classify(spec, solved, window, 2, n_samples=1, seed=9)
    assert res.n_parameters == 1
    table = res.generators[0].table
    for (a, b), value in table.items():
        assert value == Element({(a[0] + b[0],): 1})
    ok, witness = res.associativity_samples[0]
    assert not ok
    assert witness is not None


def test_product_json_round_trip():
    for spec, product in ((b0_spec(), ZeroProduct()), (b0_spec(), SingleIdempotent()),
                          (witt_spec(), Mutation(Element({(1,): Fraction(2, 3)}))),
                          (b1_spec(), star_product()),
                          (b0_spec(), ExplicitProduct({((0, 0), (0, 0)): Element({(0, 0): 1})}))):
        data = product_to_json(product, spec)
        back = product_from_json(data, spec)
        assert product_to_json(back, spec) == data


def test_classify_requires_all_degrees():
    from tpw.halfderiv import MissingDegreeError
    spec = b0_spec()
    window = Window(2, 1)
    solved = solve_degrees(spec, window, 1)
    solved.pop((0, 0))
    with pytest.raises(MissingDegreeError):
        classify(spec, solved, window, 1)


@pytest.mark.parametrize("spec,label", [(witt_spec(), lambda a: a),
                                        (gw1_spec(), lambda a: (a, 0))],
                         ids=["witt-type", "gw1"])
def test_mutation_left_mults_are_half_derivations(spec, label):
    """Witt type and generalized Witt with dim V = 1 give the same
    components, each a table of 1 x 1 matrices."""
    window = Window(3, 1)
    w = Element({label((1,)): Fraction(1, 2), label((0,)): Fraction(-3)})
    comps = left_mult_table(spec, Mutation(w), (1,), window)
    assert set(comps) == {(2,), (1,)}
    assert comps[(2,)][(0,)] == ((Fraction(1, 2),),)
    for degree, comp in comps.items():
        system = assemble(spec, degree, window)
        vec = component_vector(spec, window, comp)
        assert any(vec) and all(r == 0 for r in system.matrix.apply(vec))


def test_star_left_mult_is_the_alpha_map():
    spec = b1_spec()
    window = Window(3, 2)
    comps = left_mult_table(spec, star_product(), (0, -2), window)
    assert list(comps) == [(0, 1)]
    assert comps[(0, 1)] == {(0, -2): ((Fraction(1),),)}
    system = assemble(spec, (0, 1), window)
    vec = component_vector(spec, window, comps[(0, 1)])
    assert all(r == 0 for r in system.matrix.apply(vec))


def _seeded_multiplier(rng):
    terms = {(rng.randint(-3, 3),): Fraction(rng.randint(-5, 5), rng.randint(1, 4))
             for _ in range(rng.randint(1, 4))}
    return Element(terms)


@pytest.mark.parametrize("spec,product,window", [
    (b1_spec(), ZeroProduct(), Window(2, 1)),
    (b0_spec(), SingleIdempotent(), Window(2, 1)),
    (witt_spec(), Mutation(Element({(0,): 1})), Window(4, 2)),
    (witt_spec(), Mutation(_seeded_multiplier(random.Random(7))), Window(3, 1)),
    (witt_spec(), Mutation(_seeded_multiplier(random.Random(8))), Window(3, 1)),
    (gw1_spec(), Mutation(Element({((1,), 0): Fraction(2, 3), ((-1,), 0): 1})), Window(3, 1)),
    (gw1_spec(), ExplicitProduct({((0,), (1,)): Element({((1,), 0): 1})}), Window(2, 1)),
    (b1_spec(), star_product(), Window(2, 1)),
    (b0_spec(), ExplicitProduct({((1, 0), (1, 0)): Element({(1, 0): Fraction(1)})}),
     Window(2, 1)),
    # the failing variants at a second radius
    (witt_spec(), Mutation(Element({(0,): 1})), Window(2, 1)),
    (witt_spec(), Mutation(_seeded_multiplier(random.Random(7))), Window(5, 2)),
    (witt_spec(), Mutation(_seeded_multiplier(random.Random(8))), Window(5, 2)),
    (gw1_spec(), Mutation(Element({((1,), 0): Fraction(2, 3), ((-1,), 0): 1})), Window(5, 2)),
    (gw1_spec(), ExplicitProduct({((0,), (1,)): Element({((1,), 0): 1})}), Window(4, 2)),
    (b0_spec(), ExplicitProduct({((1, 0), (1, 0)): Element({(1, 0): Fraction(1)})}),
     Window(1, 0)),
    # keys outside the window, reached only through u . [v, w] or [u, w] . v
    (b0_spec(), ExplicitProduct({((1, 1), (2, -1)): Element({(2, -1): -1})}), Window(1, 0)),
    (WittType(AdditiveMap([1, 2])), ExplicitProduct({((0, -2), (1, 1)): Element({(1, 1): 1})}),
     Window(1, 0)),
], ids=["zero", "single-idempotent", "unit-mutation", "seeded-mutation-7",
        "seeded-mutation-8", "gw1-mutation", "gw1-table", "star", "bad-table",
        "unit-mutation-r2", "seeded-mutation-7-r5", "seeded-mutation-8-r5",
        "gw1-mutation-r5", "gw1-table-r4", "bad-table-r1", "block-g0-outer-key",
        "witt-outer-key"])
def test_verify_matches_the_element_oracle(spec, product, window):
    assert verify(spec, product, window) == element_verify(spec, product, window)


def _combined(generators, coeffs):
    """The table product sum c_i T_i, built entry by entry."""
    table = {}
    for gen, c in zip(generators, coeffs):
        for key, value in gen.table.items():
            table[key] = table.get(key, Element()) + c * value
    return ExplicitProduct(table)


@pytest.mark.parametrize("spec,window,bound,n_samples,seed", [
    (witt_spec(), Window(4, 2), 2, 3, 9),
    # seed 23 draws 0 first: the zero product passes where the others fail
    (witt_spec(), Window(4, 2), 2, 5, 23),
    # seed 17 draws the coefficients 1, 0, 0, 8/5, -6
    (b0_spec(), Window(2, 1), 1, 5, 17),
    # degree bound 2 leaves three generators
    (witt_spec(), Window(3, 1), 2, 5, 0),
], ids=["witt-type", "witt-type-zero-draw", "block-g0-zero-draws",
        "witt-type-three-generators"])
def test_classify_samples_match_the_element_oracle(spec, window, bound, n_samples, seed):
    solved = solve_degrees(spec, window, bound)
    res = classify(spec, solved, window, bound, n_samples=n_samples, seed=seed)
    labels = spec.basis_labels(box_points(window.inner_margin, spec.rank))
    rng = random.Random(seed)
    expected = []
    draws = []
    for _ in range(n_samples):
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in res.generators]
        draws.extend(coeffs)
        expected.append(element_associativity(
            spec, _combined(res.generators, coeffs), labels))
    assert list(res.associativity_samples) == expected
    # the truncated group product of Witt type fails at the window boundary
    assert res.associativity_pass == (spec.family != "witt_type")
    if spec.family == "witt_type":
        assert any(witness is not None for _, witness in expected)
    else:
        assert 0 in draws and len(set(draws)) > 2


@pytest.mark.parametrize("n_samples", [0, 5, 40])
def test_classify_scans_the_inner_triples_at_most_once(monkeypatch, n_samples):
    """One scan decides the family and every sample, whatever their number:
    every triple where an associator can be nonzero ({u, v} or {v, w} a
    key of a generator) when the family passes, fewer when it fails."""
    visited = []  # tuples visited per call of the one first-witness loop
    first_witnesses = _Scan.first_witnesses

    def counting(scan, numbered, identities):
        before = scan.visited
        found = first_witnesses(scan, numbered, identities)
        visited.append(scan.visited - before)
        return found

    monkeypatch.setattr(_Scan, "first_witnesses", counting)
    for spec, window, passes in ((b0_spec(), Window(3, 2), True),
                                 (witt_spec(), Window(3, 1), False)):
        visited.clear()
        solved = solve_degrees(spec, window, 1)
        res = classify(spec, solved, window, 1, n_samples=n_samples, seed=0)
        labels = spec.basis_labels(box_points(window.inner_margin, spec.rank))
        keys = {frozenset(key) for g in res.generators for key in g.table}
        n_support = sum(1 for u, v, w in iter_product(labels, repeat=3)
                        if frozenset((u, v)) in keys or frozenset((v, w)) in keys)
        assert res.n_parameters == 1
        assert res.associativity_pass == passes
        scanned = sum(visited)
        assert 0 < scanned <= n_support <= len(labels) ** 3
        assert (scanned == n_support) == passes
        if passes:  # Block g = 0 on Window(3, 2)
            assert (n_support, len(labels) ** 3) == (49, 15_625)


def test_span_associativity_sees_the_mixed_terms():
    """T1 and T2 are each associative on Box(1), T1 + T2 is not: only the
    mixed associators A_12 + A_21 show it."""
    spec = b0_spec()
    labels = spec.basis_labels(box_points(1, spec.rank))
    gens = [ExplicitProduct({((1, 0), (1, 0)): _one((0, 1))}),
            ExplicitProduct({((0, 1), (-1, 0)): _one((0, -1))})]
    for gen in gens:
        assert element_associativity(spec, gen, labels) == (True, None)
    draws = [[1, 0], [0, 2], [1, Fraction(-3, 2)], [0, 0]]
    passed, samples = tpstruct._span_associativity(spec, gens, labels, draws)
    assert not passed
    assert samples == [element_associativity(spec, _combined(gens, coeffs), labels)
                       for coeffs in draws]
    assert samples[2] == (False, ((-1, 0), (1, 0), (1, 0)))
    assert [ok for ok, _ in samples] == [True, True, False, True]


_BOX1 = box_points(1, 2)
_COEFF = st.builds(Fraction, st.sampled_from([-2, -1, 1, 2]), st.integers(1, 2))


@st.composite
def tables_and_draws(draw):
    """1-3 tables of 1-2 entries on Box(1), and 0-4 draws with zeros among them.
    Entries are keyed by the unordered pair: the product is commutative, so
    (a, b) and (b, a) name one entry."""
    point = st.sampled_from(_BOX1)
    tables = [ExplicitProduct({tuple(sorted((draw(point), draw(point)))): Element(
        {draw(point): draw(_COEFF)}) for _ in range(draw(st.integers(1, 2)))})
        for _ in range(draw(st.integers(1, 3)))]
    coeff = st.sampled_from([0, 0, 1, -1, Fraction(1, 2), Fraction(-3, 2), 2])
    draws = draw(st.lists(st.lists(coeff, min_size=len(tables), max_size=len(tables)),
                          max_size=4))
    return tables, draws


def _table(entries):
    """A table product from ``(a, b, value label, coefficient)`` entries."""
    return ExplicitProduct({(a, b): Element({l: c}) for a, b, l, c in entries})


# T/2 and T/3 for T = (u_0 . u_(1,0) = u_(1,0)), which is not associative:
# coprime scales 2 and 3, and draws whose products are zero, one of
# denominator 3, so each A_ii is weighed by c_i^2 / s_i^2
_COPRIME_SCALES = ([_table([((0, 0), (1, 0), (1, 0), Fraction(1, 2))]),
                    _table([((0, 0), (1, 0), (1, 0), Fraction(1, 3))])],
                   [[2, -3], [Fraction(2, 3), -1], [1, 1]])
# k[x]/(x^3) on 1 = u_0, x = u_(1,0), x^2 = u_(0,1), split into its unit
# part (scale 2) and x . x = x^2 (scale 3): every product of the span is
# associative, yet A_12 = -A_21 != 0 at (x, x, 1)
_SPLIT_POLYNOMIALS = ([_table([((0, 0), (0, 0), (0, 0), Fraction(1, 2)),
                               ((0, 0), (1, 0), (1, 0), Fraction(1, 2)),
                               ((0, 0), (0, 1), (0, 1), Fraction(1, 2))]),
                       _table([((1, 0), (1, 0), (0, 1), Fraction(1, 3))])],
                      [[Fraction(1, 3), 2]])


@settings(max_examples=40, deadline=None)
@given(case=tables_and_draws())
@example(case=_COPRIME_SCALES)
@example(case=_SPLIT_POLYNOMIALS)
def test_span_associativity_matches_the_element_oracle(case):
    """Each sample is the oracle's verdict on the summed table, and the
    family passes exactly when every T_i and every T_i + T_j is associative
    (the associator is a quadratic form in the coefficients)."""
    gens, draws = case
    spec = b0_spec()
    labels = spec.basis_labels(_BOX1)
    passed, samples = tpstruct._span_associativity(spec, gens, _BOX1, draws)
    assert samples == [element_associativity(spec, _combined(gens, c), labels)
                       for c in draws]
    polarized = [_combined(gens, [int(k in (i, j)) for k in range(len(gens))])
                 for i in range(len(gens)) for j in range(i, len(gens))]
    assert passed == all(element_associativity(spec, p, labels)[0] for p in polarized)


def test_span_scan_does_no_element_arithmetic(monkeypatch):
    """The span scan reads integer label products: neither a product of
    elements nor an element sum runs, on a passing family (Block g = 0)
    or on a failing one that builds witnesses (Witt type f = (1))."""
    cases = [(b0_spec(), Window(3, 2), True), (witt_spec(), Window(3, 1), False)]
    solved = [solve_degrees(spec, window, 1) for spec, window, _ in cases]

    def refuse(*args):
        raise AssertionError("element arithmetic in the span scan")
    monkeypatch.setattr(tpstruct._CheckedProduct, "__call__", refuse)
    monkeypatch.setattr(Element, "__add__", refuse)
    for (spec, window, passes), degrees in zip(cases, solved):
        res = classify(spec, degrees, window, 1)
        assert res.associativity_pass == passes
        assert all(ok == passes for ok, _ in res.associativity_samples)
        assert all((witness is None) == passes for _, witness in res.associativity_samples)


@pytest.mark.parametrize("spec", [b0_spec(), b1_spec()], ids=["block-g0", "block-g1"])
def test_classified_generators_pass_the_tp_axioms(spec):
    window = Window(3, 2)
    solved = solve_degrees(spec, window, 1)
    res = classify(spec, solved, window, 1)
    assert res.generators
    for gen in res.generators:
        assert verify(spec, gen, Window(2, 1)).tp_pass


def test_table_product_on_rank_one_generalized_witt():
    spec = gw1_spec()
    product = ExplicitProduct({((0,), (1,)): Element({((1,), 0): 3})})
    x = spec.element((0,), [2])
    y = spec.element((1,), [5]) + spec.element((2,), [1])
    assert multiply(spec, product, x, y) == spec.element((1,), [30])
    assert multiply(spec, product, y, x) == spec.element((1,), [30])


def _one(index):
    return Element({index: Fraction(1)})


@pytest.mark.parametrize("spec,product,error", [
    (witt_spec(), Mutation(_one((0, 0))), ValueError),
    (b0_spec(), ExplicitProduct({((0,), (0,)): _one((0, 0))}), ValueError),
    (b0_spec(), ExplicitProduct({((0, 0), (0, 0)): _one((0,))}), ValueError),
    (b1_spec(), ExtensionByZero({((0,), (0,)): _one((0, -1))}), ValueError),
    (GeneralizedWitt(Pairing([[1, 0], [0, 1]])),
     ExplicitProduct({((0, 0), (0, 0)): Element({((0, 0), 0): 1})}), FamilyMismatchError),
    (gw1_spec(), ExplicitProduct({((0,), (0,)): _one((0,))}), ValueError),
    (witt_spec(), ExplicitProduct({((0,), (0,)): Element({((0,), 0): 1})}), ValueError),
], ids=["mutation-rank", "table-key-rank", "table-value-rank", "star-key-rank",
        "table-on-gw2", "gw1-table-scalar-value", "witt-table-vector-value"])
def test_products_outside_their_domain_are_rejected(spec, product, error):
    label = spec.basis_labels([(0,) * spec.rank])[0]
    u = spec.basis_element(label)
    with pytest.raises(error):
        multiply(spec, product, u, u)
    with pytest.raises(error):
        verify(spec, product, Window(2, 1))
    with pytest.raises(error):
        left_mult_table(spec, product, (0,) * spec.rank, Window(2, 1))


def test_left_mult_table_rejects_an_index_of_another_rank():
    with pytest.raises(ValueError, match="rank 1"):
        left_mult_table(witt_spec(), Mutation(Element({(0,): 1})), (0, 5), Window(2, 1))


# The B(q) family that the paper generalizes: basis L_(m,i), (m, i) in Z^2, with
# [L_(m,i), L_(n,j)] = (n(i + q) - m(j + q)) L_(m+n,i+j). It is Block with
# (g, h) = ((-q, 0), (0, 1/q)) for q != 0, and Block f = [[0, -1], [1, 0]] for
# q = 0; its space of 1/2-derivations, and so its transposed Poisson family,
# has one more direction exactly when q is an integer.

_QS = [Fraction(q) for q in (0, 1, -1, 2, 3, Fraction(1, 2), Fraction(-1, 3))]


def _bq_json(q):
    if q == 0:
        return {"family": "block", "f": [["0", "-1"], ["1", "0"]]}
    return {"family": "block", "g": [str(-q), "0"], "h": ["0", str(1 / q)]}


def _bq_bracket(q, a, b):
    """The coefficient of L_(m+n,i+j) in [L_(m,i), L_(n,j)], as written above."""
    (m, i), (n, j) = a, b
    return n * (i + q) - m * (j + q)


def _label_bracket(spec, a, b):
    """``spec.label_bracket`` as the one coefficient at a + b, over its scale."""
    terms = dict(spec.label_bracket(a, b))
    assert set(terms) <= {(a[0] + b[0], a[1] + b[1])}
    return Fraction(sum(terms.values()), spec.structure_constants[0])


@pytest.mark.parametrize("q", _QS, ids=str)
def test_block_is_the_b_q_bracket(q):
    spec = spec_from_json(_bq_json(q))
    box = box_points(2, 2)
    for a in box:
        for b in box:
            assert _label_bracket(spec, a, b) == _bq_bracket(q, a, b), (a, b)


def test_the_empty_coset_block_of_the_suite_is_3_b_one_third():
    case, = [c for c in cli.THEOREM_SUITES["thmB"] if c["name"] == "block-empty-coset-trivial"]
    spec = spec_from_json(case["algebra"])
    box = box_points(2, 2)
    for a in box:
        for b in box:
            assert _label_bracket(spec, a, b) == 3 * _bq_bracket(Fraction(1, 3), a, b), (a, b)


@pytest.mark.parametrize("q,radius,margin,bound", [
    *((Fraction(q), 4, 2, 2) for q in (-1, 0, 1, Fraction(1, 2), Fraction(-1, 2),
                                       Fraction(1, 3), Fraction(-1, 3))),
    (Fraction(2), 6, 4, 2), (Fraction(-2), 6, 4, 2), (Fraction(3), 7, 6, 3),
], ids=lambda v: str(v) if isinstance(v, Fraction) else None)
def test_classify_tp_on_b_q_has_a_parameter_exactly_for_integer_q(q, radius, margin, bound):
    """One parameter for q in Z, none otherwise, and the sweep asserts the
    span: id, and for q in Z the alpha map u_(0,-2q) -> u_(0,-q), so the
    inner box must hold (0, -2q)."""
    integer = q.denominator == 1
    report = cli.run({"algebra": _bq_json(q), "task": "classify-tp",
                      "window": {"radius": radius, "inner_margin": margin},
                      "payload": {"degree_bound": bound, "expected_parameters": int(integer)}})
    names = {"id"}
    if integer:
        names.add("alpha" if q == 0 else "alpha_((0,%d),(0,%d))" % (-2 * q, -q))
    verdict = report["result"]["sweep_verdict"]
    assert verdict.startswith("Delta = span{") and verdict.endswith("}")
    assert set(verdict[len("Delta = span{"):-1].split(", ")) == names
    assert [v["pass"] for v in report["verdicts"]] == [True, True, True]
    assert report["all_pass"]
