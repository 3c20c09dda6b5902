"""The exact certificates behind the identity scans.

The Lie and product scans decide an identity on a small grid when its
residual coefficients are polynomials of bounded per-coordinate degree,
and scan only the tuples that meet a finite product support. These tests
check the declared degree bounds by finite differences, that the scans'
cost does not grow with the radius, passing or failing, and that random
specs and products get the same reports as the element-level oracles and
as flat window scans.
"""

from fractions import Fraction
from math import comb

from hypothesis import example, given, settings
from hypothesis import strategies as st

import pytest

from oracles import element_lie, element_verify
from tpw.algebra import (
    Block,
    Element,
    GeneralizedWitt,
    LimitExceededError,
    WittType,
    _Scan,
    _ZERO,
    _index_tuples,
    _position,
    center_predicate,
    scan_identities,
    square_predicate,
    verify_lie_axioms,
)
from tpw.lattice import (
    AdditiveMap,
    BiadditiveForm,
    Pairing,
    Window,
    add,
    box_points,
    search_order,
    sub,
)
from tpw.tpstruct import (
    ExplicitProduct,
    ExtensionByZero,
    Mutation,
    SingleIdempotent,
    ZeroProduct,
    _support_tuples,
    verify,
)


def _antisymmetric(entries, rank):
    """The antisymmetric rank x rank matrix with ``entries`` above the diagonal."""
    m = [[Fraction(0)] * rank for _ in range(rank)]
    it = iter(entries)
    for i in range(rank):
        for j in range(i + 1, rank):
            m[i][j] = Fraction(next(it))
            m[j][i] = -m[i][j]
    return m


DEGREE_SPECS = {
    "gw": lambda: GeneralizedWitt(Pairing([[1, 0], [0, 1]])),
    "gw-rational": lambda: GeneralizedWitt(
        Pairing([[Fraction(1, 2), 1], [0, Fraction(2, 3)]])),
    "gw-rank1-dimv2": lambda: GeneralizedWitt(Pairing([[Fraction(-3, 4)], [2]])),
    "block-g0": lambda: Block.with_form(BiadditiveForm([[0, -1], [1, 0]])),
    "block-gh-rational": lambda: Block.from_gh(
        AdditiveMap([2, -1]), AdditiveMap([Fraction(1, 2), 3])),
    "witt-rational": lambda: WittType(AdditiveMap([Fraction(1, 2), Fraction(-2, 3)])),
    "raw-block": lambda: Block.raw_form(
        AdditiveMap([1, 3]), BiadditiveForm([[0, 2], [-2, 0]])),
    "raw-block-rational": lambda: Block.raw_form(
        AdditiveMap([Fraction(1, 3), -2]),
        BiadditiveForm(_antisymmetric([Fraction(5, 3)], 2))),
}


def _unit(rank, k, m=1):
    return tuple(m if i == k else 0 for i in range(rank))


@pytest.mark.parametrize("name", sorted(DEGREE_SPECS))
def test_coefficient_degree_bounds_the_constants(name):
    """Each (d + 1)-th difference of t along one coordinate vanishes on Box(3)."""
    spec = DEGREE_SPECS[name]()
    d = spec.coefficient_degree
    _, t = spec.structure_constants
    box = box_points(3, spec.rank)
    weights = [(-1) ** (d + 1 - m) * comb(d + 1, m) for m in range(d + 2)]

    def flat(x, y):
        return [c for by_j in t(x, y) for by_l in by_j for c in by_l]

    def difference(values):
        return [sum(w * v for w, v in zip(weights, col)) for col in zip(*values)]

    for k in range(spec.rank):
        steps = [_unit(spec.rank, k, m) for m in range(d + 2)]
        for x in box:
            if x[k] + d + 1 > 3:
                continue
            line = [add(x, s) for s in steps]
            for y in box:
                assert not any(difference([flat(p, y) for p in line])), (x, y, k)
                assert not any(difference([flat(y, p) for p in line])), (y, x, k)


def test_mutation_coefficients_do_not_depend_on_the_indices():
    """Degree 0: u_a . u_b = sum_c w_c u_(a+b+c) with the same w_c for all a, b."""
    w = Element({(1, 0): Fraction(-2, 3), (0, -2): 5, (0, 0): 1})
    product, spec = Mutation(w), WittType(AdditiveMap([1, 2]))
    assert product.coefficient_degree == 0
    box = box_points(3, 2)
    seen = {frozenset((sub(idx, add(a, b)), c)
                      for idx, c in product.basis_product(spec, a, b).items())
            for a in box for b in box}
    assert seen == {frozenset(w.terms.items())}


@pytest.mark.parametrize("name", ["gw", "gw-rank1-dimv2", "block-gh-rational"])
def test_lie_scan_cost_does_not_grow_with_the_radius(name):
    spec = DEGREE_SPECS[name]()
    small, large = (verify_lie_axioms(spec, w) for w in (Window(2, 1), Window(6, 3)))
    assert small.passed and large.passed
    assert 0 < small.visited == large.visited
    n = len(spec.basis_labels(box_points(6, spec.rank)))
    assert (large.n_pairs, large.n_triples) == (n * (n + 1) // 2,
                                                n * (n + 1) * (n + 2) // 6)


@pytest.mark.parametrize("spec,w", [
    (WittType(AdditiveMap([1])), Element({(0,): 1})),
    (WittType(AdditiveMap([1])), Element({(-2,): Fraction(3, 4), (1,): -1})),
    (WittType(AdditiveMap([2, -1])), Element({(1, 1): Fraction(1, 2)})),
    (GeneralizedWitt(Pairing([[1]])), Element({((1,), 0): Fraction(2, 3), ((-1,), 0): 1})),
], ids=["unit", "two-terms", "rank-2", "gw1"])
def test_mutation_scan_cost_does_not_grow_with_the_radius(spec, w):
    """The tp axioms pass on the grid; the Poisson rule's first witness is
    (0, 0, z) for the first nonzero z, at the same position in any window."""
    small, large = (verify(spec, Mutation(w), win) for win in (Window(2, 1), Window(6, 3)))
    assert small.tp_pass and large.tp_pass
    assert 0 < small.visited == large.visited
    assert large.n_triples == len(spec.basis_labels(box_points(6, spec.rank))) ** 3


def test_finite_support_scans_only_the_tuples_that_meet_it():
    spec = Block.from_gh(AdditiveMap([-1, 0]), AdditiveMap([0, 1]))
    star = ExtensionByZero({((0, -2), (0, -2)): Element({(0, -1): Fraction(1)})})
    for radius in (3, 5):
        n = (2 * radius + 1) ** 2
        report = verify(spec, star, Window(radius, 2))
        assert report.all_pass and report.n_triples == n ** 3
        # one key: at most n pairs and triples per term
        assert 0 < report.visited <= 2 + 5 * n
    # the star's key lies outside Box(1): no tuple can fail there
    assert verify(spec, star, Window(1, 0)).visited == 0
    assert verify(spec, ZeroProduct(), Window(3, 2)).visited == 0


_SMALL = st.integers(-2, 2)
_RATIONAL = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


def _vector(rank, values=_SMALL):
    return st.lists(values, min_size=rank, max_size=rank)


def _window(rank):
    return Window(2, 1) if rank == 1 else Window(1, 0)


@st.composite
def lie_specs(draw):
    """Block from (g, h), raw Block, generalized Witt with random pairings, Witt type."""
    kind = draw(st.sampled_from(["block-gh", "raw-block", "gw", "witt"]))
    rank = draw(st.integers(2, 3) if kind == "raw-block" else st.integers(1, 2))
    if kind == "block-gh":
        return Block.from_gh(AdditiveMap(draw(_vector(rank).filter(any))),
                             AdditiveMap(draw(_vector(rank, _RATIONAL))))
    if kind == "raw-block":
        upper = draw(_vector(rank * (rank - 1) // 2, _RATIONAL))
        return Block.raw_form(AdditiveMap(draw(_vector(rank))),
                              BiadditiveForm(_antisymmetric(upper, rank)))
    if kind == "gw":
        dim_v = draw(st.integers(1, 2))
        return GeneralizedWitt(Pairing([draw(_vector(rank, _RATIONAL))
                                        for _ in range(dim_v)]))
    return WittType(AdditiveMap(draw(_vector(rank, _RATIONAL))))


@settings(max_examples=25, deadline=None)
@given(spec=lie_specs())
def test_lie_scan_matches_the_oracle_on_random_specs(spec):
    window = _window(spec.rank)
    assert verify_lie_axioms(spec, window) == element_lie(spec, window)


def _element(draw, spec, rank):
    """1-2 terms at indices of Box(2), keyed by the family's basis labels."""
    terms = {}
    for _ in range(draw(st.integers(1, 2))):
        c = draw(_RATIONAL.filter(bool))
        terms[spec.basis_labels([tuple(draw(_vector(rank)))])[0]] = c
    return Element(terms)


_BLOCK_G1 = Block.from_gh(AdditiveMap([-1, 0]), AdditiveMap([0, 1]))


@st.composite
def products_on_specs(draw):
    """A random product of each variant on its families, with its window.

    Mutation multipliers and table values have rational terms, often of
    different denominators, so a product's scale is their LCM. The
    extensions by zero live on Block (g, h) = ((-1, 0), (0, 1)), whose one
    star key off the square in Box(2), {(0, -2), (0, -2)}, lies in Window(2, 1).
    """
    variant = draw(st.sampled_from(["mutation", "explicit", "zero", "single_idempotent",
                                    "extension_by_zero"]))
    if variant == "extension_by_zero":
        box = box_points(2, 2)
        keys = [a for a in box if not square_predicate(_BLOCK_G1, a)]
        center = [a for a in box if center_predicate(_BLOCK_G1, a)]
        star = {}
        for _ in range(draw(st.integers(0, 2))):
            key = tuple(sorted(draw(st.sampled_from(keys)) for _ in range(2)))
            star[key] = Element({draw(st.sampled_from(center)): draw(_RATIONAL)})
        return _BLOCK_G1, ExtensionByZero(star), Window(2, 1)
    rank = draw(st.integers(1, 2))
    gw = GeneralizedWitt(Pairing([draw(_vector(rank, _RATIONAL))]))
    witt = WittType(AdditiveMap(draw(_vector(rank, _RATIONAL))))
    block_g0 = Block.with_form(BiadditiveForm(
        _antisymmetric(draw(_vector(rank * (rank - 1) // 2)), rank)))
    if variant == "mutation":
        spec = draw(st.sampled_from([gw, witt]))
        return spec, Mutation(_element(draw, spec, rank)), _window(rank)
    if variant == "single_idempotent":
        return block_g0, SingleIdempotent(), _window(rank)
    specs = [gw, witt, block_g0]
    if variant == "zero":
        return draw(st.sampled_from(specs)), ZeroProduct(), _window(rank)
    if rank == 2:
        specs.append(_BLOCK_G1)
    spec = draw(st.sampled_from(specs))
    table = {}
    for _ in range(draw(st.integers(0, 3))):
        key = tuple(sorted(tuple(draw(_vector(rank))) for _ in range(2)))
        table[key] = _element(draw, spec, rank)
    return spec, ExplicitProduct(table), _window(rank)


@settings(max_examples=25, deadline=None)
@given(case=products_on_specs())
# scale 6: denominators 2 and 3 in one multiplier, in two table values
@example(case=(WittType(AdditiveMap([1])), Mutation(Element(
    {(0,): Fraction(1, 2), (1,): Fraction(-2, 3)})), Window(2, 1)))
@example(case=(Block.with_form(BiadditiveForm([[0, -1], [1, 0]])), ExplicitProduct(
    {((0, 0), (1, 0)): Element({(1, 0): Fraction(1, 2)}),
     ((0, 1), (1, 0)): Element({(0, 0): Fraction(-2, 3)})}), Window(1, 0)))
def test_verify_matches_the_oracle_on_random_products(case):
    spec, product, window = case
    assert verify(spec, product, window) == element_verify(spec, product, window)


@pytest.mark.parametrize("name", ["gw", "gw-rank1-dimv2", "block-gh-rational",
                                  "witt-rational"])
def test_a_certified_pass_visits_only_the_grid(name):
    """Every stage passes on Box(1), so the window scans visit no tuple."""
    spec = DEGREE_SPECS[name]()
    n = len(spec.basis_labels(box_points(1, spec.rank)))
    assert verify_lie_axioms(spec, Window(3, 1)).visited == comb(n + 1, 2) + comb(n + 2, 3)
    if spec.family == "witt_type":  # the zero multiplier passes all four identities
        assert verify(spec, Mutation(Element()), Window(3, 1)).visited == n ** 2 + n ** 3


def _bench_raw_block():
    """The benchmark's corrupted Block: g additive, f not of the (g, h) form."""
    return Block.raw_form(AdditiveMap([1, 0, 0]),
                          BiadditiveForm([[0, 0, 0], [0, 0, 1], [0, -1, 0]]))


@pytest.mark.parametrize("spec,table", [
    (Block.with_form(BiadditiveForm([[0, -1], [1, 0]])),
     {((0, 0), (1, 0)): Element({(1, 0): 1})}),
    (WittType(AdditiveMap([1])), {((0,), (1,)): Element({(1,): 1})}),
], ids=["block-g0", "witt"])
def test_limited_product_scan_agrees_with_the_certificate(spec, table):
    """A table failing all three triple identities: a ``max_triples`` equal
    to the most tuples a stage evaluates (every support pair, or the support
    triples up to the last first witness) gives the unlimited report, and
    one less stops the scan."""
    product = ExplicitProduct(table)
    window = Window(2, 1)
    points = search_order(window.radius, spec.rank)
    labels = spec.basis_labels(points)
    certified = verify(spec, product, window)
    checks = (certified.associative, certified.trans_leibniz, certified.poisson_leibniz)
    assert certified.commutative.passed
    assert not any(check.passed for check in checks)
    pairs, triples = _support_tuples(points, product.support(spec.rank))
    last = max(triples.index(tuple(labels.index(l) for l in check.witness[0]))
               for check in checks)
    largest = max(len(pairs), last + 1)
    assert verify(spec, product, window, max_triples=largest) == certified
    with pytest.raises(LimitExceededError):
        verify(spec, product, window, max_triples=largest - 1)


def _fails(where):
    """Synthetic sides that differ exactly on the tuples ``where`` accepts."""
    def sides(s, *idx):
        return (s.spec.basis_element(s.labels[idx[0]]) if where(s, idx) else _ZERO), _ZERO
    return sides


def _witt_scan():
    return _Scan(WittType(AdditiveMap([1])), search_order(3, 1))


def test_a_stage_is_certified_only_after_the_stages_before_it_pass():
    """Stage 2 fails only off Box(1), the grid of degree 2: it is certified
    (and passes) when stage 1 passes on the grid, and scanned on the window
    (and fails there) when stage 1 fails."""
    off_box1 = _fails(lambda s, idx: any(abs(s.labels[i][0]) > 1 for i in idx))
    for stage1, certified in ((_fails(lambda s, idx: True), False),
                              (_fails(lambda s, idx: False), True)):
        stages = ((2, {"stage1": stage1}), (3, {"stage2": off_box1}))
        found = scan_identities(_witt_scan(), stages, ordered=False, degree=2)
        assert (found["stage1"][1] is None) == certified
        assert (found["stage2"][1] is None) == certified


def test_given_tuples_come_before_the_certificate_and_the_limit_before_both():
    """Only the given tuples are scanned, even with a ``degree``, and
    ``max_triples`` caps them: it selects no other tuples."""
    at_origin = _fails(lambda s, idx: idx == (0, 0))  # label 0 is the origin
    stages = ((2, {"origin": at_origin}),)
    given = [[(0, 1), (1, 1)]]
    scan = _witt_scan()
    assert scan_identities(scan, stages, ordered=True, degree=2, tuples=given) == {
        "origin": (49, None)}
    assert scan.visited == 2
    assert scan_identities(_witt_scan(), stages, ordered=True, degree=2)["origin"][0] == 1
    never = ((2, {"never": _fails(lambda s, idx: False)}),)
    assert scan_identities(_witt_scan(), never, ordered=True, tuples=given,
                           max_triples=2) == {"never": (49, None)}
    with pytest.raises(LimitExceededError, match="limit 1 exceeded in stage never"):
        scan_identities(_witt_scan(), never, ordered=True, tuples=given, max_triples=1)


@pytest.mark.parametrize("ordered", [True, False])
def test_position_counts_the_nested_order(ordered):
    for n in range(1, 6):
        for arity in range(1, 4):
            tuples = _index_tuples(n, arity, ordered)[1]
            assert [_position(idx, n, ordered) for idx in tuples] == list(
                range(1, _index_tuples(n, arity, ordered)[0] + 1))


def test_a_failing_lie_scan_costs_the_same_at_any_radius():
    """The corrupted Block's first Jacobi witness lies on Box(1), past the
    whole slab of the origin: the 378 grid pairs and the grid triples up to
    the witness decide both stages at every radius."""
    spec = _bench_raw_block()
    small, large = (verify_lie_axioms(spec, w) for w in (Window(2, 1), Window(3, 1)))
    witness = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert small.anticommutative and large.anticommutative
    assert small.jacobi_witness[:3] == large.jacobi_witness[:3] == witness
    assert small.jacobi_witness[3] == large.jacobi_witness[3]
    assert small.visited == large.visited == 784
    n, m = 125, 27
    assert small.n_triples == 8001
    assert small.n_triples > max(comb(n + 1, 2), comb(m + 2, 3))  # slab 0, the grid
    assert large.n_triples == 59340


@st.composite
def raw_blocks(draw):
    """A raw Block of rank 2 (always Lie) or 3 (mostly not)."""
    rank = draw(st.integers(2, 3))
    upper = draw(_vector(rank * (rank - 1) // 2, _RATIONAL))
    return Block.raw_form(AdditiveMap(draw(_vector(rank))),
                          BiadditiveForm(_antisymmetric(upper, rank)))


@settings(max_examples=5, deadline=None)
@example(spec=_bench_raw_block())
@given(spec=raw_blocks())
def test_limited_lie_scan_agrees_with_the_certificate(spec):
    """On Window(2, 1), a ``max_triples`` equal to the most tuples a stage
    evaluates gives the unlimited report, and one less stops the scan. A raw
    Block is anticommutative, so both stages are certified on Box(1): every
    grid pair, then the grid triples up to the Jacobi witness, or all. The
    benchmark's raw Block needs 406 of the 3,654 grid triples."""
    window = Window(2, 1)
    grid = search_order(1, spec.rank)
    m = len(grid)
    certified = verify_lie_axioms(spec, window)
    assert certified.anticommutative
    triples = comb(m + 2, 3) if certified.jacobi else _position(
        tuple(grid.index(a) for a in certified.jacobi_witness[:3]), m, False)
    largest = max(comb(m + 1, 2), triples)
    assert verify_lie_axioms(spec, window, max_triples=largest) == certified
    with pytest.raises(LimitExceededError):
        verify_lie_axioms(spec, window, max_triples=largest - 1)


@st.composite
def mutations(draw):
    """A mutation on rank-one Witt type or generalized Witt, and a radius."""
    spec = draw(st.sampled_from([WittType(AdditiveMap([draw(_RATIONAL)])),
                                 GeneralizedWitt(Pairing([[draw(_RATIONAL)]]))]))
    return spec, Mutation(_element(draw, spec, 1)), draw(st.integers(2, 4))


@settings(max_examples=25, deadline=None)
@given(case=mutations())
def test_a_certified_mutation_report_equals_the_flat_one(case):
    """Mutations pass the tp axioms, so a limit below n^3 would stop their flat
    scan: the flat report comes from the same mutation without its degree.
    The Poisson rule, which ``require_poisson`` asks for, fails on most."""
    spec, product, radius = case
    window = Window(radius, 1)
    flat = Mutation(product.w)
    flat.coefficient_degree = None
    certified = verify(spec, product, window)
    assert certified.tp_pass
    assert verify(spec, flat, window) == certified


@st.composite
def polynomial_identities(draw):
    """A stage whose residual is prod_t (t_1 - c)(t_1 - d) over its arguments t.

    Symmetric, of degree 2 in each coordinate, and zero on the slabs whose
    first argument has first coordinate c or d, so that with c or d = 0 the
    first witness lies past the origin's slab."""
    rank, arity = draw(st.integers(1, 2)), draw(st.integers(2, 3))
    c, d = draw(st.sampled_from([-1, 0, 1])), draw(st.sampled_from([-1, 0, 1]))

    def sides(s, *idx):
        value = 1
        for i in idx:
            value *= (s.labels[i][0] - c) * (s.labels[i][0] - d)
        return Element({(0,) * rank: value}), _ZERO
    return rank, ((arity, {"poly": sides}),), draw(st.integers(2, 3))


@settings(max_examples=30, deadline=None)
@given(case=polynomial_identities(), ordered=st.booleans())
def test_a_certified_polynomial_stage_finds_the_flat_witness(case, ordered):
    """Ordered and unordered, the grid alone gives the window scan's witness
    and position."""
    rank, stages, radius = case
    spec = WittType(AdditiveMap([1] * rank))

    def scan():
        return _Scan(spec, search_order(radius, rank))
    certified = scan()
    found = scan_identities(certified, stages, ordered, degree=2)
    assert found == scan_identities(scan(), stages, ordered)
    assert certified.visited <= _index_tuples(len(spec.basis_labels(
        box_points(1, rank))), stages[0][0], ordered)[0]
