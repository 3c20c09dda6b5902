"""Tests for the Lie algebra families, brackets and structure scans."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import element_lie, scalar_bracket_coeff
from tpw.algebra import (
    Block,
    Element,
    FamilyMismatchError,
    GeneralizedWitt,
    SpecMismatchError,
    WittType,
    bracket,
    center_predicate,
    square_predicate,
    verify_center,
    verify_lie_axioms,
    verify_square,
    witt_to_witt_type,
)
from tpw.lattice import (
    AdditiveMap,
    BiadditiveForm,
    Pairing,
    RankMismatchError,
    Window,
    box_points,
)


def _coeff(spec, a, b):
    """The coefficient of [u_a, u_b] at a + b, read through the public bracket."""
    out = bracket(spec, spec.basis(a), spec.basis(b))
    ab = tuple(x + y for x, y in zip(a, b))
    assert set(out.terms) <= {ab}
    return out.terms.get(ab, 0)


def b1_spec():
    return Block.from_gh(AdditiveMap([-1, 0]), AdditiveMap([0, 1]))


def b0_spec():
    return Block.with_form(BiadditiveForm([[0, -1], [1, 0]]))


def gw_spec():
    return GeneralizedWitt(Pairing([[1, 0], [0, 1]]))


def witt_spec():
    return WittType(AdditiveMap([1]))


def corrupted_block():
    """Rank-3 pair (g, f) that no additive h can reconcile.

    On rank 2 every antisymmetric biadditive form is compatible with any
    nonzero g, so a genuine Jacobi violation needs a third generator.
    """
    g = AdditiveMap([1, 0, 0])
    f = BiadditiveForm([[0, 0, 0], [0, 0, 1], [0, -1, 0]])
    return Block.raw_form(g, f)


def test_block_bracket_example():
    spec = b1_spec()
    out = bracket(spec, spec.basis((1, 0)), spec.basis((0, 1)))
    assert out == Element({(1, 1): -2})
    # cross-check against the f + g split
    assert spec.f((1, 0), (0, 1)) + spec.g((1, -1)) == -2


def test_block_bracket_agrees_with_specialized_formula():
    """[L_{m,i}, L_{n,j}] = (n(i+q) - m(j+q)) L_{m+n,i+j} with q = 1."""
    spec = b1_spec()
    q = 1
    for a in box_points(3, 2):
        for b in box_points(3, 2):
            m, i = a
            n, j = b
            assert _coeff(spec, a, b) == n * (i + q) - m * (j + q)


def test_block_bracket_two_routes_agree():
    """Brackets via the assembled form match the expanded g-h expression."""
    g = AdditiveMap([Fraction(2), Fraction(-1)])
    h = AdditiveMap([Fraction(1, 2), Fraction(3)])
    spec = Block.from_gh(g, h)
    for a in box_points(3, 2):
        for b in box_points(3, 2):
            direct = (g(a) * h(b) - g(b) * h(a)) + (g(a) - g(b))
            assert _coeff(spec, a, b) == direct


def test_bracket_of_element_with_itself_vanishes():
    rng = random.Random(33)
    spec = b1_spec()
    pts = box_points(3, 2)
    for _ in range(30):
        x = Element({rng.choice(pts): Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                     for _ in range(4)})
        assert bracket(spec, x, x).is_zero


def test_bracket_is_bilinear():
    rng = random.Random(12)
    spec = b0_spec()
    pts = box_points(3, 2)

    def rand_elem():
        return Element({rng.choice(pts): Fraction(rng.randint(-3, 3))
                        for _ in range(3)})

    for _ in range(25):
        x, x2, y = rand_elem(), rand_elem(), rand_elem()
        assert bracket(spec, x + x2, y) == bracket(spec, x, y) + bracket(spec, x2, y)


def test_generalized_witt_bracket_example():
    spec = gw_spec()
    x = spec.basis((1, 0), 0)
    y = spec.basis((0, 1), 0)
    out = bracket(spec, x, y)
    assert out == Element({((1, 1), 0): Fraction(-1)})


def test_bracket_rejects_mismatched_elements():
    with pytest.raises(SpecMismatchError):
        bracket(gw_spec(), Element({(0, 0): Fraction(1)}), Element({(0, 0): Fraction(1)}))
    with pytest.raises(SpecMismatchError):
        bracket(gw_spec(), gw_spec().basis((0, 0)), Element({((0, 0), 2): 1}))


def test_witt_type_bracket():
    spec = witt_spec()
    out = bracket(spec, spec.basis((2,)), spec.basis((3,)))
    assert out == Element({(5,): 1})


# name -> (spec factory, whether its data has denominators to clear)
CLOSED_FORMULA_SPECS = {
    "gw": (gw_spec, False),
    "gw-rational": (lambda: GeneralizedWitt(
        Pairing([[Fraction(1, 2), 1], [0, Fraction(2, 3)]])), True),
    "block-g0": (b0_spec, False),
    "block-gh": (b1_spec, False),
    "block-gh-rational": (lambda: Block.from_gh(
        AdditiveMap([2, -1]), AdditiveMap([Fraction(1, 2), 3])), True),
    "witt": (witt_spec, False),
    "witt-rational": (lambda: WittType(
        AdditiveMap([Fraction(1, 2), Fraction(-2, 3)])), True),
    "corrupted-block": (corrupted_block, False),
}


def closed_formula_bracket(spec, x, y):
    """Bilinear sum of the paper's basis formula over the terms of x and y."""
    out = Element()
    for u, xu in x.terms.items():
        for v, yv in y.terms.items():
            if spec.family == "generalized_witt":
                # [a (x) v_i, b (x) v_j] = <v_i, b> v_j - <v_j, a> v_i
                (a, i), (b, j) = u, v
                unit = [[int(k == l) for l in range(spec.dim_v)] for k in range(spec.dim_v)]
                ab = tuple(s + t for s, t in zip(a, b))
                term = (spec.pairing(unit[i], b) * spec.basis(ab, j)
                        - spec.pairing(unit[j], a) * spec.basis(ab, i))
            else:
                ab = tuple(s + t for s, t in zip(u, v))
                term = Element({ab: scalar_bracket_coeff(spec, u, v)})
            out = out + xu * yv * term
    return out


@pytest.mark.parametrize("name", sorted(CLOSED_FORMULA_SPECS))
def test_bracket_follows_the_closed_formula(name):
    factory, rational = CLOSED_FORMULA_SPECS[name]
    spec = factory()
    scale, _ = spec.structure_constants
    assert (scale != 1) == rational
    labels = spec.basis_labels(box_points(2, spec.rank))
    basis = [spec.basis_element(l) for l in labels]
    for u in basis:
        for v in basis:
            assert spec.bracket(u, v) == closed_formula_bracket(spec, u, v)

    rng = random.Random(name)

    def rand_elem():
        out = Element()
        for _ in range(4):
            c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            out = out + c * rng.choice(basis)
        return out

    for _ in range(20):
        x, y = rand_elem(), rand_elem()
        assert bracket(spec, x, y) == closed_formula_bracket(spec, x, y)

    wrong_rank = spec.basis_element(spec.basis_labels([spec.point(labels[1]) + (1,)])[0])
    with pytest.raises(RankMismatchError):
        bracket(spec, wrong_rank, basis[1])
    with pytest.raises(RankMismatchError):
        bracket(spec, basis[1], wrong_rank)


def test_lie_axioms_pass_for_all_families():
    w = Window(2, 1)
    for spec in (b1_spec(), b0_spec(), gw_spec(), witt_spec()):
        report = verify_lie_axioms(spec, w)
        assert report.passed, spec.family


def non_anticommutative_block():
    """A raw Block whose constants gain the symmetric term x_0 y_0.

    No family can fail anticommutativity, so the scan's path for such a
    bracket, where the Jacobi sum is not alternating, needs this stand-in.
    """
    spec = Block.raw_form(AdditiveMap([1, 0]), BiadditiveForm([[0, 1], [-1, 0]]))
    scale, t = spec.structure_constants
    spec.structure_constants = (
        scale, lambda x, y: (((t(x, y)[0][0][0] + scale * x[0] * y[0],),),))
    return spec


def rational_raw_block():
    """A rank-3 raw Block of scale 6 whose Jacobi residual is 1/6 at (1, 1, 1):
    the numerator 6 over scale^2 = 36, which over scale alone would read 1."""
    third = Fraction(1, 3)
    return Block.raw_form(AdditiveMap([Fraction(1, 2), 0, 0]),
                          BiadditiveForm([[0, 0, 0], [0, 0, third], [0, -third, 0]]))


LIE_ORACLE_SPECS = {
    "gw-rank1-dimv1": lambda: GeneralizedWitt(Pairing([[1]])),
    "gw-rank1-dimv2": lambda: GeneralizedWitt(Pairing([[1], [Fraction(-2, 3)]])),
    "gw-rank2-dimv1": lambda: GeneralizedWitt(Pairing([[1, Fraction(1, 2)]])),
    "gw-rank2-dimv2": gw_spec,
    "gw-rank2-dimv3": lambda: GeneralizedWitt(Pairing([[1, 0], [0, 1], [1, 1]])),
    "block-g0": b0_spec,
    "block-gh": b1_spec,
    "corrupted-block": corrupted_block,
    "witt": witt_spec,
    "non-anticommutative": non_anticommutative_block,
    "rational-raw-block": rational_raw_block,
}


# at radius 2 the oracle would bracket the 75 labels of dim V = 3 afresh: too slow
LIE_ORACLE_CASES = [(name, radius) for radius in (1, 2) for name in sorted(LIE_ORACLE_SPECS)
                    if (name, radius) != ("gw-rank2-dimv3", 2)]


@pytest.mark.parametrize("name, radius", LIE_ORACLE_CASES)
def test_lie_scan_matches_the_element_oracle(name, radius):
    spec = LIE_ORACLE_SPECS[name]()
    window = Window(radius, radius - 1)
    assert verify_lie_axioms(spec, window) == element_lie(spec, window)


def test_corrupted_block_fails_jacobi():
    report = verify_lie_axioms(corrupted_block(), Window(2, 1))
    assert report.anticommutative
    assert not report.jacobi
    labels = report.jacobi_witness[:3]
    assert all(len(l) == 3 for l in labels)


def test_center_predicate_examples():
    assert center_predicate(b0_spec(), (0, 0))
    assert not center_predicate(b0_spec(), (1, 0))
    assert center_predicate(b1_spec(), (0, -1))
    assert not center_predicate(b1_spec(), (1, 0))
    with pytest.raises(FamilyMismatchError):
        center_predicate(witt_spec(), (0,))


def test_square_predicate_examples():
    assert square_predicate(b0_spec(), (2, 1))
    assert not square_predicate(b0_spec(), (0, 0))
    assert not square_predicate(b1_spec(), (0, -2))
    assert square_predicate(b1_spec(), (0, 0))


def test_verify_center_and_square():
    w = Window(3, 1)
    for spec in (b1_spec(), b0_spec()):
        center = verify_center(spec, w)
        assert center.passed, center.failures
        square = verify_square(spec, w)
        assert square.passed, square.failures
        for a, (b, coeff) in square.witnesses.items():
            assert coeff != 0
            assert scalar_bracket_coeff(spec, tuple(x - y for x, y in zip(a, b)), b) == coeff


def test_witt_to_witt_type_classical():
    spec = GeneralizedWitt(Pairing([[1]]))
    corr = witt_to_witt_type(spec, window=Window(3, 1))
    assert corr.f.gen_values == (Fraction(1),)
    assert corr.verified
    target = corr.target()
    # relations e_i, e_j -> (j - i) e_{i+j}
    assert _coeff(target, (2,), (5,)) == 3


def test_witt_to_witt_type_scaling():
    spec = GeneralizedWitt(Pairing([[1]]))
    corr = witt_to_witt_type(spec, v=(2,), window=Window(2, 1))
    assert corr.f.gen_values == (Fraction(2),)
    assert corr.verified


def test_witt_to_witt_type_rank_two():
    spec = GeneralizedWitt(Pairing([[1, 0]]))
    corr = witt_to_witt_type(spec, window=Window(2, 1))
    assert corr.f.gen_values == (Fraction(1), Fraction(0))
    assert corr.verified


def test_witt_to_witt_type_requires_dim_one():
    with pytest.raises(FamilyMismatchError):
        witt_to_witt_type(gw_spec(), window=Window(2, 1))


def test_spec_json_round_trip():
    from tpw.algebra import spec_from_json, spec_to_json

    specs = [gw_spec(), b0_spec(), b1_spec(), witt_spec(), corrupted_block()]
    for spec in specs:
        data = spec_to_json(spec)
        back = spec_from_json(data)
        assert spec_to_json(back) == data
        assert back.family == spec.family
    # a (g, h) presentation keeps enough to rebuild the bracket
    b = spec_from_json(spec_to_json(b1_spec()))
    assert _coeff(b, (1, 0), (0, 1)) == -2


_RATIONAL = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))  # zeros too


def _points(rank):
    return st.tuples(*[st.integers(-2, 2)] * rank)


@st.composite
def family_elements(draw):
    """A spec of each family, rank 1-2 (generalized Witt with dim V 1-3),
    and a sum of up to three drawn terms, any coordinate possibly zero."""
    rank = draw(st.integers(1, 2))
    family = draw(st.sampled_from(["generalized_witt", "witt_type", "block"]))
    if family == "generalized_witt":
        dim_v = draw(st.integers(1, 3))
        spec = GeneralizedWitt(Pairing([[1] * rank] * dim_v))
        terms = [spec.element(draw(_points(rank)), draw(st.lists(_RATIONAL, min_size=dim_v,
                                                                 max_size=dim_v)))
                 for _ in range(draw(st.integers(0, 3)))]
    else:
        spec = (WittType(AdditiveMap([1] * rank)) if family == "witt_type"
                else Block.with_form(BiadditiveForm([[0] * rank] * rank)))
        terms = [Element({draw(_points(rank)): draw(_RATIONAL)})
                 for _ in range(draw(st.integers(0, 3)))]
    return spec, sum(terms, Element())


@settings(max_examples=60, deadline=None)
@given(case=family_elements())
def test_element_json_round_trip(case):
    from tpw.algebra import element_from_json, element_to_json

    spec, el = case
    back = element_from_json(element_to_json(el, spec), spec)
    assert back == el
    assert all(type(c) is Fraction for x in (el, back) for c in x.terms.values())


@st.composite
def tensor_pairs(draw):
    """A rational pairing, rank 1-2 and dim V 1-3, and two tensors a (x) v, b (x) w."""
    rank, dim_v = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    spec = GeneralizedWitt(Pairing(draw(st.lists(
        st.lists(_RATIONAL, min_size=rank, max_size=rank), min_size=dim_v, max_size=dim_v))))
    vectors = st.lists(_RATIONAL, min_size=dim_v, max_size=dim_v)
    return spec, draw(_points(rank)), draw(vectors), draw(_points(rank)), draw(vectors)


@settings(max_examples=60, deadline=None)
@given(case=tensor_pairs())
def test_generalized_witt_bracket_follows_the_pairing(case):
    """[a (x) v, b (x) w] = (<v, b> w - <w, a> v) at a + b, by ``Pairing.__call__``."""
    spec, a, v, b, w = case
    vb, wa = spec.pairing(v, b), spec.pairing(w, a)
    expected = spec.element(tuple(s + t for s, t in zip(a, b)),
                            [vb * wl - wa * vl for vl, wl in zip(v, w)])
    assert spec.bracket(spec.element(a, v), spec.element(b, w)) == expected
