"""Tests for the lattice group and its scalar structure data."""

import random
from fractions import Fraction

import pytest

from tpw.lattice import (
    AdditiveMap,
    BiadditiveForm,
    Pairing,
    RankMismatchError,
    Window,
    add,
    box_points,
    form_from_gh,
    nondegeneracy_witnesses,
    search_order,
)


B1_FORM = BiadditiveForm([[0, -1], [1, 0]])  # f((m,i),(n,j)) = ni - mj


def test_eval_additive_examples():
    g = AdditiveMap([-1, 0])
    assert g((3, 5)) == -3
    assert g((0, 0)) == 0
    h = AdditiveMap([0, 1])
    assert h((2, -7)) == -7


def test_additive_map_rank_mismatch():
    with pytest.raises(RankMismatchError):
        AdditiveMap([1, 2])((1, 2, 3))


def test_additive_map_respects_addition():
    rng = random.Random(5)
    phi = AdditiveMap([Fraction(1, 2), Fraction(-3)])
    pts = box_points(5, 2)
    for _ in range(100):
        a = rng.choice(pts)
        b = rng.choice(pts)
        assert phi(add(a, b)) == phi(a) + phi(b)
        assert phi(tuple(-x for x in a)) == -phi(a)


def test_eval_form_examples():
    assert B1_FORM((1, 0), (0, 1)) == -1
    assert B1_FORM((2, 3), (1, -1)) == 1 * 3 - 2 * (-1)
    for a in box_points(3, 2):
        assert B1_FORM(a, a) == 0
        for b in box_points(3, 2):
            assert B1_FORM(a, b) + B1_FORM(b, a) == 0


def test_form_must_be_antisymmetric():
    with pytest.raises(ValueError):
        BiadditiveForm([[0, 1], [1, 0]])


def test_form_from_gh():
    g = AdditiveMap([-1, 0])
    h = AdditiveMap([0, 1])
    f = form_from_gh(g, h)
    assert f.matrix == B1_FORM.matrix
    assert form_from_gh(g, g).is_zero
    f2 = form_from_gh(AdditiveMap([1, 0]), AdditiveMap([1, 1]))
    assert f2((1, 0), (0, 1)) == 1


def test_form_from_gh_pointwise():
    g = AdditiveMap([Fraction(2), Fraction(-1, 3)])
    h = AdditiveMap([Fraction(1, 2), Fraction(5)])
    f = form_from_gh(g, h)
    for a in box_points(3, 2):
        for b in box_points(3, 2):
            assert f(a, b) == g(a) * h(b) - g(b) * h(a)


def test_nondegeneracy_witnesses_b1_form():
    report = nondegeneracy_witnesses(B1_FORM, Window(5, 1))
    assert not report.degenerate_in_window
    a = (5, 0)
    w = report.witnesses[a]
    assert B1_FORM(a, w) != 0
    # the witnesses promised by the specialized formulas
    assert B1_FORM(a, (0, -1)) == 5
    assert B1_FORM((3, 7), (1, 0)) == 7
    assert (0, 0) not in report.witnesses


def test_nondegeneracy_witnesses_zero_form():
    zero_form = BiadditiveForm([[0, 0], [0, 0]])
    report = nondegeneracy_witnesses(zero_form, Window(1))
    assert report.degenerate_in_window
    assert (1, 0) in report.missing


def test_nondegeneracy_witnesses_pairing():
    p = Pairing([[1, 0], [0, 1]])
    report = nondegeneracy_witnesses(p, Window(2, 1))
    assert not report.degenerate_in_window
    for a, v in report.witnesses.items():
        assert p(v, a) != 0
    degenerate = Pairing([[1, 0], [0, 0]])
    report = nondegeneracy_witnesses(degenerate, Window(1))
    assert (0, 1) in report.missing


def test_window_invariants():
    w = Window(3)
    assert w.inner_margin == 2  # ceil(3/2)
    assert Window(4).inner_margin == 2
    assert w.contains((3, -3)) and not w.contains((4, 0))
    assert w.in_inner((2, 2)) and not w.in_inner((3, 0))
    with pytest.raises(ValueError):
        Window(0)
    with pytest.raises(ValueError):
        Window(2, 2)


def test_box_points_sorted_and_complete():
    pts = box_points(1, 2)
    assert pts == sorted(pts)
    assert len(pts) == 9
    assert len(box_points(2, 3)) == 125


def test_search_order_starts_at_origin():
    order = search_order(2, 2)
    assert order[0] == (0, 0)
    assert order[1] == (1, 0)
    assert set(order) == set(box_points(2, 2))
