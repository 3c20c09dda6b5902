"""Verdicts that a change of lattice basis or a rescaling must not move.

A signed permutation P of the lattice coordinates lies in GL_n(Z) and maps
every Box(r) onto itself, so the spec transformed by it (f -> P^T f P,
g -> g o P, h -> h o P, pairing -> pairing . P, Witt f -> f o P) is the
same algebra on the same windows, with u_x in place of u_(Px). Scaling g
with h kept, f where g = 0 or for Witt type, or the pairing, by lambda != 0
scales the bracket, which the Lie axioms, the half-derivation equations
and the commutativity system all ignore. So neither transform may change
the `check-lie` verdict, the `classify-tp` verdicts and parameter count,
or any degree's computed and projected dimension, read at degree P e.

The kernels move with the labels. Pulled back by P, and on generalized
Witt by a signed permutation tau of the V basis as well (row i of the
pairing becomes eps_i times row tau i), the spec's kernel at P^-1 a is the
original kernel at a carried by phi'[P^-1 x] = tau^-1 phi[x] tau, whether
or not P is an automorphism. Where (sigma, tau) is one, the same move
stays inside one spec: the kernel at sigma a is the kernel at a carried by
it, which is how ``solve_degrees`` transports a kernel along an orbit.
The group it reads, certified on the grid, is brute-forced here on Box(3).

A rank-3 raw Block (g, f) is a Lie algebra exactly when g = 0 or
f = g h^T - h g^T for some h; that is decided here by an exact solve, apart
from the Lie scan.
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from itertools import permutations, product as iter_product

from oracles import dense_rref
from tpw.algebra import Block, GeneralizedWitt, WittType, spec_from_json
from tpw.cli import run
from tpw.halfderiv import _transported, assemble, columns_for, solve
from tpw.lattice import AdditiveMap, BiadditiveForm, Pairing, Window, box_points

_RATIONAL = st.fractions(min_value=-3, max_value=3, max_denominator=3)
_NONZERO = _RATIONAL.filter(bool)


def _vector(rank):
    """A nonzero vector of ``rank`` small rationals."""
    return st.lists(_RATIONAL, min_size=rank, max_size=rank).filter(any)


@st.composite
def _form(draw, rank):
    """An antisymmetric rank x rank matrix, not zero."""
    m = [[Fraction(0)] * rank for _ in range(rank)]
    for i in range(rank):
        for j in range(i + 1, rank):
            m[i][j] = draw(_RATIONAL)
            m[j][i] = -m[i][j]
    if not any(map(any, m)):
        m[0][1], m[1][0] = Fraction(1), Fraction(-1)
    return m


def _json(value):
    if isinstance(value, list):
        return [_json(v) for v in value]
    return str(value)


@st.composite
def specs(draw, raw=False):
    """An algebra spec of rank 1 or 2 (Block: 2), or a rank-3 raw Block."""
    if raw:
        return {"family": "block", "raw": True, "g": _json(draw(_vector(3))),
                "f": _json(draw(_form(3)))}
    family = draw(st.sampled_from(["witt_type", "generalized_witt", "block-f", "block-gh"]))
    if family.startswith("block"):
        if family == "block-f":
            return {"family": "block", "f": _json(draw(_form(2)))}
        h = draw(st.lists(st.integers(-3, 1), min_size=2, max_size=2))
        return {"family": "block", "g": _json(draw(_vector(2))), "h": _json(h)}
    rank = draw(st.integers(1, 2))
    if family == "witt_type":
        return {"family": family, "f": _json(draw(_vector(rank)))}
    return {"family": family, "pairing": [_json(draw(_vector(rank)))]}


@st.composite
def transforms(draw, rank):
    """A signed permutation of the coordinates and a scale lambda != 0."""
    perm = draw(st.permutations(range(rank)))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=rank, max_size=rank))
    return perm, signs, draw(_NONZERO)


def _rank(spec):
    data = spec.get("f") or spec.get("pairing") or spec["g"]
    return len(data[0]) if isinstance(data[0], list) else len(data)


def transformed(spec, perm, signs, lam):
    """The spec read in the basis P e_i = signs[i] e_perm[i], scaled by lam."""
    def vec(v, k=1):  # v o P, times k
        return _json([k * signs[i] * Fraction(v[perm[i]]) for i in range(len(v))])

    def mat(m, k=1):  # P^T m P, times k
        return [vec([signs[i] * Fraction(m[perm[i]][j]) for j in range(len(m))], k)
                for i in range(len(m))]
    out = dict(spec)
    if spec["family"] == "witt_type":
        out["f"] = vec(spec["f"], lam)
    elif spec["family"] == "generalized_witt":
        out["pairing"] = [vec(row, lam) for row in spec["pairing"]]
    elif "h" in spec:  # f = g h^T - h g^T scales with g
        out.update(g=vec(spec["g"], lam), h=vec(spec["h"]))
    else:  # g = 0, or a raw (g, f): the bracket scales with both
        out["f"] = mat(spec["f"], lam)
        if "g" in spec:
            out["g"] = vec(spec["g"], lam)
    return out


def _point(x, perm, signs):
    """P x."""
    out = [0] * len(x)
    for i, xi in enumerate(x):
        out[perm[i]] = signs[i] * xi
    return out


def _reports(task, spec, transform, radius, payload=None):
    """The reports of ``task`` on ``spec`` and on its transform."""
    window = {"radius": radius, "inner_margin": radius - 1}
    return [run({"algebra": algebra, "window": window, "task": task,
                 "payload": payload or {}})
            for algebra in (spec, transformed(spec, *transform))]


_CORRUPTED = {"family": "block", "raw": True, "g": ["1", "0", "0"],
              "f": [["0", "0", "0"], ["0", "0", "1"], ["0", "-1", "0"]]}


@settings(max_examples=40, deadline=None)
@example(case=(_CORRUPTED, ([1, 0, 2], [1, -1, 1], Fraction(1))))
@example(case=(_CORRUPTED, ([0, 1, 2], [1, 1, 1], Fraction(-1, 2))))
@given(case=st.booleans().flatmap(lambda raw: specs(raw)).flatmap(
    lambda spec: st.tuples(st.just(spec), transforms(_rank(spec)))))
def test_the_lie_verdict_is_invariant(case):
    """Rank-3 raw Blocks supply the failing cases: every rank-2 raw Block is Lie."""
    spec, transform = case
    before, after = _reports("check-lie", spec, transform, 2)
    assert [before["result"][k] for k in ("anticommutative", "jacobi")] == [
        after["result"][k] for k in ("anticommutative", "jacobi")]


_WITT = {"family": "witt_type", "f": ["1", "2"]}
_B1 = {"family": "block", "g": ["-1", "0"], "h": ["0", "1"]}


@settings(max_examples=40, deadline=None)
@example(case=(_WITT, ([1, 0], [1, 1], Fraction(1))), radius=2)
@example(case=({"family": "witt_type", "f": ["1"]}, ([0], [1], Fraction(1, 2))), radius=2)
@given(case=specs().flatmap(lambda spec: st.tuples(st.just(spec), transforms(_rank(spec)))),
       radius=st.integers(2, 3))
def test_half_derivation_dimensions_are_invariant(case, radius):
    """Degree e of the transform is degree P e of the spec."""
    spec, transform = case
    before, after = _reports("solve-half-derivations", spec, transform, radius,
                             {"degree_bound": 1})
    assert before["verdicts"] == after["verdicts"]
    at = {tuple(d["degree"]): d for d in before["result"]["degrees"]}
    for d in after["result"]["degrees"]:
        e = at[tuple(_point(d["degree"], *transform[:2]))]
        assert (d["computed_dim"], d["projected_dim"]) == (e["computed_dim"],
                                                           e["projected_dim"])


@settings(max_examples=30, deadline=None)
@example(case=(_WITT, ([1, 0], [-1, 1], Fraction(1, 2))), radius=2)
@example(case=(_B1, ([1, 0], [1, -1], Fraction(-2))), radius=3)
@given(case=specs().flatmap(lambda spec: st.tuples(st.just(spec), transforms(_rank(spec)))),
       radius=st.integers(2, 3))
def test_classify_verdicts_are_invariant(case, radius):
    spec, transform = case
    before, after = _reports("classify-tp", spec, transform, radius, {"degree_bound": 1})
    assert before["verdicts"] == after["verdicts"]
    assert before["result"]["n_parameters"] == after["result"]["n_parameters"]


_DEGENERATE_BLOCK = {"family": "block", "g": ["1", "0"], "h": ["-1", "0"]}


def _grown(task, spec, windows):
    """The reports of ``task`` at degree bound 1 on each ``(radius, inner_margin)``."""
    return [run({"algebra": spec, "window": {"radius": r, "inner_margin": m},
                 "task": task, "payload": {"degree_bound": 1}}) for r, m in windows]


@settings(max_examples=12, deadline=None)
@example(spec={"family": "generalized_witt", "pairing": [["1", "0"], ["0", "1"]]})
@example(spec={"family": "generalized_witt", "pairing": [["1", "2"]]})
@example(spec={"family": "generalized_witt", "pairing": [["1", "1"], ["1", "1"]]})
@example(spec={"family": "block", "f": [["0", "-1"], ["1", "0"]]})
@example(spec=_B1)
@example(spec=_DEGENERATE_BLOCK)
@example(spec=_WITT)
@example(spec={"family": "witt_type", "f": ["1"]})
@given(spec=specs())
def test_projected_dimensions_do_not_depend_on_the_window(spec):
    """Growing the window around a fixed inner box moves only the boundary,
    which the inner projection leaves out."""
    reports = _grown("solve-half-derivations", spec, [(2, 1), (3, 1), (4, 1)])
    dims = [{tuple(d["degree"]): d["projected_dim"] for d in report["result"]["degrees"]}
            for report in reports]
    assert dims[0] == dims[1] == dims[2]


@st.composite
def _degenerate_blocks(draw):
    """A Block from (g, h) with h parallel to g, so that f = 0."""
    g, k = draw(_vector(2)), draw(_RATIONAL)
    return {"family": "block", "g": _json(g), "h": _json([k * x for x in g])}


@settings(max_examples=5, deadline=None)
@example(spec=_DEGENERATE_BLOCK)
@example(spec={"family": "block", "g": ["1", "0"], "h": ["0", "0"]})
@example(spec={"family": "block", "g": ["1", "1"], "h": ["2", "2"]})
@given(spec=_degenerate_blocks())
def test_classify_asserts_nothing_on_a_degenerate_block(spec):
    """The sweep reports dimensions only, so the family's associativity, read
    off a boundary-affected inner box, is unasserted on every window."""
    for report in _grown("classify-tp", spec, [(2, 1), (3, 1), (4, 1), (3, 2)]):
        assert report["result"]["sweep_verdict"] == "dimension report only (degenerate form f)"
        assert report["verdicts"][1] == {"name": "classify-associativity", "pass": None}
        assert report["all_pass"]


def _has_gh_form(g, f):
    """Whether f = g h^T - h g^T for some rational h, by one exact solve."""
    n = len(g)
    # the (i, j) entry, i < j: sum_k (g_i [k = j] - g_j [k = i]) h_k = f_ij
    rows = [[g[i] * (k == j) - g[j] * (k == i) for k in range(n)] + [f[i][j]]
            for i in range(n) for j in range(i + 1, n)]
    return n not in dense_rref(rows)[1]


@st.composite
def _raw_block(draw):
    """Rank-3 (g, f), g zero or not, f any form or one of the (g, h) form."""
    g = draw(_vector(3)) if draw(st.integers(0, 3)) else [Fraction(0)] * 3
    if draw(st.booleans()):
        return g, draw(_form(3))
    h = draw(_vector(3))
    return g, [[g[i] * h[j] - h[i] * g[j] for j in range(3)] for i in range(3)]


@settings(max_examples=25, deadline=None)
@given(case=_raw_block())
def test_a_raw_block_is_lie_exactly_when_f_has_the_gh_form(case):
    g, f = case
    spec = {"family": "block", "raw": True, "g": _json(g), "f": _json(f)}
    report = run({"algebra": spec, "window": {"radius": 2, "inner_margin": 1},
                  "task": "check-lie"})
    assert report["all_pass"] == (not any(g) or _has_gh_form(g, f))


@st.composite
def _symmetric_specs(draw):
    """Witt type, generalized Witt (rank 1 or 2) and Block g = 0: each has
    the point reflection e_(x,i) -> s e_(-x,i) as an automorphism."""
    spec = draw(specs().filter(lambda spec: "h" not in spec))
    return spec_from_json(spec)


def _carried(spec, window, vectors, g, tau):
    """The vectors with phi'[g x, tau r, tau c] = eps_r eps_c phi[x, r, c], for
    g and tau given as (perm, signs), in canonical form: the reduced echelon
    with each lead at its largest column, by lead."""
    cols = columns_for(spec, window)
    at, (perm, signs) = {col: n for n, col in enumerate(cols)}, tau
    moves = [(at[tuple(_point(x, *g)), perm[r], perm[c]], signs[r] * signs[c])
             for x, r, c in cols]
    moved = []
    for v in vectors:
        row = [Fraction(0)] * len(cols)
        for (n, sign), value in zip(moves, v):
            row[n] = sign * value
        moved.append(row[::-1])  # columns reversed
    rref, pivots = dense_rref(moved) if moved else ([], [])
    return tuple(tuple(row[::-1]) for row in reversed(rref[:len(pivots)]))


def _neg(x):
    return tuple(-c for c in x)


def _inverse(perm, signs):
    """P^-1 for P e_i = signs[i] e_perm[i]."""
    inv_perm, inv_signs = [0] * len(perm), [0] * len(perm)
    for i, (k, s) in enumerate(zip(perm, signs)):
        inv_perm[k], inv_signs[k] = i, s
    return inv_perm, inv_signs


@settings(max_examples=20, deadline=None)
@example(spec=spec_from_json({"family": "generalized_witt", "pairing": [["1"], ["2"]]}),
         delta=Fraction(1, 2))
@given(spec=_symmetric_specs(),
       delta=st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(2, 3)]))
def test_the_kernel_at_minus_a_is_the_reflected_kernel_at_a(spec, delta):
    """Each degree solved on its own, apart from ``solve_degrees``."""
    window = Window(2, 1)
    minus, fixed = (range(spec.rank), [-1] * spec.rank), (range(spec.dim_v), [1] * spec.dim_v)
    for a in box_points(1, spec.rank):
        kernel = solve(assemble(spec, a, window, delta=delta))
        mirrored = solve(assemble(spec, _neg(a), window, delta=delta))
        assert mirrored.vectors == _carried(spec, window, kernel.vectors, minus, fixed), a


@st.composite
def _relabelings(draw):
    """A spec of ``specs()`` or a generalized Witt one with dim V = 2, a
    transform of the lattice and a signed permutation of the V basis."""
    if draw(st.booleans()):
        spec = draw(specs())
    else:
        rank = draw(st.integers(1, 2))
        spec = {"family": "generalized_witt",
                "pairing": [_json(draw(_vector(rank))) for _ in range(2)]}
    dv = len(spec.get("pairing", [()]))
    tau = (draw(st.permutations(range(dv))),
           draw(st.lists(st.sampled_from([1, -1]), min_size=dv, max_size=dv)))
    return spec, draw(transforms(_rank(spec))), tau


@settings(max_examples=12, deadline=None)
@example(case=({"family": "generalized_witt", "pairing": [["0", "1"], ["1", "0"]]},
               ([0, 1], [-1, 1], Fraction(1)), ([1, 0], [1, -1])),
         delta=Fraction(1))
@example(case=(_B1, ([1, 0], [1, -1], Fraction(2)), ([0], [1])), delta=Fraction(1))
@given(case=_relabelings(),
       delta=st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(2, 3)]))
def test_a_relabeled_spec_has_the_carried_kernels(case, delta):
    """The pulled-back spec solved at P^-1 a equals the kernel at a carried
    by (P^-1, tau^-1), through ``_transported`` and through the dense
    oracle; no group is read."""
    spec, (perm, signs, lam), (tperm, tsigns) = case
    pulled = transformed(spec, perm, signs, lam)
    if "pairing" in spec:
        pulled["pairing"] = [_json([e * Fraction(v) for v in pulled["pairing"][k]])
                             for k, e in zip(tperm, tsigns)]
    original, pulled = spec_from_json(spec), spec_from_json(pulled)
    back, tau_back = _inverse(perm, signs), _inverse(tperm, tsigns)
    element = (tuple(zip(*back)), tuple(zip(*tau_back)), 1)
    window = Window(2, 1)
    for a in box_points(1, original.rank):
        kernel = solve(assemble(original, a, window, delta=delta))
        carried = solve(assemble(pulled, tuple(_point(a, *back)), window, delta=delta))
        assert carried == _transported(pulled, window, kernel, element), a
        assert carried.vectors == _carried(pulled, window, kernel.vectors, back, tau_back), a


def _signed_perms(n):
    return [(perm, signs) for perm in permutations(range(n))
            for signs in iter_product((1, -1), repeat=n)]


def _keeps_brackets(spec, labels, brackets, g, tau, s):
    """Whether theta(e_(x,i)) = s eps_i e_(g x, tau i) keeps every bracket of
    ``brackets``, a map (u, v) -> {label: coefficient} of [e_u, e_v] for u, v
    in ``labels``."""
    def image(label):  # theta(e_label) / s, as (label, sign)
        if spec.vectorial:
            (x, i) = label
            return (tuple(_point(x, *g)), tau[0][i]), tau[1][i]
        return tuple(_point(label, *g)), 1
    images = {u: image(u) for u in labels}
    for (u, v), terms in brackets.items():
        (mu, su), (mv, sv) = images[u], images[v]
        moved = {}
        for l, c in terms.items():
            ml, sl = images[l] if l in images else images.setdefault(l, image(l))
            moved[ml] = s * sl * c
        if {l: su * sv * c for l, c in brackets[mu, mv].items()} != moved:
            return False
    return True


@st.composite
def _group_specs(draw):
    """Raw Blocks of rank 2 (g or f may be zero) and 3 (neither is), Witt
    types of rank 1 and 2 and rank-2 pairings with dim V = 2, whose rows
    may repeat, vanish or swap coordinates. A rank-3 spec with a large group
    (Block g = 0, Witt type) would cost seconds at Box(3)."""
    kind = draw(st.sampled_from(["raw-2", "raw-3", "witt", "gw"]))
    if kind.startswith("raw"):
        rank = int(kind[-1])
        zero = draw(st.sampled_from(["g", "f", None])) if rank == 2 else None
        g = [0] * rank if zero == "g" else draw(_vector(rank))
        f = [[0] * rank] * rank if zero == "f" else draw(_form(rank))
        return Block.raw_form(AdditiveMap(g), BiadditiveForm(f))
    if kind == "witt":
        return WittType(AdditiveMap(draw(_vector(draw(st.integers(1, 2))))))
    entry = st.sampled_from([-1, 0, 1, 2])
    return GeneralizedWitt(Pairing([[draw(entry) for _ in range(2)] for _ in range(2)]))


@settings(max_examples=12, deadline=None)
@example(spec=GeneralizedWitt(Pairing([[0, 1], [1, 0]])))
@example(spec=GeneralizedWitt(Pairing([[1, 1], [1, 1]])))
@given(spec=_group_specs())
def test_the_certified_group_on_the_grid_holds_on_box_3(spec):
    """``spec.automorphisms`` reads the grid; on every pair of labels of
    Box(3), its sigma are exactly those with some (tau, s) that keeps the
    bracket, and each of its (sigma, tau, s) keeps it."""
    labels = spec.basis_labels(box_points(3, spec.rank))
    brackets = {(u, v): dict(spec.label_bracket(u, v)) for u in labels for v in labels}
    identity, *others = _signed_perms(spec.rank)  # the identity keeps every bracket
    group = {tuple(zip(*g)) for g in [identity] + [
        g for g in others if any(_keeps_brackets(spec, labels, brackets, g, tau, s)
                                 for tau in _signed_perms(spec.dim_v) for s in (1, -1))]}
    first, *rest = spec.automorphisms
    assert first == (tuple(zip(*identity)), tuple(zip(*_signed_perms(spec.dim_v)[0])), 1)
    assert {sigma for sigma, _, _ in spec.automorphisms} == group
    for sigma, tau, s in rest:
        assert _keeps_brackets(spec, labels, brackets, tuple(zip(*sigma)), tuple(zip(*tau)), s)
