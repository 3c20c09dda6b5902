"""Commutative product candidates on the graded algebras.

Construction of the classified product families, exact verification of
the compatibility identities on windows, decomposition of left
multiplications into graded components, and a window classifier that
recovers the product family from a computed space of scaled derivations.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .exactlin import int_row, kernel_of
from .algebra import (
    Element,
    FamilyMismatchError,
    LimitExceededError,
    center_predicate,
    element_from_json,
    element_to_json,
    index_from_json,
    scan_identities,
    square_predicate,
    _PASS,
    _Scan,
    _both_sides,
    _check_labels,
    _check_points,
    _common_denominator,
    _compose,
    _element,
)
from .halfderiv import MissingDegreeError, inner_projection
from .lattice import Window, add, box_points, search_order, sub

__all__ = [
    "ClassifyResult",
    "ExplicitProduct",
    "ExtensionByZero",
    "IdentityCheck",
    "LimitExceededError",
    "Mutation",
    "SingleIdempotent",
    "VerificationReport",
    "ZeroProduct",
    "classify",
    "left_mult_table",
    "multiply",
    "product_from_json",
    "product_to_json",
    "verify",
]


class _Product:
    """A commutative product given by its basis rule.

    ``basis_product(spec, u, v)`` maps the basis labels of ``spec`` to the
    nonzero coefficients of u . v for basis labels u and v; every rule
    lives where each lattice point has one label (dim V = 1 for
    generalized Witt), and reads and moves points through ``spec``.
    ``check_domain(spec)`` raises ``FamilyMismatchError`` or
    ``ValueError`` unless the rule is defined on ``spec``; every entry
    point runs it before reading the rule. ``coefficients()`` gives the
    numbers in the rule's data, whose common denominator clears every
    coefficient the rule returns.

    Each rule also says where ``verify`` may skip work: ``support(rank)``
    is the finite set of unordered index pairs {a, b} whose product can be
    nonzero, or None when the rule has infinite support and declares
    instead ``coefficient_degree``, the degree of its coefficients in each
    lattice coordinate of a and b at the shifted indices they land on.
    """

    coefficient_degree = None
    json_key = None  # the JSON key of the rule's data, beside "variant"

    def check_domain(self, spec):
        pass

    def coefficients(self):
        return ()

    def support(self, rank):
        return None

    def to_json(self, spec) -> dict:
        return {"variant": self.variant}

    @classmethod
    def from_json(cls, data: dict, spec):
        return cls()


class ZeroProduct(_Product):
    """The trivial structure: every product is zero."""

    variant = "zero"

    def basis_product(self, spec, u, v):
        return {}

    def support(self, rank):
        return frozenset()


class Mutation(_Product):
    """Group-algebra product twisted by a fixed multiplier element.

    On a rank-one-coefficient family the product of basis elements at a
    and b is the multiplier shifted to a + b. Only finitely supported
    multipliers are accepted; completions are out of scope.
    """

    variant = "mutation"
    json_key = "w"
    coefficient_degree = 0  # u_a . u_b = sum_c w_c u_(a+b+c)

    def __init__(self, w: Element):
        self.w = w

    def check_domain(self, spec):
        if spec.family == "block" or spec.dim_v != 1:
            raise FamilyMismatchError("mutations live on Witt type and on generalized "
                                      "Witt with dim V = 1")
        _check_labels(spec, self.w.terms, "multiplier")

    def coefficients(self):
        return self.w.terms.values()

    def basis_product(self, spec, u, v):
        d = add(spec.point(u), spec.point(v))
        return {spec.shift(l, d): c for l, c in self.w.terms.items()}

    def to_json(self, spec) -> dict:
        return {"variant": self.variant, self.json_key: element_to_json(self.w, spec)}

    @classmethod
    def from_json(cls, data: dict, spec):
        return cls(element_from_json(data[cls.json_key], spec))


class SingleIdempotent(_Product):
    """u_0 . u_0 = u_0 and all other basis products zero."""

    variant = "single_idempotent"

    def check_domain(self, spec):
        if spec.family != "block" or not spec.g_is_zero:
            raise FamilyMismatchError("single idempotent product needs Block with g = 0")

    def basis_product(self, spec, u, v):  # Block: labels are points
        return {u: Fraction(1)} if u == v and not any(u) else {}

    def support(self, rank):
        origin = (0,) * rank
        return frozenset([(origin, origin)])


class ExplicitProduct(_Product):
    """Symmetric structure-constant table: u_a . u_b = table[{a, b}].

    Keys are unordered pairs of lattice points; values are elements. Pairs
    missing from the table multiply to zero. Defined on the scalar
    families and on generalized Witt with dim V = 1, with values over the
    family's basis labels.
    """

    variant = "explicit"
    json_key = "table"

    def __init__(self, table: dict):
        entries = {}
        for (a, b), value in table.items():
            key = _pair_key(tuple(a), tuple(b))
            if key in entries and entries[key] != value:
                raise ValueError("conflicting table entries for %s" % (key,))
            entries[key] = value
        self.table = {key: value for key, value in entries.items() if not value.is_zero}

    def check_domain(self, spec):
        if spec.dim_v != 1:
            raise FamilyMismatchError("table products need a rank-one coefficient family")
        for (a, b), value in self.table.items():
            _check_points(spec, (a, b), "table index")
            _check_labels(spec, value.terms, "table value at %s:" % ((a, b),))

    def coefficients(self):
        return [c for value in self.table.values() for c in value.terms.values()]

    def basis_product(self, spec, u, v):
        value = self.table.get(_pair_key(spec.point(u), spec.point(v)))
        return {} if value is None else value.terms

    def support(self, rank):
        return frozenset(self.table)

    def to_json(self, spec) -> dict:
        return {"variant": self.variant, self.json_key: [
            {"a": list(a), "b": list(b), "value": element_to_json(v, spec)}
            for (a, b), v in sorted(self.table.items())]}

    @classmethod
    def from_json(cls, data: dict, spec):
        items = data[cls.json_key]
        if not isinstance(items, list):
            raise ValueError("%r is a list of table items, not %r" % (cls.json_key, items))
        for item in items:
            if not isinstance(item, dict) or set(item) != {"a", "b", "value"}:
                raise ValueError("a %r item has the keys {a, b, value}: %r"
                                 % (cls.json_key, item))
        return cls({(index_from_json(item["a"], spec), index_from_json(item["b"], spec)):
                    element_from_json(item["value"], spec) for item in items})


class ExtensionByZero(ExplicitProduct):
    """Star table on the complement of the square, valued in the center.

    A table product defined only on Block with g != 0, and only when every
    star index lies outside the square and every value in the center.
    """

    variant = "extension_by_zero"
    json_key = "star"

    def check_domain(self, spec):
        if spec.family != "block" or spec.g_is_zero:
            raise FamilyMismatchError("extension by zero needs Block with g != 0")
        super().check_domain(spec)
        for (a, b), value in self.table.items():
            for key in (a, b):
                if square_predicate(spec, key):
                    raise ValueError(
                        "star index %s is not in the complement of the square" % (key,))
            for idx in value.terms:
                if not center_predicate(spec, idx):
                    raise ValueError("star value at %s leaves the center" % (idx,))


_VARIANTS = {cls.variant: cls for cls in (ZeroProduct, Mutation, SingleIdempotent,
                                          ExplicitProduct, ExtensionByZero)}


def _pair_key(a, b):
    return (a, b) if a <= b else (b, a)


def multiply(spec, product, x: Element, y: Element) -> Element:
    """Bilinear symmetric extension of the product's basis rule.

    Checks first that ``product`` is defined on ``spec``; the product
    remembers the last spec that passed, so repeated calls check it once.
    """
    last = getattr(product, "_checked", None)
    if last is None or last[0] is not spec:
        last = product._checked = (spec, _CheckedProduct(spec, product))
    return last[1](x, y)


class _CheckedProduct:
    """A product on a spec, its domain checked once, as a bilinear map.

    ``scale`` is the common denominator of the coefficients the rule can
    return, so ``label_product`` gives u . v for labels u and v as integer
    ``(label, numerator)`` terms over it, computed once per pair of labels.
    """

    def __init__(self, spec, product):
        product.check_domain(spec)
        self.spec = spec
        self.rule = product.basis_product
        self.scale = _common_denominator(product.coefficients())
        self._products = {}

    def label_product(self, u, v):
        row = self._products.get(u)
        if row is None:
            row = self._products[u] = {}
        terms = row.get(v)
        if terms is None:
            scale = self.scale
            terms = row[v] = tuple((l, c.numerator * (scale // c.denominator))
                                   for l, c in self.rule(self.spec, u, v).items())
        return terms

    def __call__(self, x: Element, y: Element) -> Element:
        xs, ys = x.terms, y.terms
        if not (xs and ys):
            return Element()
        rule, spec = self.rule, self.spec
        acc = {}
        for u, xu in xs.items():
            for v, yv in ys.items():
                uv = rule(spec, u, v)
                if uv:
                    k = xu * yv
                    for l, c in uv.items():
                        acc[l] = acc.get(l, 0) + k * c
        return _element({l: c for l, c in acc.items() if c})


class IdentityCheck:
    """The first witness tuple with both evaluated sides; None when passing."""

    def __init__(self, witness: tuple):
        self.witness = witness

    def __eq__(self, other):
        return isinstance(other, IdentityCheck) and self.witness == other.witness

    @property
    def passed(self) -> bool:
        return self.witness is None


class VerificationReport:
    """The four identities; ``visited``, the tuples evaluated, is outside equality."""

    def __init__(self, commutative: IdentityCheck, associative: IdentityCheck,
                 trans_leibniz: IdentityCheck, poisson_leibniz: IdentityCheck,
                 n_triples: int, visited: int):
        self.commutative, self.associative = commutative, associative
        self.trans_leibniz, self.poisson_leibniz = trans_leibniz, poisson_leibniz
        self.n_triples, self.visited = n_triples, visited

    def __eq__(self, other):
        return isinstance(other, VerificationReport) and (
            dict(vars(self), visited=None) == dict(vars(other), visited=None))

    @property
    def tp_pass(self) -> bool:
        """The transposed Poisson axioms: commutative, associative, compatible."""
        return (self.commutative.passed and self.associative.passed
                and self.trans_leibniz.passed)

    @property
    def all_pass(self) -> bool:
        return self.tp_pass and self.poisson_leibniz.passed


def _commutative(s, i, j):
    """u . v = v . u, on numerators over the product's scale ps."""
    mul, u, v = s.product.label_product, s.labels[i], s.labels[j]
    return _both_sides(dict(mul(u, v)), dict(mul(v, u)), s.product.scale)


def _associative(s, i, j, k):
    """(u . v) . w = u . (v . w), on numerators over ps^2."""
    mul, u, v, w = s.product.label_product, s.labels[i], s.labels[j], s.labels[k]
    return _both_sides(_compose({}, mul(u, v), lambda l: mul(l, w)),
                       _compose({}, mul(v, w), lambda l: mul(u, l)), s.product.scale ** 2)


def _leibniz_terms(s, i, j, k):
    """u . [v, w] and [u . v, w] on numerators over ps bs, bs the bracket's
    scale: both Leibniz rules read them."""
    mul, br = s.product.label_product, s.label_bracket
    u, v, w = s.labels[i], s.labels[j], s.labels[k]
    return (_compose({}, br(v, w), lambda l: mul(u, l)),
            _compose({}, mul(u, v), lambda l: br(l, w)))


def _trans_leibniz(s, i, j, k):
    """2 u . [v, w] = [u . v, w] + [v, u . w], on numerators over ps bs."""
    u_vw, uv_w = s.shared((i, j, k), _leibniz_terms)
    u, v, w = s.labels[i], s.labels[j], s.labels[k]
    rhs = _compose(dict(uv_w), s.product.label_product(u, w), lambda l: s.label_bracket(v, l))
    return _both_sides({l: 2 * c for l, c in u_vw.items()}, rhs, s.product.scale * s.scale)


def _poisson_leibniz(s, i, j, k):
    """[u . v, w] = u . [v, w] + [u, w] . v, on numerators over ps bs."""
    u_vw, uv_w = s.shared((i, j, k), _leibniz_terms)
    u, v, w = s.labels[i], s.labels[j], s.labels[k]
    rhs = _compose(dict(u_vw), s.label_bracket(u, w), lambda l: s.product.label_product(l, v))
    return _both_sides(uv_w, rhs, s.product.scale * s.scale)


_TRIPLE_IDENTITIES = {"associative": _associative, "trans_leibniz": _trans_leibniz,
                      "poisson_leibniz": _poisson_leibniz}
_IDENTITIES = ((2, {"commutative": _commutative}), (3, _TRIPLE_IDENTITIES))


def verify(spec, product, window: Window, max_triples=None) -> VerificationReport:
    """Check the four identities on all basis tuples of the window.

    Tuples are scanned shell by shell from the origin, so the reported
    witness of a failure is the first one in that canonical order.
    Commutativity runs over pairs; associativity, the compatibility
    identity 2 z . [x, y] = [z . x, y] + [x, z . y], and the ordinary
    Poisson rule [x . y, z] = x . [y, z] + [x, z] . y run over triples.
    ``n_triples`` is where a joint triple scan stops: at the last of the
    three first witnesses, or after every triple when one identity holds.

    Each identity adds the integer numerators of its two sides over one
    scale, built from the product's scale ps and the bracket's scale bs:
    ps for commutativity, ps^2 for associativity, ps bs for both Leibniz
    rules. A witness's sides become ``Fraction`` elements only once the
    tuple fails.

    ``scan_identities`` evaluates only tuples that can fail. A product of
    finite ``support`` makes u . v vanish unless {u, v} is a support pair,
    so only ``_support_tuples`` can. A rule of per-coordinate
    ``coefficient_degree`` p, with the family's bracket of degree d, leaves
    residual coefficients of per-coordinate degree at most p + max(p, d),
    certified on a grid. ``max_triples`` caps the tuples each stage
    evaluates and selects none of them.
    """
    scan = _Scan(spec, search_order(window.radius, spec.rank), _CheckedProduct(spec, product))
    p = product.coefficient_degree
    found = scan_identities(
        scan, _IDENTITIES, ordered=True, max_triples=max_triples,
        tuples=_support_tuples(scan.points, product.support(spec.rank)),
        degree=p if p is None else p + max(p, spec.coefficient_degree))

    checks = {name: IdentityCheck(w) for name, (_, w) in found.items()}
    n_triples = max(found[name][0] for name in _TRIPLE_IDENTITIES)
    return VerificationReport(**checks, n_triples=n_triples, visited=scan.visited)


def _support_tuples(points, support):
    """The index pairs and triples of the labels at ``points`` that meet
    ``support``, sorted.

    A pair (u, v) meets it when {u, v} is a support pair; a triple
    (u, v, w) when {u, v}, {v, w}, {u, w}, {u, v + w} or {u + w, v} is one,
    the indices of u . v, v . w, u . w, u . [v, w] and [u, w] . v. Sorted
    tuples come in the scan's nested order; None for a ``support`` of None.
    """
    if support is None:
        return None
    n, at = len(points), _positions(points)
    pairs = _support_pairs(at, support)
    triples = _associator_triples(pairs, n)  # u . v and v . w
    triples.update((i, k, j) for i, j in pairs for k in range(n))  # u . w
    for p, q in _oriented(support):
        for i in at.get(p, ()):  # u . [v, w]
            triples.update((i, j, k) for j in range(n)
                           for k in at.get(sub(q, points[j]), ()))
        for j in at.get(q, ()):  # [u, w] . v
            triples.update((i, j, k) for k in range(n)
                           for i in at.get(sub(p, points[k]), ()))
    return [sorted(pairs), sorted(triples)]


def _associator_triples(pairs, n):
    """The index triples (u, v, w) of ``n`` labels that have (u, v) or
    (v, w) in ``pairs``, the index pairs of ``_support_pairs``, as a set."""
    return {t for i, j in pairs for k in range(n) for t in ((i, j, k), (k, i, j))}


def _positions(points):
    """Each lattice point's positions in ``points``."""
    at = {}
    for i, p in enumerate(points):
        at.setdefault(p, []).append(i)
    return at


def _oriented(support):
    """Each support pair {a, b} as (a, b) and as (b, a)."""
    return [pq for a, b in support for pq in ((a, b), (b, a))]


def _support_pairs(at, support):
    """The index pairs (u, v) whose points, by ``at``, form a support pair."""
    return {(i, j) for p, q in _oriented(support)
            for i in at.get(p, ()) for j in at.get(q, ())}


def left_mult_table(spec, product, z, window: Window) -> dict:
    """Graded components of x -> u_z . x over the window's box.

    Returns a map degree -> component table ``{x: ((c,),)}``, the 1 x 1
    block of the one label at each point (every product rule lives where
    dim V = 1), ready for ``halfderiv.component_vector`` and membership in
    the assembled per-degree solution spaces.
    """
    product.check_domain(spec)
    z = tuple(z)
    _check_points(spec, [z], "left factor index")
    (u,), box = spec.basis_labels([z]), box_points(window.radius, spec.rank)
    tables = {}
    for x, v in zip(box, spec.basis_labels(box)):  # one label per point
        for l, c in product.basis_product(spec, u, v).items():
            tables.setdefault(sub(spec.point(l), x), {})[x] = ((c,),)
    return dict(sorted(tables.items()))


class ClassifyParameter:
    def __init__(self, name: str, left_index: tuple, degree: tuple, basis_position: int):
        self.name, self.left_index = name, left_index
        self.degree, self.basis_position = degree, basis_position


class ClassifyResult:
    """Solution family of the windowed commutativity system.

    One generator product table per free parameter; the family is the
    rational span of the generators. ``associativity_pass`` is exact:
    every product of the family is associative on the inner triples.
    ``associativity_samples`` reports, for each seeded random parameter
    value, its verdict and first failing triple.
    """

    def __init__(self, parameters: tuple, generators: tuple,
                 associativity_samples: tuple, associativity_pass: bool, seed: int):
        self.parameters, self.generators = parameters, generators
        self.associativity_samples = associativity_samples
        self.associativity_pass, self.seed = associativity_pass, seed

    @property
    def n_parameters(self) -> int:
        return len(self.generators)


def _action_tables(spec, delta_bases, window, degree_bound):
    """Each degree's inner-box basis maps as ``{inner label: image terms}``.

    Returns ``(degree, index, action)`` per map of the canonical basis of
    each solved space restricted to inner-box table indices, in degree
    order; ``action[l]`` maps each image index of u_l to its coefficient.
    Column (x, r, c) sends the c-th label at x to the r-th label at e + x.
    """
    maps = []
    for e in box_points(degree_bound, spec.rank):
        e = tuple(e)
        if e not in delta_bases:
            raise MissingDegreeError("no solved degree %s" % (e,))
        keys, _, space = inner_projection(spec, window, delta_bases[e].int_vectors)
        for k, row in enumerate(space.reduced()):
            lead = row[min(row)]
            action = {}
            for p, val in row.items():
                x, r, c = keys[p]
                label, out = spec.basis_labels([x])[c], spec.basis_labels([add(e, x)])[r]
                action.setdefault(label, {})[out] = Fraction(val, lead)
            maps.append((e, k, action))
    return maps


def classify(spec, delta_bases: dict, window: Window, degree_bound: int,
             n_samples: int = 5, seed: int = 0, max_triples=None) -> ClassifyResult:
    """Recover the commutative product family from solved derivation spaces.

    Each left multiplication by a basis element of the inner box is an
    unknown combination of the per-degree solution bases (multiplication
    by any element of a transposed Poisson structure is a half-derivation).
    Commutativity of the product becomes a homogeneous linear system in
    those coefficients, whose rows go to ``kernel_of``; its canonical
    kernel gives the generators. One scan over the inner triples then
    decides exactly whether every product of the family is associative,
    and reports each of ``n_samples`` seeded random parameter values with
    its first failing triple; ``max_triples`` bounds that scan.
    """
    maps = _action_tables(spec, delta_bases, window, degree_bound)
    inner = box_points(window.inner_margin, spec.rank)
    labels = spec.basis_labels(inner)
    m = len(maps)
    parameters = []
    generators = []
    kernel = kernel_of([(_commutativity_rows(labels, maps),)], len(labels) * m)
    for p, row in enumerate(kernel.int_vectors):
        pivot = max(row)
        e, k, _ = maps[pivot % m]
        parameters.append(ClassifyParameter("p%d" % p, labels[pivot // m], e, k))
        lead = row[pivot]
        generators.append(_table_product(
            spec, {pos: Fraction(v, lead) for pos, v in row.items()}, labels, maps))

    rng = random.Random(seed)
    draws = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in generators]
             for _ in range(n_samples if generators else 0)]
    passed, samples = _span_associativity(spec, generators, inner, draws, max_triples)
    return ClassifyResult(tuple(parameters), tuple(generators), tuple(samples), passed, seed)


def _commutativity_rows(labels, maps):
    """The integer rows of L_l1(l2) - L_l2(l1) = 0, one per pair l1 < l2
    and image index; unknown i * m + t is the coefficient of map t in
    L_(labels[i])."""
    m = len(maps)
    for i, l1 in enumerate(labels):
        for j in range(i + 1, len(labels)):
            l2 = labels[j]
            row = {}
            for t, (_, _, action) in enumerate(maps):
                for out, val in action.get(l2, {}).items():
                    row.setdefault(out, {})[i * m + t] = val
                for out, val in action.get(l1, {}).items():
                    row.setdefault(out, {})[j * m + t] = -val
            for cell in row.values():
                yield int_row(cell)


def _table_product(spec, coefficients, labels, maps):
    """The table product whose left multiplications combine the maps by
    ``coefficients`` (unknown position -> nonzero value, in position order).

    The entry u_l1 . u_l2 (l1 <= l2) is L_l1(u_l2); the symmetric
    L_l2(u_l1) agrees on commutativity solutions, so taking one
    orientation avoids double counting.
    """
    m = len(maps)
    table = {}
    for pos, value in coefficients.items():
        a = spec.point(labels[pos // m])
        for l2, img in maps[pos % m][2].items():
            b = spec.point(l2)
            if a <= b:
                entry = table.setdefault((a, b), {})
                for out, val in img.items():
                    entry[out] = entry.get(out, 0) + value * val
    return ExplicitProduct({key: Element(terms) for key, terms in table.items()})


def _span_associativity(spec, generators, points, draws, max_triples=None):
    """Exact associativity of the span of table ``generators`` on ``points``.

    The associator of P = sum p_i T_i is sum p_i p_j A_ij with
    A_ij(u, v, w) = T_i(T_j(u, v), w) - T_i(u, T_j(v, w)), so every P is
    associative exactly when each A_ij + A_ji vanishes on every triple.
    One scan over the labels of ``points`` checks that as one family
    identity, and each nonzero draw c as sum c_i c_j A_ij = 0. A_ij is
    integer numerators over s_i s_j, s_i the scale of T_i, and a draw sums
    them over D, weighing each by c_i c_j D / (s_i s_j), D the weights'
    common denominator. The scan's ``shared`` memo computes the nonzero
    A_ij of a tuple once for all of them; only ``_associator_triples``,
    with {u, v} or {v, w} a key of some T_j, can fail. Returns the family
    verdict and one ``(passed, first failing triple)`` per draw. The m^2
    associators of m generators at each of those triples, if over
    ``max_triples``, are refused unscanned.
    """
    if not generators:
        return True, [(True, None)] * len(draws)
    scan, m = _Scan(spec, points), len(generators)
    support = set().union(*(g.support(spec.rank) for g in generators))
    triples = sorted(_associator_triples(_support_pairs(_positions(scan.points), support),
                                         len(scan.points)))  # the scan's nested order
    if max_triples is not None and m * m * len(triples) > max_triples:
        raise LimitExceededError(
            "max_triples limit %d exceeded in stage associativity: %d generators"
            " form %d associators at each of %d triples"
            % (max_triples, m, m * m, len(triples)))
    muls = [_CheckedProduct(spec, g) for g in generators]
    scales = [t.scale for t in muls]

    def associators(s, *idx):
        """The nonzero numerator terms of A_ij at the tuple, by (i, j)."""
        u, v, w = (s.labels[k] for k in idx)
        out = {}
        for j, tj in enumerate(muls):
            uv, vw = tj.label_product(u, v), tj.label_product(v, w)
            if uv or vw:
                vw = [(l, -c) for l, c in vw]
                for i, ti in enumerate(muls):
                    acc = _compose(_compose({}, uv, lambda l: ti.label_product(l, w)),
                                   vw, lambda l: ti.label_product(u, l))
                    terms = tuple((l, c) for l, c in acc.items() if c)
                    if terms:
                        out[i, j] = terms
        return out

    def family(s, *idx):
        """A_ij + A_ji = 0 for all i, j: the first failing sum, else the pass."""
        a = s.shared(idx, associators)
        sums = (_both_sides(_compose({}, (((i, j), 1), ((j, i), 1)), lambda ij: a.get(ij, ())),
                            {}, scales[i] * scales[j]) for i, j in a)
        return next((sides for sides in sums if sides is not _PASS), _PASS)

    def draw(c):
        weights = {(i, j): Fraction(c[i] * c[j], scales[i] * scales[j])
                   for i in range(m) for j in range(m)}
        scale = _common_denominator(weights.values())
        weights = {ij: int(x * scale) for ij, x in weights.items()}

        def sides(s, *idx):
            """sum c_i c_j A_ij = 0."""
            a = s.shared(idx, associators)
            return _both_sides(_compose({}, ((ij, weights[ij]) for ij in a), a.get), {}, scale)
        return sides

    identities = {"family": family}  # a zero draw never fails
    identities.update((n, draw(c)) for n, c in enumerate(draws) if any(c))
    found = scan_identities(scan, ((3, identities),), ordered=True,
                            max_triples=max_triples, tuples=[triples])
    samples = [found.get(n, (0, None))[1] for n in range(len(draws))]
    return found["family"][1] is None, [(w is None, w and w[0]) for w in samples]


def product_to_json(product, spec) -> dict:
    return product.to_json(spec)


def product_from_json(data: dict, spec):
    """A product on ``spec`` from its JSON form; every index and coefficient
    given is checked against ``spec``, zero-valued ones included."""
    variant = data.get("variant")
    if variant not in _VARIANTS:
        raise ValueError("unknown product variant %r" % (variant,))
    keys = {"variant", _VARIANTS[variant].json_key} - {None}
    if set(data) != keys:
        raise ValueError("%s product keys are {%s}" % (variant, ", ".join(sorted(keys))))
    return _VARIANTS[variant].from_json(data, spec)
