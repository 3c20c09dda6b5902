"""Commutative product candidates on the graded algebras.

Construction of the classified product families, exact verification of
the compatibility identities on windows, decomposition of left
multiplications into graded components, and a window classifier that
recovers the product family from a computed space of scaled derivations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import exactlin
from .exactlin import SparseMatrix
from .algebra import (
    Element,
    FamilyMismatchError,
    LimitExceededError,
    center_predicate,
    element_from_json,
    element_to_json,
    square_predicate,
)
from .halfderiv import (
    HalfDerivationComponent,
    MissingDegreeError,
    columns_for,
    inner_column_positions,
)
from .lattice import Window, add, box_points, search_order, sub, zero

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


class ZeroProduct:
    """The trivial structure: every product is zero."""

    variant = "zero"


class Mutation:
    """Group-algebra product twisted by a fixed multiplier element.

    On a rank-one-coefficient family the product of basis elements at a
    and b is the multiplier shifted to a + b. Only finitely supported
    multipliers are accepted; completions are out of scope.
    """

    variant = "mutation"

    def __init__(self, w: Element):
        if any(isinstance(c, tuple) and len(c) != 1 for c in w.terms.values()):
            raise ValueError("multiplier coefficients must be scalars")
        self.w = w

    def scalar_terms(self):
        out = {}
        for idx, c in self.w.terms.items():
            out[idx] = c[0] if isinstance(c, tuple) else c
        return out


class SingleIdempotent:
    """u_0 . u_0 = u_0 and all other basis products zero."""

    variant = "single_idempotent"


class ExplicitProduct:
    """Symmetric structure-constant table: u_a . u_b = table[{a, b}].

    Keys are unordered pairs of lattice points; values are elements. Pairs
    missing from the table multiply to zero.
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


class ExtensionByZero(ExplicitProduct):
    """Star table on the complement of the square, valued in the center.

    A table product defined only on Block with g != 0, and only when every
    star index lies outside the square and every value in the center;
    ``multiply`` checks that on each call, the scans once.
    """

    variant = "extension_by_zero"
    json_key = "star"


def _pair_key(a, b):
    return (a, b) if a <= b else (b, a)


def _scalar_element_terms(spec, x: Element):
    if spec.vectorial:
        return {idx: c[0] for idx, c in x.terms.items()}
    return x.terms


def _wrap_scalar_terms(spec, terms):
    if spec.vectorial:
        return Element({idx: (c,) for idx, c in terms.items()})
    return Element(terms)


def _check_domain(spec, product):
    """Raise unless ``product`` is defined on ``spec``."""
    variant = product.variant
    if variant == "mutation":
        if spec.family == "block":
            raise FamilyMismatchError("mutations live on rank-one coefficient families")
        if spec.dim_v != 1:
            raise FamilyMismatchError("product needs a rank-one coefficient family")
    elif variant == "single_idempotent":
        if spec.family != "block" or not spec.g_is_zero:
            raise FamilyMismatchError("single idempotent product needs Block with g = 0")
    elif variant == "extension_by_zero":
        if spec.family != "block" or spec.g_is_zero:
            raise FamilyMismatchError("extension by zero needs Block with g != 0")
        for (a, b), value in product.table.items():
            for key in (a, b):
                if square_predicate(spec, key):
                    raise ValueError(
                        "star index %s is not in the complement of the square" % (key,))
            for idx in value.terms:
                if not center_predicate(spec, idx):
                    raise ValueError("star value at %s leaves the center" % (idx,))


def multiply(spec, product, x: Element, y: Element) -> Element:
    """Bilinear symmetric extension of the product's basis formula.

    Checks first that ``product`` is defined on ``spec``.
    """
    _check_domain(spec, product)
    return _multiply(spec, product, x, y)


def _multiply(spec, product, x: Element, y: Element) -> Element:
    """``multiply`` for a product whose domain has been checked."""
    if product.variant == "zero":
        return Element()
    if product.variant == "mutation":
        xs = _scalar_element_terms(spec, x)
        ys = _scalar_element_terms(spec, y)
        ws = product.scalar_terms()
        acc = {}
        for a, xa in xs.items():
            for b, yb in ys.items():
                factor = xa * yb
                for c, wc in ws.items():
                    idx = add(add(a, b), c)
                    acc[idx] = acc.get(idx, 0) + factor * wc
        return _wrap_scalar_terms(spec, acc)
    if product.variant == "single_idempotent":
        origin = zero(spec.rank)
        c = x.terms.get(origin, Fraction(0)) * y.terms.get(origin, Fraction(0))
        return Element({origin: c})
    if isinstance(product, ExplicitProduct):
        out = Element()
        for a, xa in x.terms.items():
            for b, yb in y.terms.items():
                value = product.table.get(_pair_key(a, b))
                if value is not None:
                    out = out + (xa * yb) * value
        return out
    raise ValueError("unknown product variant %r" % (product.variant,))


@dataclass(frozen=True)
class IdentityCheck:
    """Pass flag plus the first witness tuple with both evaluated sides."""

    passed: bool
    witness: tuple


@dataclass(frozen=True)
class VerificationReport:
    commutative: IdentityCheck
    associative: IdentityCheck
    trans_leibniz: IdentityCheck
    poisson_leibniz: IdentityCheck
    n_triples: int

    @property
    def tp_pass(self) -> bool:
        """The transposed Poisson axioms: commutative, associative, compatible."""
        return (self.commutative.passed and self.associative.passed
                and self.trans_leibniz.passed)

    @property
    def all_pass(self) -> bool:
        return self.tp_pass and self.poisson_leibniz.passed


def verify(spec, product, window: Window, max_triples=None) -> VerificationReport:
    """Check the four identities on all basis tuples of the window.

    Tuples are scanned shell by shell from the origin, so the reported
    witness of a failure is the first one in that canonical order.
    Commutativity runs over pairs; associativity, the compatibility
    identity 2 z . [x, y] = [z . x, y] + [x, z . y], and the ordinary
    Poisson rule [x . y, z] = x . [y, z] + [x, z] . y run over triples.
    """
    _check_domain(spec, product)
    labels = spec.basis_labels(search_order(window.radius, spec.rank))
    elems = {l: spec.basis_element(l) for l in labels}

    prod_cache = {}

    def prod(u, v):
        key = (u, v) if u <= v else (v, u)
        res = prod_cache.get(key)
        if res is None:
            res = _multiply(spec, product, elems[key[0]], elems[key[1]])
            prod_cache[key] = res
        return res

    br_cache = {}

    def br(u, v):
        res = br_cache.get((u, v))
        if res is None:
            res = spec.bracket(elems[u], elems[v])
            br_cache[(u, v)] = res
        return res

    comm = IdentityCheck(True, None)
    for u in labels:
        if comm.witness is not None:
            break
        for v in labels:
            lhs = _multiply(spec, product, elems[u], elems[v])
            rhs = _multiply(spec, product, elems[v], elems[u])
            if lhs != rhs:
                comm = IdentityCheck(False, ((u, v), lhs, rhs))
                break

    assoc_w = trans_w = poisson_w = None
    n_triples = 0
    for u in labels:
        for v in labels:
            for w in labels:
                n_triples += 1
                if max_triples is not None and n_triples > max_triples:
                    raise LimitExceededError(
                        "max_triples limit %d exceeded" % max_triples)
                if assoc_w is None:
                    lhs = _multiply(spec, product, prod(u, v), elems[w])
                    rhs = _multiply(spec, product, elems[u], prod(v, w))
                    if lhs != rhs:
                        assoc_w = ((u, v, w), lhs, rhs)
                if trans_w is None:
                    lhs = 2 * _multiply(spec, product, elems[u], br(v, w))
                    rhs = spec.bracket(prod(u, v), elems[w]) \
                        + spec.bracket(elems[v], prod(u, w))
                    if lhs != rhs:
                        trans_w = ((u, v, w), lhs, rhs)
                if poisson_w is None:
                    lhs = spec.bracket(prod(u, v), elems[w])
                    rhs = _multiply(spec, product, elems[u], br(v, w)) \
                        + _multiply(spec, product, br(u, w), elems[v])
                    if lhs != rhs:
                        poisson_w = ((u, v, w), lhs, rhs)
                if assoc_w and trans_w and poisson_w:
                    break
            else:
                continue
            break
        else:
            continue
        break

    return VerificationReport(
        commutative=comm,
        associative=IdentityCheck(assoc_w is None, assoc_w),
        trans_leibniz=IdentityCheck(trans_w is None, trans_w),
        poisson_leibniz=IdentityCheck(poisson_w is None, poisson_w),
        n_triples=n_triples,
    )


def left_mult_table(spec, product, z, window: Window) -> dict:
    """Graded components of x -> u_z . x over the window's box.

    Returns a map degree -> component table, ready to be flattened and
    checked for membership in the assembled per-degree solution spaces.
    """
    if spec.dim_v != 1:
        if product.variant != "zero":
            raise FamilyMismatchError("left multiplications need scalar coefficients")
        return {}
    _check_domain(spec, product)
    uz = spec.basis_element(spec.basis_labels([tuple(z)])[0])
    box = box_points(window.radius, spec.rank)
    tables = {}
    for x, label in zip(box, spec.basis_labels(box)):
        image = _multiply(spec, product, uz, spec.basis_element(label))
        for idx, c in image.terms.items():
            if isinstance(c, tuple):
                c = c[0]
            degree = sub(idx, x)
            tables.setdefault(degree, {})[x] = c
    return {
        degree: HalfDerivationComponent(degree, table)
        for degree, table in sorted(tables.items())
    }


@dataclass(frozen=True)
class ClassifyParameter:
    name: str
    left_index: tuple
    degree: tuple
    basis_position: int


@dataclass(frozen=True)
class ClassifyResult:
    """Solution family of the windowed commutativity system.

    One generator product table per free parameter; the family is the
    rational span of the generators. Associativity is checked on seeded
    random parameter samples, mirroring the classification's proof order,
    not imposed as a quadratic constraint.
    """

    n_parameters: int
    parameters: tuple
    generators: tuple
    associativity_samples: tuple
    seed: int

    @property
    def zero_only(self) -> bool:
        return self.n_parameters == 0

    @property
    def associativity_pass(self) -> bool:
        return all(ok for ok, _ in self.associativity_samples)


def _projected_table_bases(spec, delta_bases, window, degree_bound):
    """Per-degree canonical bases restricted to inner-box table indices."""
    positions = inner_column_positions(spec, window)
    cols = columns_for(spec, window)
    keys = [cols[p] for p in positions]
    out = {}
    for e in box_points(degree_bound, spec.rank):
        e = tuple(e)
        if e not in delta_bases:
            raise MissingDegreeError("no solved degree %s" % (e,))
        vectors = delta_bases[e].vectors
        rows = [r for r in ([v[p] for p in positions] for v in vectors) if any(r)]
        if not rows:
            out[e] = []
            continue
        basis_rows = exactlin.row_space_basis(SparseMatrix.from_rows(rows))
        out[e] = [
            {keys[i]: val for i, val in enumerate(row) if val}
            for row in basis_rows
        ]
    return out


def _apply_component(spec, degree, table, label):
    """Image terms of one basis label under a component table."""
    if spec.vectorial:
        a, j = label
        out = {}
        for (x, r, c), val in table.items():
            if x == a and c == j and val:
                out[(add(degree, a), r)] = out.get((add(degree, a), r), 0) + val
        return out
    val = table.get(label)
    if not val:
        return {}
    return {add(degree, label): val}


def classify(spec, delta_bases: dict, window: Window, degree_bound: int,
             n_samples: int = 5, seed: int = 0, max_triples=None) -> ClassifyResult:
    """Recover the commutative product family from solved derivation spaces.

    Each left multiplication by a basis element of the inner box is an
    unknown combination of the per-degree solution bases (multiplication
    by any element of a transposed Poisson structure is a half-derivation).
    Commutativity of the product becomes a homogeneous linear system in
    those coefficients, solved exactly; associativity of the resulting
    family is then spot-checked at seeded random parameter values; each
    sample scans every triple of inner labels, and ``max_triples`` bounds
    the triples of all samples together.
    """
    bases = _projected_table_bases(spec, delta_bases, window, degree_bound)
    inner_labels = spec.basis_labels(box_points(window.inner_margin, spec.rank))

    unknowns = []
    for l in inner_labels:
        for e in sorted(bases):
            for k in range(len(bases[e])):
                unknowns.append((l, e, k))
    col = {u: i for i, u in enumerate(unknowns)}

    actions = {}
    for e in sorted(bases):
        for k, table in enumerate(bases[e]):
            for l in inner_labels:
                img = _apply_component(spec, e, table, l)
                if img:
                    actions[(e, k, l)] = img

    entries = []
    row_no = 0
    for i, l1 in enumerate(inner_labels):
        for l2 in inner_labels[i + 1:]:
            row = {}
            for e in sorted(bases):
                for k in range(len(bases[e])):
                    img = actions.get((e, k, l2))
                    if img:
                        for out_idx, val in img.items():
                            row.setdefault(out_idx, {})
                            c = col[(l1, e, k)]
                            row[out_idx][c] = row[out_idx].get(c, 0) + val
                    img = actions.get((e, k, l1))
                    if img:
                        for out_idx, val in img.items():
                            row.setdefault(out_idx, {})
                            c = col[(l2, e, k)]
                            row[out_idx][c] = row[out_idx].get(c, 0) - val
            for out_idx in sorted(row):
                coeffs = {c: v for c, v in row[out_idx].items() if v}
                if coeffs:
                    for c, v in coeffs.items():
                        entries.append((row_no, c, v))
                    row_no += 1
    matrix = SparseMatrix(row_no, len(unknowns), entries)
    solution = exactlin.nullspace(matrix)

    parameters = []
    generators = []
    for p, vec in enumerate(solution.vectors):
        pivot = max(i for i, v in enumerate(vec) if v)
        l, e, k = unknowns[pivot]
        parameters.append(ClassifyParameter("p%d" % p, l, e, k))
        generators.append(_generator_product(spec, vec, unknowns, actions, bases,
                                             inner_labels))

    n_samples = n_samples if generators else 0
    n_triples = n_samples * len(inner_labels) ** 3
    if max_triples is not None and n_triples > max_triples:
        raise LimitExceededError("associativity samples need %d triples, over the "
                                 "max_triples limit %d" % (n_triples, max_triples))
    rng = random.Random(seed)
    samples = []
    for _ in range(n_samples):
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                  for _ in generators]
        combined = _combine_tables(spec, generators, coeffs)
        samples.append(_associativity_check(spec, combined, inner_labels))
    return ClassifyResult(len(generators), tuple(parameters), tuple(generators),
                          tuple(samples), seed)


def _generator_product(spec, vec, unknowns, actions, bases, inner_labels):
    # The table entry at (l1, l2) is L_{l1} applied to l2; the symmetric
    # contribution L_{l2}(l1) agrees on commutativity solutions, so taking
    # one orientation avoids double counting.
    vectorial = spec.vectorial
    table = {}
    for pos, value in enumerate(vec):
        if not value:
            continue
        l1, e, k = unknowns[pos]
        for l2 in inner_labels:
            if _bare(l1) > _bare(l2):
                continue
            img = actions.get((e, k, l2))
            if not img:
                continue
            key = _pair_key(_bare(l1), _bare(l2))
            contrib = {}
            for out_idx, val in img.items():
                val = value * val
                contrib[_bare_idx(out_idx)] = (val,) if vectorial else val
            cur = table.get(key, Element())
            table[key] = cur + Element(contrib)
    return ExplicitProduct({k: v for k, v in table.items() if not v.is_zero})


def _bare(label):
    return label[0] if isinstance(label[0], tuple) else label


def _bare_idx(out_idx):
    return out_idx[0] if isinstance(out_idx[0], tuple) else out_idx


def _combine_tables(spec, generators, coeffs):
    table = {}
    for gen, c in zip(generators, coeffs):
        for key, value in gen.table.items():
            cur = table.get(key, Element())
            table[key] = cur + c * value
    return ExplicitProduct(table)


def _associativity_check(spec, product, inner_labels):
    labels = inner_labels
    elems = {l: spec.basis_element(l) for l in labels}
    for u in labels:
        for v in labels:
            uv = _multiply(spec, product, elems[u], elems[v])
            for w in labels:
                lhs = _multiply(spec, product, uv, elems[w])
                rhs = _multiply(spec, product, elems[u],
                                _multiply(spec, product, elems[v], elems[w]))
                if lhs != rhs:
                    return (False, (u, v, w))
    return (True, None)


def product_to_json(product) -> dict:
    if product.variant == "zero":
        return {"variant": "zero"}
    if product.variant == "mutation":
        return {"variant": "mutation", "w": element_to_json(product.w)}
    if product.variant == "single_idempotent":
        return {"variant": "single_idempotent"}
    if isinstance(product, ExplicitProduct):
        return {"variant": product.variant,
                product.json_key: [{"a": list(a), "b": list(b),
                                    "value": element_to_json(v)}
                                   for (a, b), v in sorted(product.table.items())]}
    raise ValueError("unknown product variant %r" % (product.variant,))


def product_from_json(data: dict):
    variant = data.get("variant")
    if variant == "zero":
        return ZeroProduct()
    if variant == "mutation":
        return Mutation(element_from_json(data["w"]))
    if variant == "single_idempotent":
        return SingleIdempotent()
    for cls in (ExplicitProduct, ExtensionByZero):
        if variant == cls.variant:
            return cls({(tuple(item["a"]), tuple(item["b"])):
                        element_from_json(item["value"])
                        for item in data[cls.json_key]})
    raise ValueError("unknown product variant %r" % (variant,))
