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
from itertools import product as iter_product

from .exactlin import RowSpace, int_row
from .algebra import (
    Element,
    FamilyMismatchError,
    LimitExceededError,
    center_predicate,
    element_from_json,
    element_to_json,
    limited,
    square_predicate,
)
from .halfderiv import HalfDerivationComponent, MissingDegreeError, inner_projection
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

    ``basis_product(a, b)`` maps each lattice index c to the nonzero scalar
    coefficient of u_c in u_a . u_b (of u_c (x) v for generalized Witt with
    dim V = 1, V = span{v}). ``check_domain(spec)`` raises
    ``FamilyMismatchError`` or ``ValueError`` unless the rule is defined on
    ``spec``; every entry point runs it before reading the rule.
    """

    def check_domain(self, spec):
        pass

    def to_json(self) -> dict:
        return {"variant": self.variant}

    @classmethod
    def from_json(cls, data: dict):
        return cls()


class ZeroProduct(_Product):
    """The trivial structure: every product is zero."""

    variant = "zero"

    def basis_product(self, a, b):
        return {}


class Mutation(_Product):
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
        self._shifts = _scalars(w.terms)

    def check_domain(self, spec):
        if spec.family == "block" or spec.dim_v != 1:
            raise FamilyMismatchError("mutations live on Witt type and on generalized "
                                      "Witt with dim V = 1")
        _check_ranks(spec, self.w.terms, "multiplier index")

    def basis_product(self, a, b):
        ab = add(a, b)
        return {add(ab, c): wc for c, wc in self._shifts.items()}

    def to_json(self) -> dict:
        return {"variant": self.variant, "w": element_to_json(self.w)}

    @classmethod
    def from_json(cls, data: dict):
        return cls(element_from_json(data["w"]))


class SingleIdempotent(_Product):
    """u_0 . u_0 = u_0 and all other basis products zero."""

    variant = "single_idempotent"

    def check_domain(self, spec):
        if spec.family != "block" or not spec.g_is_zero:
            raise FamilyMismatchError("single idempotent product needs Block with g = 0")

    def basis_product(self, a, b):
        return {a: Fraction(1)} if a == b and not any(a) else {}


class ExplicitProduct(_Product):
    """Symmetric structure-constant table: u_a . u_b = table[{a, b}].

    Keys are unordered pairs of lattice points; values are elements. Pairs
    missing from the table multiply to zero. Defined on the scalar
    families and on generalized Witt with dim V = 1, with values whose
    coefficients have the family's shape.
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
        self._rule = {key: _scalars(value.terms) for key, value in self.table.items()}

    def check_domain(self, spec):
        if spec.dim_v != 1:
            raise FamilyMismatchError("table products need a rank-one coefficient family")
        for (a, b), value in self.table.items():
            _check_ranks(spec, (a, b), "table index")
            _check_ranks(spec, value.terms, "table value index")
            if any(isinstance(c, tuple) != spec.vectorial for c in value.terms.values()):
                raise ValueError("table value at %s does not have the family's "
                                 "coefficients" % ((a, b),))

    def basis_product(self, a, b):
        return self._rule.get(_pair_key(a, b), {})

    def to_json(self) -> dict:
        return {"variant": self.variant,
                self.json_key: [{"a": list(a), "b": list(b), "value": element_to_json(v)}
                                for (a, b), v in sorted(self.table.items())]}

    @classmethod
    def from_json(cls, data: dict):
        return cls({(tuple(int(x) for x in item["a"]), tuple(int(x) for x in item["b"])):
                    element_from_json(item["value"]) for item in data[cls.json_key]})


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


def _scalars(terms):
    """Element terms with 1-tuple (dim V = 1) coefficients unwrapped."""
    return {idx: c[0] if isinstance(c, tuple) else c for idx, c in terms.items()}


def _check_ranks(spec, indices, what):
    for idx in indices:
        if len(idx) != spec.rank:
            raise ValueError("%s %s does not have the algebra's rank %d"
                             % (what, idx, spec.rank))


def _pair_key(a, b):
    return (a, b) if a <= b else (b, a)


def multiply(spec, product, x: Element, y: Element) -> Element:
    """Bilinear symmetric extension of the product's basis rule.

    Checks first that ``product`` is defined on ``spec``.
    """
    return _CheckedProduct(spec, product)(x, y)


class _CheckedProduct:
    """A product on a spec, its domain checked once, as a bilinear map.

    ``pair`` memoizes the products of the basis elements of ``labels`` by
    unordered label pair.
    """

    def __init__(self, spec, product, labels=()):
        product.check_domain(spec)
        self.vectorial = spec.vectorial
        self.rule = product.basis_product
        self.elems = {l: spec.basis_element(l) for l in labels}
        self._pairs = {}

    def __call__(self, x: Element, y: Element) -> Element:
        xs, ys = x.terms, y.terms
        if not (xs and ys):
            return Element()
        if self.vectorial:  # dim V = 1: coefficients are 1-tuples
            xs = {a: c[0] for a, c in xs.items()}
            ys = {b: c[0] for b, c in ys.items()}
        rule = self.rule
        acc = {}
        for a, xa in xs.items():
            for b, yb in ys.items():
                ab = rule(a, b)
                if ab:
                    k = xa * yb
                    for c, v in ab.items():
                        acc[c] = acc.get(c, 0) + k * v
        out = Element.__new__(Element)
        out.terms = {c: (v,) if self.vectorial else v for c, v in acc.items() if v}
        return out

    def pair(self, u, v) -> Element:
        out = self._pairs.get((u, v))
        if out is None:
            a, b = _pair_key(u, v)
            out = self(self.elems[a], self.elems[b])
            self._pairs[(u, v)] = self._pairs[(v, u)] = out
        return out

    def associator(self, u, v, w):
        """Both sides of (u . v) . w = u . (v . w)."""
        return self(self.pair(u, v), self.elems[w]), self(self.elems[u], self.pair(v, w))


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
    ``max_triples`` bounds the ordered pairs and the triples alike.
    """
    labels = spec.basis_labels(search_order(window.radius, spec.rank))
    mul = _CheckedProduct(spec, product, labels)
    elems = mul.elems

    br_cache = {}

    def br(u, v):
        res = br_cache.get((u, v))
        if res is None:
            res = br_cache[(u, v)] = spec.bracket(elems[u], elems[v])
        return res

    comm = IdentityCheck(True, None)
    for _, (u, v) in limited(iter_product(labels, repeat=2), max_triples):
        lhs = mul(elems[u], elems[v])
        rhs = mul(elems[v], elems[u])
        if lhs != rhs:
            comm = IdentityCheck(False, ((u, v), lhs, rhs))
            break

    assoc_w = trans_w = poisson_w = None
    n_triples = 0
    for n_triples, (u, v, w) in limited(iter_product(labels, repeat=3), max_triples):
        if assoc_w is None:
            lhs, rhs = mul.associator(u, v, w)
            if lhs != rhs:
                assoc_w = ((u, v, w), lhs, rhs)
        if trans_w is None or poisson_w is None:
            u_vw = mul(elems[u], br(v, w))
            uv_w = spec.bracket(mul.pair(u, v), elems[w])
        if trans_w is None:
            lhs = 2 * u_vw
            rhs = uv_w + spec.bracket(elems[v], mul.pair(u, w))
            if lhs != rhs:
                trans_w = ((u, v, w), lhs, rhs)
        if poisson_w is None:
            rhs = u_vw + mul(br(u, w), elems[v])
            if uv_w != rhs:
                poisson_w = ((u, v, w), uv_w, rhs)
        if assoc_w and trans_w and poisson_w:
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
    product.check_domain(spec)
    z = tuple(z)
    _check_ranks(spec, [z], "left factor index")
    tables = {}
    for x in box_points(window.radius, spec.rank):
        for idx, c in product.basis_product(z, x).items():
            tables.setdefault(sub(idx, x), {})[x] = c
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
    rational span of the generators. ``associativity_pass`` is exact:
    every product of the family is associative on the inner triples.
    ``associativity_samples`` reports, for each seeded random parameter
    value, its verdict and first failing triple.
    """

    n_parameters: int
    parameters: tuple
    generators: tuple
    associativity_samples: tuple
    associativity_pass: bool
    seed: int

    @property
    def zero_only(self) -> bool:
        return self.n_parameters == 0


def _action_tables(spec, delta_bases, window, degree_bound):
    """Each degree's inner-box basis maps as ``{inner label: image terms}``.

    Returns ``(degree, index, action)`` per map of the canonical basis of
    each solved space restricted to inner-box table indices, in degree
    order; ``action[l]`` maps each image index of u_l to its coefficient.
    """
    maps = []
    for e in box_points(degree_bound, spec.rank):
        e = tuple(e)
        if e not in delta_bases:
            raise MissingDegreeError("no solved degree %s" % (e,))
        keys, _, space = inner_projection(spec, window, delta_bases[e].vectors)
        for k, row in enumerate(space.basis()):
            action = {}
            for key, val in zip(keys, row):
                if val:
                    if spec.vectorial:  # u_x (x) v_c -> val u_(x+e) (x) v_r
                        x, r, c = key
                        label, out = (x, c), (add(e, x), r)
                    else:
                        label, out = key, add(e, key)
                    action.setdefault(label, {})[out] = val
            maps.append((e, k, action))
    return maps


def classify(spec, delta_bases: dict, window: Window, degree_bound: int,
             n_samples: int = 5, seed: int = 0, max_triples=None) -> ClassifyResult:
    """Recover the commutative product family from solved derivation spaces.

    Each left multiplication by a basis element of the inner box is an
    unknown combination of the per-degree solution bases (multiplication
    by any element of a transposed Poisson structure is a half-derivation).
    Commutativity of the product becomes a homogeneous linear system in
    those coefficients, whose rows go into one ``RowSpace``; its canonical
    kernel gives the generators. One scan over the inner triples then
    decides exactly whether every product of the family is associative,
    and reports each of ``n_samples`` seeded random parameter values with
    its first failing triple; ``max_triples`` bounds that scan.
    """
    maps = _action_tables(spec, delta_bases, window, degree_bound)
    labels = spec.basis_labels(box_points(window.inner_margin, spec.rank))
    m = len(maps)
    # unknown i * m + t: the coefficient of map t in L_(labels[i])
    space = RowSpace(n_cols=len(labels) * m)
    for i, l1 in enumerate(labels):
        for j in range(i + 1, len(labels)):
            l2 = labels[j]
            row = {}  # L_l1(l2) - L_l2(l1), one row per image index
            for t, (_, _, action) in enumerate(maps):
                for out, val in action.get(l2, {}).items():
                    row.setdefault(out, {})[i * m + t] = val
                for out, val in action.get(l1, {}).items():
                    row.setdefault(out, {})[j * m + t] = -val
            for cell in row.values():
                space.insert(int_row(cell))

    parameters = []
    generators = []
    for p, vec in enumerate(space.kernel().vectors):
        pivot = max(i for i, v in enumerate(vec) if v)
        e, k, _ = maps[pivot % m]
        parameters.append(ClassifyParameter("p%d" % p, labels[pivot // m], e, k))
        generators.append(_table_product(spec, vec, labels, maps))

    rng = random.Random(seed)
    draws = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in generators]
             for _ in range(n_samples if generators else 0)]
    passed, samples = _span_associativity(spec, generators, labels, draws, max_triples)
    return ClassifyResult(len(generators), tuple(parameters), tuple(generators),
                          tuple(samples), passed, seed)


def _table_product(spec, vec, labels, maps):
    """The table product whose left multiplications combine the maps by ``vec``.

    The entry u_l1 . u_l2 (l1 <= l2) is L_l1(u_l2); the symmetric
    L_l2(u_l1) agrees on commutativity solutions, so taking one
    orientation avoids double counting.
    """
    m = len(maps)
    table = {}
    for pos, value in enumerate(vec):
        if not value:
            continue
        a = _bare(labels[pos // m])
        for l2, img in maps[pos % m][2].items():
            b = _bare(l2)
            if a <= b:
                contrib = Element({_bare(out): (value * val,) if spec.vectorial
                                   else value * val for out, val in img.items()})
                table[(a, b)] = table.get((a, b), Element()) + contrib
    return ExplicitProduct({key: v for key, v in table.items() if not v.is_zero})


def _bare(label):
    return label[0] if isinstance(label[0], tuple) else label


def _span_associativity(spec, generators, labels, draws, max_triples=None):
    """Exact associativity of the span of table ``generators`` on ``labels``.

    The associator of P = sum p_i T_i is sum p_i p_j A_ij with
    A_ij(u, v, w) = T_i(T_j(u, v), w) - T_i(u, T_j(v, w)), so every P is
    associative exactly when each A_ij + A_ji vanishes on every triple.
    The same scan finds each draw's first triple with
    sum c_i c_j A_ij != 0. Returns the family verdict and one
    ``(passed, first failing triple)`` per draw.
    """
    samples = [(True, None)] * len(draws)
    if not generators:
        return True, samples
    muls = [_CheckedProduct(spec, g, labels) for g in generators]
    elems = muls[0].elems
    pairs = [(i, j) for i in range(len(muls)) for j in range(len(muls))]
    pair_muls = [(muls[i], muls[j]) for i, j in pairs]
    family = True
    open_draws = [n for n, c in enumerate(draws) if any(c)]  # 0 never fails
    for _, (u, v, w) in limited(iter_product(labels, repeat=3), max_triples):
        eu, ew = elems[u], elems[w]
        sides = [(ti(tj.pair(u, v), ew), ti(eu, tj.pair(v, w))) for ti, tj in pair_muls]
        for lhs, rhs in sides:
            if lhs != rhs:
                break
        else:  # every A_ij vanishes here
            continue
        a = {ij: lhs - rhs for ij, (lhs, rhs) in zip(pairs, sides)}
        if any(not (a[i, j] + a[j, i]).is_zero for i, j in pairs if i <= j):
            family = False
        for n in list(open_draws):
            c = draws[n]
            if not sum((c[i] * c[j] * a[i, j] for i, j in pairs), Element()).is_zero:
                samples[n] = (False, (u, v, w))
                open_draws.remove(n)
        if not (family or open_draws):
            break
    return family, samples


def product_to_json(product) -> dict:
    return product.to_json()


def product_from_json(data: dict):
    variant = data.get("variant")
    if variant not in _VARIANTS:
        raise ValueError("unknown product variant %r" % (variant,))
    return _VARIANTS[variant].from_json(data)
