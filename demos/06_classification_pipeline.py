"""End to end: from solved derivation spaces to the product families.

Left multiplication by any element of a compatible product is a
half-derivation, so every candidate product is an unknown combination of
the solved per-degree bases. Commutativity is a linear system; solving
it exactly yields the product family. Associativity of the whole family
is then decided exactly, in one scan over the inner triples.
"""

from tpw import AdditiveMap, BiadditiveForm, Block, GeneralizedWitt, Pairing, Window
from tpw.halfderiv import solve_degrees
from tpw.tpstruct import classify

window = Window(3, 2)


def run(name, spec):
    result = classify(spec, solve_degrees(spec, window, 2), window, 2, n_samples=4, seed=2)
    print("%s:" % name)
    print("  free parameters:", result.n_parameters)
    for gen in result.generators:
        for (a, b), value in sorted(gen.table.items()):
            print("  u_%s . u_%s = %s" % (a, b, value))
    if result.n_parameters:
        print("  every product of the family associative:", result.associativity_pass)
    print()


# Two-dimensional coefficients: every structure is trivial.
run("generalized Witt (dim V = 2)", GeneralizedWitt(Pairing([[1, 0], [0, 1]])))

# Block with g = 0: exactly one non-trivial structure, an idempotent at
# the origin.
run("Block g = 0", Block.with_form(BiadditiveForm([[0, -1], [1, 0]])))

# Block with g != 0: the one-parameter star family multiplying the
# complement of the square into the center.
run("Block g != 0", Block.from_gh(AdditiveMap([-1, 0]), AdditiveMap([0, 1])))

# Shift the second additive map so the special cosets are empty: the
# classifier returns only the zero product.
run("Block g != 0, empty cosets",
    Block.from_gh(AdditiveMap([-1, 0]), AdditiveMap([0, 3])))
