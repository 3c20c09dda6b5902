"""Solving for half-derivations degree by degree.

A graded map of degree a is a coefficient table on the window; the
defining relation becomes one exact homogeneous system per degree. The
sweep solves every degree in a box and compares the projected solution
spaces against the predicted spanning maps.
"""

from tpw import (
    AdditiveMap,
    BiadditiveForm,
    Block,
    GeneralizedWitt,
    Pairing,
    Window,
    assemble,
    solve,
    sweep,
)
from tpw.exactlin import kernel_of, nullspace
from tpw.halfderiv import solve_degrees
from tpw.lattice import act

window = Window(3, 2)

# One degree in detail: the Block algebra with g = 0 at degree zero.
b0 = Block.with_form(BiadditiveForm([[0, -1], [1, 0]]))
system = assemble(b0, (0, 0), window)
basis = solve(system)
print("Block g=0, degree (0,0): %d unknowns, %d constraint rows, kernel dim %d"
      % (system.n_unknowns, system.n_constraints, basis.dimension))

# The full sweeps reproduce the classifications on the window.
print("\ngeneralized Witt sweep:")
report = sweep(GeneralizedWitt(Pairing([[1, 0], [0, 1]])), window, 2)
print("  verdict:", report.verdict, "| all degrees pass:", report.all_pass)

print("\nBlock g=0 sweep:")
report = sweep(b0, window, 2)
print("  verdict:", report.verdict, "| all degrees pass:", report.all_pass)

b1 = Block.from_gh(AdditiveMap([-1, 0]), AdditiveMap([0, 1]))
print("\nBlock g!=0 sweep:")
report = sweep(b1, window, 2)
print("  verdict:", report.verdict, "| all degrees pass:", report.all_pass)
for r in report.results:
    if r.projected_dim:
        print("  degree %s: projected dimension %d" % (r.degree, r.projected_dim))

# Degrees where nothing survives are the rigidity statements; the two
# visible degrees carry the identity and the center-valued map.

# The signed permutations of the lattice that the structure constants
# certify carry each degree's kernel to the others of its orbit: only the
# first degree of an orbit is solved, the others are transported and draw
# no row. A solved degree draws its rows in orbits of its stabilizer, the
# rest of an orbit only when its first pair's rows shrink the kernel, and
# stops once the kernel basis is certified: every vector affine in the box
# point and annihilating the rows of the pairs of Box(1) x Box(1), so, by
# the Combinatorial Nullstellensatz, every row. The kernel is that of the
# plain stream of the materialized matrix; the counts include the rows the
# certificate reads (where the kernel empties inside a whole orbit, the
# orbits can draw a few more rows than the plain stream).
print("\nsolved and transported degrees at degree bound 1:")
for name, spec in [("generalized Witt", GeneralizedWitt(Pairing([[1, 0], [0, 1]]))),
                   ("Block g=0", b0), ("Block g!=0", b1)]:
    kernels = solve_degrees(spec, window, 1)
    solved = [a for a, kernel in kernels.items() if kernel.rows_generated]
    print("  %s: %d automorphisms certified" % (name, len(spec.automorphisms)))
    for a, kernel in kernels.items():
        if a in solved:
            system = assemble(spec, a, window)
            plain = nullspace(system.matrix)
            uncertified = kernel_of(system.orbits(), system.n_cols)
            assert plain == uncertified == kernel
            print("    degree %s: solved, %d rows drawn (no certificate: %d, plain stream: %d)"
                  % (a, kernel.rows_generated, uncertified.rows_generated,
                     plain.rows_generated))
        else:  # the representative: the first solved degree some sigma carries to a
            first = next(b for b in solved
                         if any(act(sigma, b) == a for sigma, _, _ in spec.automorphisms))
            print("    degree %s: transported from %s" % (a, first))

