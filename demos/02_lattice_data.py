"""Structure data on the index lattice: maps, forms, witnesses.

The algebras are graded by points of an integer lattice. Their defining
data are additive maps into the rationals, antisymmetric biadditive
forms, and pairings; all are exact and all searches are windowed.
"""

from tpw import (
    AdditiveMap,
    BiadditiveForm,
    Window,
    form_from_gh,
    nondegeneracy_witnesses,
)

# The rank-two data behind the familiar two-parameter family: g(m,i) = -m,
# h(m,i) = i, and the form f((m,i),(n,j)) = ni - mj they generate.
g = AdditiveMap([-1, 0])
h = AdditiveMap([0, 1])
f = form_from_gh(g, h)
print("f matrix:", [[str(x) for x in row] for row in f.matrix])
print("f((1,0),(0,1)) =", f((1, 0), (0, 1)))
print("f((2,3),(1,-1)) =", f((2, 3), (1, -1)))

# Non-degeneracy cannot be proved on a window, but witnesses can be found.
window = Window(3, 1)
report = nondegeneracy_witnesses(f, window)
print("\nwitnesses found for every nonzero point:",
      not report.degenerate_in_window)
print("witness for (3,0):", report.witnesses[(3, 0)])

zero_form = BiadditiveForm([[0, 0], [0, 0]])
print("zero form is degenerate in the window:",
      nondegeneracy_witnesses(zero_form, window).degenerate_in_window)
