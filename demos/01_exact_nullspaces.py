"""Exact rational nullspaces: the kernel everything else is built on.

Every computation in the workbench reduces to solving homogeneous linear
systems over the rationals, exactly. This script shows the canonical
kernel bases, the rank-nullity bookkeeping, and span membership through
``RowSpace``, the one exact echelon behind every rank and span check.
"""

from fractions import Fraction

from tpw import RowSpace, SparseMatrix, in_span, nullspace, scalar_to_str

# A small rectangular system solved by hand: x = -z, y = -z.
m = SparseMatrix.from_rows([[1, 2, 3], [0, 1, 1]])
basis = nullspace(m)
print("matrix [[1,2,3],[0,1,1]]")
print("  kernel dimension:", basis.dimension)
for v in basis.vectors:
    print("  kernel vector:", [scalar_to_str(x) for x in v])
    print("  residual:", [scalar_to_str(x) for x in m.apply(v)])

# Rank and nullity always add up to the number of columns.
wide_rows = [(2, 4, 0, 6), (1, 2, 0, 3), (0, 0, 5, 1)]
wide = SparseMatrix.from_rows(wide_rows)
print("\nwide matrix: rank", RowSpace(wide_rows).rank, "+ nullity",
      nullspace(wide).dimension, "= 4 columns")

# Membership is decided exactly as well. A RowSpace is built once and then
# answers any number of membership questions; in_span is a one-off read.
target = tuple(Fraction(x) for x in (-2, -2, 2))
kernel = RowSpace(basis.vectors, basis.n_cols)
print("\n(-2,-2,2) in kernel span:", target in kernel, in_span(target, basis))
print("(1,0,0) in kernel span:   ", (1, 0, 0) in kernel)

# The canonical reduced-echelon basis of a row space, whatever rows span it.
rows = RowSpace(wide_rows)
print("row space of the wide matrix: rank", rows.rank)
for row in rows.basis():
    print("  basis row:", [scalar_to_str(x) for x in row])

# Scaling rows never changes the canonical basis: golden files stay stable.
scaled = SparseMatrix.from_rows([[7, 14, 21], [0, Fraction(1, 3), Fraction(1, 3)]])
print("\nscaled rows give the identical canonical basis:",
      nullspace(scaled).vectors == basis.vectors)
