"""Zero-dimensional schemes and what they impose on forms of degree d.

A scheme built from points, jets and fat points either imposes independent
conditions on degree-d forms or fails by a measurable amount h1.  Everything
below is exact rational arithmetic; no tolerances anywhere.
"""

from fractions import Fraction

from veronese.schemes import (
    FatPoint,
    Jet,
    Reduced,
    SchemeSpec,
    conditions_matrix,
    h1,
    scheme_degree,
)


def vec(*xs):
    return tuple(Fraction(x) for x in xs)


# Any scheme of degree at most d+1 imposes independent conditions: a length-5
# jet of the conic (1, t, t^2); a point and two double points; a double
# point, a tangent vector and a point.
zero = vec(0, 0, 0)
examples = [
    (Jet((vec(1, 0, 0), vec(0, 1, 0), vec(0, 0, 1), zero, zero)),),
    (Reduced(vec(-6, -1, 8)), FatPoint(vec(0, -6, -7), 2), FatPoint(vec(6, 8, -6), 2)),
    (FatPoint(vec(-7, 3, -9), 2), Jet((vec(1, -7, -3), vec(9, -2, -2))), Reduced(vec(8, 5, -7))),
]
print("schemes of degree <= d+1 in the plane, d = 6:")
for comps in examples:
    Z = SchemeSpec(2, comps)
    print(f"  degree {scheme_degree(Z):2d}  h1 = {h1(Z, 6)}")

# The first failure: d+2 points on a line are one condition short.
d = 5
collinear = SchemeSpec(
    2, tuple(Reduced((Fraction(1), Fraction(z), Fraction(0))) for z in range(d + 2))
)
M = conditions_matrix(collinear, d)
print(f"\n{d + 2} collinear points, d = {d}:")
print(f"  conditions matrix {M.rows} x {M.cols}, h1 = {h1(collinear, d)}")

# Fat points: a triple point plus six double points at d = 6 still imposes
# independent conditions (21 + 3 = 24 of the 28 available).
comps = [FatPoint((Fraction(1), Fraction(0), Fraction(0)), 3)]
pts = [(1, 1, 1), (1, -1, 2), (2, 1, -1), (1, 3, 1), (3, -1, 1), (1, 2, 5)]
comps += [FatPoint(tuple(Fraction(c) for c in p), 2) for p in pts]
Z = SchemeSpec(2, tuple(comps))
print(f"\ntriple + 6 doubles at d = 6: degree {scheme_degree(Z)}, h1 = {h1(Z, 6)}")
