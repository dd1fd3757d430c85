"""Explicit symmetric-rank decompositions, re-expanded and compared exactly.

Three families: binary forms (Sylvester's theorem: the rank is r or d+2-r,
where r is the rank of the middle catalecticant), a jet on a line plus extra
points (rank d + 2 + s1 - t1), and a tangent vector plus points in linearly
general position (rank d + t - 2).
"""

from veronese.binary import sylvester_binary
from veronese.construct import construct_line_jet, construct_tangent_plus_points
from veronese.forms import LinearForm, power_expand, product_expand

# Binary forms first.  x0^(d-1) x1 has border rank 2 but full rank d.
d = 5
f = product_expand([(LinearForm.make([1, 0]), d - 1), (LinearForm.make([0, 1]), 1)])
res = sylvester_binary(f)
print(f"x0^{d - 1} x1: rank {res.rank} (border rank 2)")
if res.decomposition is not None:
    print(f"  decomposition into {res.decomposition.size} powers verified exactly")

g = power_expand(LinearForm.make([1, 0]), 4) + power_expand(LinearForm.make([0, 1]), 4)
res = sylvester_binary(g)
print(f"x0^4 + x1^4: rank {res.rank}, splits over the rationals: {res.splits_over_rationals}")

# A degree-2 jet on a line plus one extra point at (m, d) = (2, 6):
# border rank 3, symmetric rank 6 + 2 + 1 - 2 = 7.
Z, P, rec, cert = construct_line_jet(2, 6, 2, 1, seed=3)
print(f"\njet(2) on a line + 1 point at d = 6: certified rank {cert.value}")
print(f"  decomposition size {rec.size}, re-expansion equals the target: {rec.expand() == P}")

# Tangent vector plus two points in P^3 at d = 5: border rank 3, rank 6.
Z, P, rec, cert = construct_tangent_plus_points(3, 5, 3, seed=3)
print(f"\ntangent vector + 1 point in P^3 at d = 5: certified rank {cert.value}")
for c in cert.claims:
    if "border rank" in c.statement or "budget" in c.statement:
        print(f"  [{'ok' if c.passed else 'FAIL'}] {c.statement}")
