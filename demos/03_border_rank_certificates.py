"""Border-rank certificates: build a point of a chosen stratum and check it.

The certificate is a list of exact claims: independence of the scheme,
membership of the point in its span, exclusion from all proper subscheme
spans, the uniqueness criterion, and a catalecticant flattening cross-check.
"""

from veronese.construct import certify_border_rank, construct_stratum_point, flattening_rank
from veronese.strata import StratumLabel

m, d = 2, 9
label = StratumLabel.make([2, 1, 1])
Z, P, cert = construct_stratum_point(m, d, label, seed=42)

print(f"stratum {label} at (m, d) = ({m}, {d}); certified value b = {cert.value}")
for c in cert.claims:
    print(f"  [{'ok' if c.passed else 'FAIL'}] {c.statement}")

fr, per_a = flattening_rank(P, label.t)
print("\ncatalecticant ranks by contraction order:", dict(per_a))

# Re-certify the same point from scratch, as a consumer of the files would.
cert2 = certify_border_rank(P, Z, d)
print(f"\nindependent re-certification passed: {cert2.all_passed}")

# A degree-4 jet on a line at d = 5 sits outside the uniqueness regime:
# the certificate downgrades itself to a membership statement.
from veronese.schemes import SchemeSpec, random_jet_on_line, span_matrix
from veronese.forms import Form
from fractions import Fraction
import random

rng = random.Random(7)
jet = random_jet_on_line(rng, 2, 9, 4)
Zj = SchemeSpec(2, (jet,))
S = span_matrix(Zj, 5)
vec = [Fraction(0)] * S.cols
for i in range(4):
    row = S.row(i)
    for j in range(S.cols):
        vec[j] += (i + 1) * row[j]
Pj = Form(2, 5, tuple(vec))
cert3 = certify_border_rank(Pj, Zj, 5)
print("\ndegree-4 jet on a line at d = 5:")
for c in cert3.claims:
    print(f"  [{'ok' if c.passed else 'FAIL'}] {c.statement}")
