"""Monic orthogonal polynomials: one recurrence, checked from the moments.

The recurrence P_{k+1} = (x - s_k) P_k - t_k P_{k-1} builds the monic
OPS directly from (sigma, tau), and the moment functional recovers
(sigma, tau) back from the sequence.  The bordered Hankel determinant,
built here from ``bareiss_det``, gives the same P_n from raw moments,
exactly.

Run:  python3 demos/03_orthogonal_polynomials.py
"""

from momentlab import (
    bareiss_det,
    catalog_sequence,
    make_spec,
    ops_from_recurrence,
    ops_zeros,
    recurrence_from_moments,
    riesz,
    true_interval_estimate,
)


def product(a, b):
    """Ascending coefficients of the product of two polynomials."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def bordered_determinant(y, n):
    """Ascending coefficients of P_n: det H_{n-1} bordered by the row
    (1, x, ..., x^n), expanded along that row and divided by det H_{n-1}."""
    top = [[y[i + j] for j in range(n + 1)] for i in range(n)]
    delta = bareiss_det([row[:n] for row in top])
    return tuple((-1) ** (n + j) * bareiss_det([row[:j] + row[j + 1:] for row in top]) / delta
                 for j in range(n + 1))


spec, seq = catalog_sequence("catalan", 19)
polys = ops_from_recurrence(spec, 4)
print("Catalan monic OPS from the recurrence:")
for k, poly in enumerate(polys):
    print(f"  P_{k} = {poly}")

print()
print("Bordered-determinant route from the raw moments agrees exactly:")
for n in range(5):
    assert bordered_determinant(seq, n) == polys[n].coefficients
print("  bordered_determinant(y, n) == ops_from_recurrence(spec, n)[n] for n <= 4")

print()
print("Orthogonality under the moment functional L (x^n -> y_n):")
p2p3 = product(polys[2].coefficients, polys[3].coefficients)
p3p3 = product(polys[3].coefficients, polys[3].coefficients)
print("  L[P_2 P_3] =", riesz(seq, p2p3))
print("  L[P_3 P_3] =", riesz(seq, p3p3))

print()
print("Recovering (sigma, tau) from 19 raw terms:")
sigma, tau = recurrence_from_moments(seq, 5)
print("  sigma prefix:", [str(v) for v in sigma])
print("  tau prefix  :", [str(v) for v in tau])

print()
print("Zeros are the correctly rounded doubles, bisected on exact Sturm counts:")
print("  zeros of P_2:", ops_zeros(spec, 2), " (exact: (3 -/+ sqrt(5))/2)")
for n in (5, 20, 60):
    lo, hi = true_interval_estimate(spec, n)
    print(f"  extreme zeros at n = {n:2d}: [{lo:.6f}, {hi:.6f}]  (widening toward [0, 4])")

print()
print("The motzkin family plays the same game on [-1, 3]:")
mot = make_spec(1, 1, 1, 1)
print("  P_2 =", ops_from_recurrence(mot, 2)[2], " zeros:", ops_zeros(mot, 2))
