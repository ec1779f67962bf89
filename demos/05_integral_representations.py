"""Verify closed-form integral representations by quadrature.

Five families have closed-form representing densities, each
c (x - a)^e (b - x)^f on its interval with exponents e, f = -1/2 or +1/2.
On each half of the interval the substitution x = end +/- u^2 passes the
exact distance u^2 to the end, so the end power cancels against dx and
the integrand is smooth; adaptive Gauss-Legendre panels then reproduce
the exact integer sequences to near machine precision.

Run:  python3 demos/05_integral_representations.py
"""

from momentlab import (
    catalog_sequence,
    density_catalog,
    density_names,
    density_plot_csv,
    moment_quadrature,
    verify_representation,
)

print("Densities on their intervals:")
for name in density_names():
    dens = density_catalog(name)
    print(f"  {name:18s} on [{dens.a:+.6f}, {dens.b:+.6f}]  "
          f"endpoint exponents ({float(dens.left_exponent):+.1f}, "
          f"{float(dens.right_exponent):+.1f})")

print()
print("Moment checks, one family at a time (n <= 12, relative 1e-7):")
for name in density_names():
    dens = density_catalog(name)
    _, seq = catalog_sequence(name, 12)
    report = verify_representation(seq, dens, 12, 1e-7)
    print(f"  {name:18s} max rel err {report.max_rel_error:9.2e}  "
          f"{'pass' if report.passed else 'FAIL'}")

print()
print("A few individual values for the catalan density (1/2pi) x^(-1/2) (4-x)^(1/2):")
dens = density_catalog("catalan")
for n in (0, 1, 5, 10):
    print(f"  integral of x^{n}: {moment_quadrature(dens, n, 1e-10):.10f}")

print()
print("Plot data is one call away (CSV rows of x, w(x)):")
print("\n".join(density_plot_csv(dens, npoints=5).splitlines()[:4]))
