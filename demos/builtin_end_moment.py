"""Doubly built-in rod: end moment by series and by closed evaluation.

Both ends are clamped and each half carries half the distributed load;
the redundant unknown is the clamping moment X. The series route
analytically continues a leading-order approximation of the tip
integral, so its limit differs from the exact closed route by design;
both are printed side by side. The exact tip integral itself is printed
by its two routes, its positive series (the default) and the quadrature.
"""

from rodbend import (
    RodProperties,
    builtin_tip_integral,
    solve_builtin,
    stabilized_from,
)

rod = RodProperties.from_stiffness(1.0, 200.0)
q = 1000.0

lin = solve_builtin(rod, q, method="linearized")
ser = solve_builtin(rod, q, method="series", n_terms=11)
closed_exact = solve_builtin(rod, q, method="closed")
closed_approx = solve_builtin(rod, q, method="closed", integral_mode="hyp_approx")

print(f"sample rod: L={rod.L} m, EJ={rod.EJ} N m^2, q={q} N/m")
print(f"linearized end moment        : {lin.X:.6f} N m  (qL^2/12)")
print(f"series(11) end moment        : {ser.X:.6f} N m")
print(f"closed, approximate integral : {closed_approx.X:.6f} N m")
print(f"closed, exact integral       : {closed_exact.X:.6f} N m")

i_series = builtin_tip_integral(rod, q)
i_quad = builtin_tip_integral(rod, q, mode="quadrature")
i_approx = builtin_tip_integral(rod, q, mode="hyp_approx")
print(f"\ntip integral I [m]: exact by its series {i_series:.15f}, by quadrature "
      f"{i_quad:.15f}")
print(f"                    leading-order {i_approx:.9f} "
      f"({(i_approx - i_series) / i_series * 100.0:+.1f} %)")
print("the series limit equals the approximate closure, so at this load the")
print("series route overshoots the exact end moment by "
      f"{(ser.X - closed_exact.X) / closed_exact.X * 100.0:.1f} %; that gap is a")
print("property of the approximation, not of the series truncation.")

print("\nconvergence trace:")
trace = solve_builtin(rod, q, method="series", n_terms=14).trace
stab = stabilized_from(trace)
for n, x_n in trace:
    marker = "  <- stabilized" if n == stab else ""
    print(f"  n={n:2d}  X_n = {x_n:.8f} N m{marker}")

print("\nat loads well below the feasibility bound the two closed routes agree:")
print(f"{'q [N/m]':>8} {'series(11)':>12} {'closed exact':>13} {'gap [%]':>9}")
for q_k in (100.0, 200.0, 400.0, 800.0):
    a = solve_builtin(rod, q_k, method="series", n_terms=11).X
    e = solve_builtin(rod, q_k, method="closed").X
    print(f"{q_k:8.0f} {a:12.6f} {e:13.6f} {(a - e) / e * 100.0:9.4f}")
