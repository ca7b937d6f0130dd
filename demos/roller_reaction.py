"""Propped cantilever: the roller reaction three ways.

A heavy rod is clamped at one end and rests on a roller at the other.
The roller reaction X is the redundant unknown. The classical formula
3qL/8 ignores curvature nonlinearity; here it is compared against the
truncated reaction series and against root finding on the consistency
equation, including the convergence trace and the effect of stiffness.
"""

from rodbend import RodProperties, solve_roller, stabilized_from

rod = RodProperties(1.0, 200.0)
q = 1000.0

lin = solve_roller(rod, q, method="linearized")
root = solve_roller(rod, q, method="root_find")
series = solve_roller(rod, q, method="series", n_terms=12)

print(f"sample rod: L={rod.L} m, EJ={rod.EJ} N m^2, q={q} N/m")
print(f"linearized reaction : {lin.X:.6f} N")
print(f"series(12) reaction : {series.X:.6f} N")
print(f"root-find reaction  : {root.X:.6f} N   (residual {root.residual:.2e})")
print(f"linearized overestimates by {root.deviation_pct:.3f} % of the true reaction")

print("\nconvergence trace (partial sums of the reaction series):")
trace = solve_roller(rod, q, method="series", n_terms=12).trace
for n, x_n in trace:
    marker = "  <- stabilized" if n == stabilized_from(trace) else ""
    print(f"  n={n:2d}  X_n = {x_n:.8f} N{marker}")

print("\nreaction vs flexural stiffness (same L, q):")
print(f"{'EJ [N m^2]':>12} {'X [N]':>12} {'off linearized [%]':>20}")
for ej in (200.0, 300.0, 400.0, 1000.0, 1e6):
    sol = solve_roller(RodProperties(1.0, ej), q, method="root_find")
    print(f"{ej:12.0f} {sol.X:12.6f} {sol.deviation_pct:20.6f}")

print("\nthe stiffer the rod, the closer the reaction sits to 3qL/8 = 375 N;")
print("the classical value is exact only in the rigid limit.")
