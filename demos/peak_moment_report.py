"""Where the rod actually bends most, and by how much.

For the propped cantilever the bending moment peaks inside the span at
x = X/q; since the exact reaction is below the classical 3qL/8, the
peak both moves and shrinks. For the built-in rod the clamped ends stay
critical but carry more moment than the classical estimate. Both effects
land directly on the edge stress a designer would size against.
"""

from rodbend import (
    RodProperties,
    max_bending_stress_report,
    solve_builtin,
    solve_roller,
)

rod = RodProperties.from_stiffness(1.0, 200.0)
q = 1000.0

print("=== propped cantilever (roller) ===")
sol = solve_roller(rod, q, method="root_find")
rep = max_bending_stress_report(sol)
print(f"linearized: peak {rep['M_max_linearized_Nm']:.4f} N m "
      f"at x = {rep['x_peak_linearized_m']:.4f} m")
print(f"exact     : peak {rep['M_max_nonlinear_Nm']:.4f} N m "
      f"at x = {rep['x_peak_nonlinear_m']:.4f} m")
print(f"the linearized design overestimates the peak edge stress by "
      f"{rep['stress_drop_pct_of_nonlinear']:.2f} % of the true value")

print("\n=== doubly built-in rod ===")
sol_b = solve_builtin(rod, q, method="closed", integral_mode="quadrature")
rep_b = max_bending_stress_report(sol_b)
print(f"end moment     : linearized {rep_b['M_end_linearized_Nm']:.4f}, "
      f"exact {rep_b['M_end_nonlinear_Nm']:.4f} N m")
print(f"midspan moment : linearized {rep_b['M_midspan_linearized_Nm']:.4f}, "
      f"exact {rep_b['M_midspan_nonlinear_Nm']:.4f} N m")
print(f"critical section stays at the clamped ends; the exact end stress is "
      f"{rep_b['stress_change_pct_of_linearized']:.2f} % above the classical value")

print("\nso the classical theory is conservative for the propped rod and")
print("slightly unconservative for the built-in one, at the same load.")
