"""
Transferring lattice norms to sequence norms
============================================

For simple functions with disjoint inner cells, the weighted L^r inner norm
and the plain l^r norm of width-rescaled coefficients are the same number,
both before and after taking coordinate-wise variation.  This identity is
what lets a function-lattice statement be proved on sequences.
"""
from varlat import exp_norm_transfer, make_radius_set, norm_transfer_pair

# a hand-built simple function: two support cells, two inner coordinates
res = norm_transfer_pair(
    cell_bounds=(0.0, 0.7, 1.5),
    coefficient_matrix=[[1.0, -0.5], [0.25, 2.0]],
    inner_widths=(0.4, 1.1),
    p=2.0, q=3.0, r=4.0,
    J=make_radius_set((0.25, 0.0625, 0.015625)),
)
print("hand-built simple function:")
print(f"  plain norm, integral route:   {res.plain_integral:.12f}")
print(f"  plain norm, sequence route:   {res.plain_sequence:.12f}")
print(f"  variation norm, integral:     {res.variation_integral:.12f}")
print(f"  variation norm, sequence:     {res.variation_sequence:.12f}")
print(f"  max relative discrepancy:     {res.max_rel_discrepancy:.2e}")

# randomized: blocks with random widths, gaps, and coefficients
worst = max(exp_norm_transfer(seed).max_rel_discrepancy for seed in range(30))
print(f"\nworst discrepancy over 30 random block layouts: {worst:.2e}")
