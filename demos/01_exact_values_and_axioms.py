"""Exact budget-restricted values on small games, and the axioms they satisfy.

A game worth is defined only on coalitions of at most K members.  Each arm's
value averages its within-coalition Shapley contribution over every K-sized
coalition containing it.  This walk-through builds three canonical games,
computes exact values, and checks the axiom report.
"""

import numpy as np

from ksvfair import (
    additive_game,
    carrier_exact_values,
    carrier_game,
    classical_shapley,
    coverage_game,
    exact_k_shapley,
    verify_axioms,
)

np.set_printoptions(precision=4, suppress=True)

# --- additive game: values recover the weights exactly -----------------
weights = [0.2, 0.3, 0.5]
game = additive_game(weights, budget=2)
print("additive game, weights", weights)
print("  restricted values:", exact_k_shapley(game).values)

# --- coverage game: worth is the covered fraction of a 6-element universe
cov = coverage_game([{0, 1}, {1, 2}, {2, 3, 4}, {5}], n_elements=6, budget=2)
phi = exact_k_shapley(cov)
print("\ncoverage game on 4 arms, budget 2")
print("  values:", phi.values, " sum:", phi.values.sum().round(4))
# linearity is checked on the mixture with a second game on the same arms
partner = additive_game([0.1, 0.2, 0.3, 0.4], budget=2)
report = verify_axioms(cov, phi, tol=1e-9, linearity_partner=partner)
print("  axioms:", report)

# --- carrier game: only supersets of a distinguished coalition have worth
M, K, D = 5, 3, (0, 1)
car = carrier_game(M, K, D, alpha=1.0)
phi_car = exact_k_shapley(car).values
print(f"\ncarrier game M={M} K={K} D={D}")
print("  values:        ", phi_car)
print("  closed form:   ", carrier_exact_values(M, K, D, 1.0))
print("  members split the efficiency total equally; non-members are null")

# --- full-budget sanity: K = M reduces to the classical value ----------
full = additive_game([0.1, 0.4, 0.5], budget=3)
print("\nK = M reduction check")
print("  restricted:", exact_k_shapley(full).values)
print("  classical: ", classical_shapley(full).values)
