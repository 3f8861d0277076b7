#!/usr/bin/env python3
"""Isolate the ordering effect at second order in the coupling.

Through second order the evolution is 1 - i*I1 - I2, with I2 the double
integral over the ordered time simplex. Splitting each product V(t1)V(t2)
into anticommutator and commutator halves shows I2 equals the unordered
square -(1/2) I1^2 plus an ordered commutator integral; every ordering
effect lives in that commutator piece. The library computes each side
independently, so the identity is a genuine cross-check, not bookkeeping.
"""

import numpy as np

from kickedqubit import DeltaKick, Gaussian, Schedule, dyson_second_order, theta_split_weights


def show(label, s):
    b = dyson_second_order(s)
    print(f"--- {label}")
    print("ordered double integral:")
    print(np.array_str(b.second_ordered, precision=6, suppress_small=True))
    print("unordered square:")
    print(np.array_str(b.second_nto, precision=6, suppress_small=True))
    print("commutator correction (all ordering effects):")
    print(np.array_str(b.commutator_correction, precision=6, suppress_small=True))
    print(f"identity residual: {b.identity_residual():.2e}\n")


# Two kicks: everything is an exact finite sum.
show("two kicks, dE = 0.9", Schedule(0.9, (DeltaKick(0.3, 1.0), DeltaKick(0.7, 2.2)), 0.0, 3.0))

# A smooth pulse: adaptive Gauss-Legendre panels over t1, the inner integral in closed form.
show("one Gaussian, dE = 0.8", Schedule(0.8, (Gaussian(0.9, 2.0, 0.3),), 0.0, 4.0))

# Degenerate levels: the rotating-frame coupling commutes with itself at all
# times and the correction vanishes identically.
show("one Gaussian, dE = 0", Schedule(0.0, (Gaussian(0.9, 2.0, 0.3),), 0.0, 4.0))

# The same split seen through the ordering step function: Theta(t1 - t2)
# decomposes into a constant 1/2 (the average, which builds the unordered
# square) plus sgn/2 (which builds the commutator term).
print("theta split at (t1, t2) = (3, 1):", theta_split_weights(3.0, 1.0))
print("theta split at (t1, t2) = (1, 3):", theta_split_weights(1.0, 3.0))
