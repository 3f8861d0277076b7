#!/usr/bin/env python3
"""Walk through the closed-form propagators for kicked two-level systems.

A delta kick of area alpha at time t_k rotates the state by 2*alpha about an
axis in the xy-plane whose azimuth is set by delta_e * t_k. Everything here
is exact: we build single kicks, compose them, and compare the
equal-and-opposite pair against the no-time-ordering (NTO) limit, whose
difference is the whole point of the exercise.
"""

import math

import numpy as np

from kickedqubit import (
    DeltaKick,
    Representation,
    Schedule,
    kick_sequence,
    nto_opposite_pair,
    nto_propagator,
    opposite_kick_pair,
    probabilities,
    single_kick,
)

delta_e = 1.0  # level splitting (dimensionless, hbar = 1)

# --- one kick -------------------------------------------------------------
# P2 after a single kick from the ground state is sin(alpha)^2, independent
# of when the kick happens.
for alpha in (0.3, math.pi / 4, math.pi / 2):
    u = single_kick(delta_e, DeltaKick(alpha, t_k=2.0))
    p1, p2 = probabilities(u @ np.array([1.0, 0.0]))
    print(f"single kick alpha={alpha:5.3f}:  P2 = {p2:.6f}  (sin^2 = {math.sin(alpha)**2:.6f})")

# --- two kicks ------------------------------------------------------------
# Later kicks act on the left. Two pi/2 kicks separated by half a Rabi
# period undo each other: the population returns to the first level.
t1, t2 = 1.0, 1.0 + math.pi / delta_e
seq = kick_sequence(delta_e, [DeltaKick(math.pi / 2, t1), DeltaKick(math.pi / 2, t2)])
print(f"\ntwo pi/2 kicks, dE*(t2-t1) = pi:  P1 = {abs(seq[0, 0])**2:.12f}")

# --- the +/- pair and time ordering ----------------------------------------
# Equal and opposite kicks would cancel if they commuted. They do not: the
# exact (time-ordered) propagator transfers |sin(2a) sin(dE t_-/2)|^2, while
# the NTO limit (exponential of the time-averaged coupling) transfers
# |sin(2a sin(dE t_-/2))|^2.
alpha, t1, t2 = 0.4, 1.0, 2.5
ordered = opposite_kick_pair(delta_e, alpha, t1, t2)
nto = nto_opposite_pair(delta_e, alpha, t1, t2)
p2 = abs(ordered[1, 0]) ** 2
p2_nto = abs(nto[1, 0]) ** 2
print(f"\n+/- pair alpha={alpha}, t_- = {t2 - t1}:")
print(f"  time-ordered   P2     = {p2:.9f}")
print(f"  no ordering    P2^(0) = {p2_nto:.9f}")
print(f"  ordering effect        = {p2 - p2_nto:+.9f}")

# The closed NTO form agrees with exponentiating the time average of the
# same schedule, there a sum over its two kicks.
s = Schedule(delta_e, (DeltaKick(alpha, t1), DeltaKick(-alpha, t2)), 0.0, 4.0)
averaged = nto_propagator(s, Representation.INTERACTION)
print(f"  pair form vs time average: {np.max(np.abs(nto - averaged)):.2e}")
