"""Numerical engine for degenerate semilinear parabolic pricing equations.

Solves the general equation du/dt + H = 0 on truncated grids, measures the
regularity quantities its solutions are known to satisfy (semiconvexity
envelopes, Lipschitz constants, initial-layer bounds), and cross-validates
the mortgage pricing instance against its Girsanov-changed Monte Carlo
representation.
"""

__version__ = "0.1.0"
