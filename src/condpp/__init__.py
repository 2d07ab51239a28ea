"""Conditional Poisson point processes: simulation, couplings, and bounds.

Toolkit for the Poisson point process conditioned on a minimum number of
points: exact samplers, the conditional immigration-death chain, coupled
chains for estimating differences of the Stein equation solution, the
closed-form Stein-factor bounds those estimates are checked against, the
matching distances d-bar-1 / d-bar-2, and a conditional Bernoulli process
approximation experiment.
"""

__version__ = "0.1.0"
