"""Monte Carlo toolkit for branching processes in varying and random
environments: offspring laws, environment sequences, exact simulation,
convergence-condition checkers, and estimators verifying that the
normalized population is either zero or of the order of its mean."""

__version__ = "0.1.0"
