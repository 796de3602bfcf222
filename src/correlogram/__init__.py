"""Cross-correlogram estimation for white-noise-driven linear systems.

The package simulates a single-input/dual-output linear time-invariant
system observed through an averaging window, estimates one impulse-response
component from the paired outputs, and quantifies the estimation error:
exact and limiting covariances of the normalized error process, metric
entropy of the induced pseudometrics, and explicit tail bounds for the
sup-norm deviation, each checkable against Monte Carlo replications.

Import from the submodules (``correlogram.spectral`` and so on); each
lists its public names in ``__all__``.
"""
