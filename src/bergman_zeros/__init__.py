"""Bergman kernels of the Poincare punctured disc, Gaussian holomorphic
sections, and the statistics of their random zeros."""

__version__ = "0.1.0"
