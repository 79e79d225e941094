"""Kinetic approximations to the 1-D heat equation and their large-time diagnostics."""

from . import analysis, kernels, metrics, spectral, wild

__version__ = "0.1.0"
