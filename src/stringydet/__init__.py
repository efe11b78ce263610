"""Exact computation of stringy invariants of rank-bounded matrix varieties."""

__version__ = "0.1.0"
