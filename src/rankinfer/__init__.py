"""Confidence sets for ranks and regressions on ranked variables."""

__version__ = "0.1.0"
