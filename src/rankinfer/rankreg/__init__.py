"""Regression on ranked variables with estimation-aware covariance."""
