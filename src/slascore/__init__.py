"""Scoring pipeline for a two-grader spoken language assessment system.

Provides the challenge metric suite, score-conditioned fusion with
grid-searched per-interval weights, overall-score aggregation, and a
toy-scale attention-pooling + prototype grader head with verified
gradients.

The library is its modules, imported by name (``from slascore import core,
fusion``); the package itself exports nothing.
"""
