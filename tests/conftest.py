"""Shared test settings: a deterministic hypothesis profile.

Property tests draw the same examples on every run (no example database,
no deadline), so a slow or loaded machine cannot make them flake.
"""

from hypothesis import settings

settings.register_profile(
    "segmat", derandomize=True, deadline=None, max_examples=40, database=None)
settings.load_profile("segmat")
