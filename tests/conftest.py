"""Shared test settings: deterministic hypothesis profiles.

Property tests draw the same examples on every run (no example database,
no deadline), so a slow or loaded machine cannot make them flake.  The
default profile draws 40 examples per test; ``SEGMAT_HYPOTHESIS_PROFILE=deep``
draws 2,000 (tests that set their own ``max_examples`` keep it, except the
``mesh_io`` oracle gates, which take the larger of theirs and the profile's).
Both print a ``@reproduce_failure`` blob with a failing example, so an
example drawn only in a longer run can be replayed on its own test.
"""

import os

from hypothesis import settings

settings.register_profile(
    "segmat", derandomize=True, deadline=None, max_examples=40, database=None,
    print_blob=True)
settings.register_profile(
    "deep", settings.get_profile("segmat"), max_examples=2000)
settings.load_profile(os.environ.get("SEGMAT_HYPOTHESIS_PROFILE", "segmat"))
