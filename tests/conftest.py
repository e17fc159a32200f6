"""Shared test configuration: one deterministic hypothesis profile.

Property tests run a fixed, derandomized set of examples with no example
database, so tier-1 reruns are reproducible and bounded in time.
"""

from hypothesis import settings

settings.register_profile("nlaa", max_examples=12, deadline=None,
                          derandomize=True, database=None)
settings.load_profile("nlaa")
