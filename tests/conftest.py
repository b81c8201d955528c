"""Shared test configuration.

Every Hypothesis test runs under one profile: derandomized, with no
example database and no deadline, so results never depend on a local
.hypothesis/ directory or on machine speed.
"""

from hypothesis import settings

settings.register_profile("ramex", derandomize=True, database=None, deadline=None)
settings.load_profile("ramex")
