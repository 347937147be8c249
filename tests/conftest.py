"""Shared test settings: every hypothesis property is deterministic.

The profile draws the same examples on every run and keeps no example
database, so a property fails or passes the same way on any machine.
"""

from hypothesis import settings

settings.register_profile("deterministic", deadline=None, derandomize=True, database=None)
settings.load_profile("deterministic")
