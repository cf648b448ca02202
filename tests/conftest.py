"""Test-suite settings shared by every module.

Hypothesis runs derandomized: each property test draws the same examples on
every run (seeded from the test itself), so a pass or a failure depends on
the code alone.  Derandomized runs keep no example database.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")
