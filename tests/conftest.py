"""One hypothesis profile for every property test.

Examples are derandomized and no database is kept, so every run checks the
same cases; each test sets its own `max_examples`.
"""

from hypothesis import HealthCheck, settings

settings.register_profile("derandomized", deadline=None, derandomize=True, database=None,
                          suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("derandomized")
