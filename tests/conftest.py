"""Suite-wide hypothesis profile.

Examples are derived from each test's source rather than drawn at random,
so a run is reproducible offline, and no example database is kept.
Hypothesis still writes its cache of source constants to
``.hypothesis/constants/``, which ``.gitignore`` covers.  Tests that pass
their own ``@settings`` still inherit these values for the fields they
leave out.
"""

from hypothesis import settings

settings.register_profile("krallops", derandomize=True, deadline=None, database=None)
settings.load_profile("krallops")
