"""One Hypothesis profile for the whole suite: every property test draws
the same examples on every run (derandomized) and has no per-example
deadline, so a slow host cannot fail it.  Each test's `@settings` sets
only its number of examples."""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")
