"""One Hypothesis profile for the suite: every property test is
derandomized, so a run draws the same examples each time, and has no
deadline, since timings on a loaded machine are not what the tests check."""

from hypothesis import settings

settings.register_profile("clarikit", derandomize=True, deadline=None)
settings.load_profile("clarikit")
