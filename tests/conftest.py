from hypothesis import settings

# Fixed examples, no timing limit and no example database, so every run
# of the suite draws the same cases.
settings.register_profile("tatekit", derandomize=True, deadline=None, database=None)
settings.load_profile("tatekit")
