from hypothesis import settings

# Property tests draw the same examples on every run, so the suite stays
# deterministic and its time stable.
settings.register_profile(
    "projlab", derandomize=True, deadline=None, max_examples=100, database=None
)
settings.load_profile("projlab")
