from hypothesis import settings

# ``pytest --hypothesis-profile=ci`` draws the same examples on every run, so a
# CI failure reproduces; no test may fail for taking long on a slow runner.
settings.register_profile("ci", derandomize=True, deadline=None)
