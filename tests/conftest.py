"""Test-suite settings shared by every module."""

from hypothesis import settings

# Property tests draw the same examples on every run, keep no example
# database, and fail no example for being slow on a loaded machine.
settings.register_profile("compwiretap", deadline=None, derandomize=True,
                          database=None)
settings.load_profile("compwiretap")
