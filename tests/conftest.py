"""Test-suite settings shared by every module."""

from hypothesis import settings

# Examples build and run small networks, so their time varies with the
# machine's load; a per-example deadline would only make the suite flaky.
settings.register_profile("strnn", deadline=None)
settings.load_profile("strnn")
