"""Hypothesis settings: CI (which sets ``CI``) draws the same examples on every run."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
