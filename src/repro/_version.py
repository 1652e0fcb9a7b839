"""Version information for the :mod:`repro` package."""

__version__ = "7.0.0"
