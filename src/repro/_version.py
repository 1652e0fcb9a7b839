"""Version information for the :mod:`repro` package."""

__version__ = "2.0.0"
