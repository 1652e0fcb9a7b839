"""Version information for the :mod:`repro` package."""

__version__ = "8.0.0"
