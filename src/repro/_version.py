"""Version information for the :mod:`repro` package."""

__version__ = "9.0.0"
