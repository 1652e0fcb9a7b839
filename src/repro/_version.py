"""Version information for the :mod:`repro` package."""

__version__ = "3.1.0"
