"""Version information for the :mod:`repro` package."""

__version__ = "3.2.0"
