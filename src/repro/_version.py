"""Version information for the :mod:`repro` package."""

__version__ = "4.1.0"
