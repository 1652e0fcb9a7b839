"""Version information for the :mod:`repro` package."""

__version__ = "4.2.0"
