"""Version information for the :mod:`repro` package."""

__version__ = "6.2.0"
