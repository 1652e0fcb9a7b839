"""Version information for the :mod:`repro` package."""

__version__ = "5.2.0"
