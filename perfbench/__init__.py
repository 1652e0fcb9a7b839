"""Layered benchmark of the registered experiments (see README.md)."""
