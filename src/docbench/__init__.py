"""Desk-scale benchmark engine for dual-modality document classification."""

__version__ = "0.1.0"
