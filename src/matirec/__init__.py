"""Temporal-slab POI recommendation: ingest, slab extraction, latent model,
hybrid recommendation, and exclusion-protocol evaluation."""

__version__ = "0.1.0"
