"""Exact computation with finitely generated n-valued groups."""
