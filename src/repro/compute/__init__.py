"""Compute-side models: dataflow engines, tiling, trace compilation."""
