"""Synthetic video substrate: dataset content profiles and frame generators."""
