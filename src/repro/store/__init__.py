"""Storage backend substrate: parquet-backed segment store (LMDB substitute)."""
