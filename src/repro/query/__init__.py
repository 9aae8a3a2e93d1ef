"""Query execution: operator cascades over retrieved video (paper §6.2)."""
