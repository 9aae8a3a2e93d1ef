"""VStore's contribution: backward derivation of configuration (paper §4)."""
