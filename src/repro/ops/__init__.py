"""Operator substrate: the six query operators and the consumer set."""
