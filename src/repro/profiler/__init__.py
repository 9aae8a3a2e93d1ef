"""Profiling substrate: measures (accuracy, speed) of operators and
(size, retrieval speed) of storage formats on sample clips, with memoization
(the configuration-overhead accounting of paper §6.4 / Fig 13)."""
