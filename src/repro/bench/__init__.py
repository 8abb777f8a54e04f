"""Experiment harness: drivers for every figure (F1-F8) and experiment
(T1-T11), shared scenarios, and table rendering.

The package re-exports nothing: import from the submodule that holds
what you need (``repro.bench.experiments``, ``.figures``,
``.ablations``, ``.scorecard``, ``.scenarios``, ``.reporting``), so a
run that needs one scenario builder does not load every experiment.
"""
