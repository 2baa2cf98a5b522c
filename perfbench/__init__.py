"""Figure-regeneration benchmark of the mNPUsim reproduction.

``perfbench/run.py`` is the entry point; :mod:`perfbench.workloads`
defines what each workload regenerates and :mod:`perfbench.tracing`
records the per-layer split of the traced run.  See ``README.md`` here.
"""
