"""mNPUsim reproduction: a multi-core NPU simulator in Python.

This package reproduces *mNPUsim: Evaluating the Effect of Sharing Resources
in Multi-core NPUs* (IISWC 2023).  It provides:

* a cycle-level, event-driven multi-core NPU simulator with a detailed
  shared memory system (DRAM channels/banks, TLBs, page-table walkers),
* the eight benchmark DNN topologies the paper evaluates,
* the resource-sharing levels (``Ideal``, ``Static``, ``+D``, ``+DW``,
  ``+DWT``) and partitioning schemes studied in the paper, and
* the experiment harness that regenerates every table and figure of the
  paper's evaluation section.

Quickstart::

    from repro import MultiCoreNPUSim, SharingLevel, zoo, presets

    system = presets.cloud_npu(num_cores=2, sharing=SharingLevel.DWT)
    sim = MultiCoreNPUSim(system, [zoo.mini("ncf"), zoo.mini("gpt2")])
    result = sim.run()
    print(result.cycles_per_core)
"""

from importlib import import_module

#: Quickstart name -> the module it is read from.  Each resolves on first
#: access (PEP 562), so ``import repro.experiments`` loads only the
#: planning layer and never the simulator stack.
_LAZY = {
    "MultiCoreNPUSim": "repro.core.simulator",
    "MixResult": "repro.core.simulator",
    "WorkloadResult": "repro.core.simulator",
    "SharingLevel": "repro.core.sharing",
    "speedup": "repro.core.metrics",
    "slowdown": "repro.core.metrics",
    "geomean": "repro.core.metrics",
    "fairness": "repro.core.metrics",
    "presets": "repro.config",
    "zoo": "repro.models",
}

__version__ = "1.0.0"

__all__ = [
    "MultiCoreNPUSim",
    "MixResult",
    "WorkloadResult",
    "SharingLevel",
    "zoo",
    "presets",
    "speedup",
    "slowdown",
    "geomean",
    "fairness",
    "__version__",
]


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = getattr(import_module(module), name)
    globals()[name] = value
    return value
