"""The multi-core NPU simulator core: engine, cores, sharing, metrics."""
