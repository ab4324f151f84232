"""Repository benchmark: workloads, layer tracing and reports (see run.py)."""
