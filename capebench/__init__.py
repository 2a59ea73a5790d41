"""CAPE benchmark: four workloads, end-to-end and per-layer metrics."""
