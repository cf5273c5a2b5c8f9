"""Diagnosis benchmark: end-to-end and per-layer cost of a PerfSight round."""
