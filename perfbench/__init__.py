"""Converse runtime benchmark: four workloads on the sim and mp machine
layers, end-to-end metrics and a per-layer trace.  Run ``perfbench/run.py``.
"""
