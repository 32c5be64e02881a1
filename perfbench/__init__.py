"""Benchmark for the geotile engine; entry point ``perfbench/run.py``."""
