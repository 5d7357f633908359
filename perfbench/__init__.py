"""End-to-end and per-layer benchmark for qeclab; run ``python3 perfbench/run.py --help``."""
