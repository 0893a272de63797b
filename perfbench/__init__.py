"""Benchmark of the sivmdcs simulator and analysis chain (run ``perfbench/run.py``)."""
