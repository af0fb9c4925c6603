"""Benchmark of seusim's fault-injection campaigns and compression sweep."""
