"""The repository benchmark: three workloads, end-to-end and per-layer metrics.

Run ``python3 perfbench/run.py --help`` from the repository root, and see
``perfbench/README.md`` for what each workload and metric measures.
"""
