"""End-to-end and per-layer benchmark of the ``repro`` serving stack.

Run it from the repository root as ``python3 perfbench/run.py --workload
<gs-sweep|dc-stream|short-fleet> --seed N --seconds S --trace 0|1``; see
``perfbench/README.md`` for what each workload and metric is for.
"""
