"""Performance benchmark for wscluster.

Run ``python3 wscbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; see ``wscbench/NOTES.md``.
"""
