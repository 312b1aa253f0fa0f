"""End-to-end and per-layer benchmark of the maxtherm package.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; see ``perfbench/NOTES.md``.
"""
