"""Service-level benchmark: seeded traffic mixes through ``CertaintyService``.

Run ``python3 servicebench/run.py --help`` from the repository root.
"""
