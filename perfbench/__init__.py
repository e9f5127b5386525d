"""End-to-end benchmark of the ALP reproduction (see perfbench/README.md).

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve-cold --seed 1 --seconds 10 --trace 0

The package is the benchmark's own code: it drives the program through
``repro.api``, the ``alp-repro serve``/``shard-serve`` CLI and
``repro.server.client.ServerClient``, and changes no program source.
"""
