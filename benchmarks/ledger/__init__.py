"""The placement ledger: the repo's one repeatable benchmark.

Six seeded workloads drive the library kernel, the threaded and supervised
fabrics, the proc fabric behind the asyncio/binary wire, the default
``repro serve`` stack and a contended open loop. Every number is taken from
outside ``src/`` by the benchmark's own clock around public calls; see
``README.md`` in this directory for the layer → end-to-end table.
"""
