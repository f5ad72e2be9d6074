"""The repro benchmark: end-to-end and per-layer metrics of the user paths.

See bench/README.md; the entry points are ``python -m bench.run`` and
``python -m bench.compare``.
"""
