"""End-to-end benchmark of the repro package.

Five workloads, each timed from outside the program around the public
call a user makes: two paper sweeps (``run_experiment``), two in-process
serve paths (``DispatchServer.run_stream``) and ``repro serve`` over its
socket.  See README.md for the workloads, metrics and how to read a
spans file.  Entry points: ``python -m benchmarks.e2e`` and
``python3 benchmarks/e2e/run.py``.
"""
