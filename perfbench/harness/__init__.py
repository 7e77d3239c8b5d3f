"""The repository benchmark's harness: inputs, workloads, counters, spans.

Everything here drives the ``repro`` package from the outside, through
its public API (``repro.Workspace``, ``repro serve`` and
``repro.client.RemoteWorkspace``).  ``perfbench/run.py`` is the entry
point; see ``perfbench/README.md`` for the workloads and metrics.
"""
