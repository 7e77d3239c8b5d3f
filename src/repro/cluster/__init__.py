"""Pre-forked multi-process serving: ``repro serve --workers N``.

:mod:`repro.cluster.supervisor` binds one socket and supervises N
ordinary diff servers that accept from it; no process forwards a
request.  :mod:`repro.cluster.server` is each worker's app, which
answers ``/healthz``, ``/stats`` and ``/metrics`` for the whole
cluster.  Workers share the store: its derived-state database and its
stream journals, so a restarted worker starts warm and a stream resumes
on any worker.  See ``docs/SCALING.md``.
"""
