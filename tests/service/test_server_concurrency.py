"""Concurrency through the wire: many clients, one threaded server.

The ``ThreadingHTTPServer`` spawns a thread per request; all of them
funnel into one shared workspace.  Hammering the server from several
client threads must produce identical payloads everywhere, no server
errors, and no duplicate DPs beyond the cold misses.

The same hammer runs against the two-worker cluster: after the warm-up
request, the workers' summed counters still account for at most one
computation per pair, cluster-wide (they share the derived database).
"""

import threading

import pytest

from repro.client import RemoteWorkspace


@pytest.fixture(params=["single", "cluster"])
def target_url(request, server, cluster_url):
    """The base URL under bombardment: one process, then the cluster."""
    if request.param == "single":
        return server.url
    return cluster_url


def test_many_clients_hammering_one_server(target_url):
    clients = [RemoteWorkspace(target_url) for _ in range(6)]
    expected = clients[0].matrix(spec="PA").to_dict()
    expected_diff = clients[0].diff("r01", "r02", spec="PA").to_dict()

    errors = []
    barrier = threading.Barrier(len(clients))

    def hammer(client: RemoteWorkspace) -> None:
        try:
            barrier.wait(timeout=30)
            for _ in range(3):
                assert client.matrix(spec="PA").to_dict() == expected
                assert (
                    client.diff("r01", "r02", spec="PA").to_dict()
                    == expected_diff
                )
                assert client.runs(spec="PA")
        except Exception as exc:  # noqa: BLE001 - collected for assert
            errors.append(exc)

    threads = [
        threading.Thread(target=hammer, args=(client,))
        for client in clients
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not errors, errors

    stats = clients[0].stats
    assert stats["server_errors"] == 0
    # 4 fixture runs → 6 distance keys and (at most) the same number
    # of directed script keys; nothing was ever computed twice —
    # whether one process answered or two workers did.
    assert stats["computed_pairs"] <= 6
    assert stats["computed_scripts"] <= 6
