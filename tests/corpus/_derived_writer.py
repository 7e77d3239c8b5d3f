"""A child process that writes every derived tier of one store.

Run as ``python _derived_writer.py MODE STORE WRITER SEED``:

* ``interleave`` — a bounded run of puts into every tier (keys shared
  by all writers plus keys of this writer only), flushing at seeded
  points and always once at the end;
* ``loop`` — puts and flushes forever, printing ``committed <i>`` after
  each flush returns, i.e. once every key up to ``i`` is durable (the
  parent kills this one).

Values are functions of the key, so writers agree on shared keys.
"""

import random
import sys
import time

from repro.core.edit_script import PathOperation
from repro.corpus.script_cache import encode_script
from repro.corpus.service import DiffService

#: Rounds of the ``interleave`` mode.
ROUNDS = 24
#: Keys every writer puts (the overlap).
SHARED = 16


def distance_of(key: str) -> float:
    return float(sum(key.encode())) / 7.0


def script_of(key: str) -> dict:
    label = f"m{len(key) % 5}"
    return encode_script(
        distance_of(key),
        [
            PathOperation(
                kind="path-insertion",
                cost=distance_of(key),
                length=2,
                source_label="A",
                sink_label="B",
                path_labels=("A", label, "B"),
            )
        ],
    )


def put_everywhere(service: DiffService, key: str) -> None:
    service.cache.put(key, distance_of(key))
    record = script_of(key)
    service.script_cache.put(key, record)
    service.script_index.add(key, record)


def interleave(service: DiffService, writer: int, rng: random.Random) -> None:
    runs = service.runs("PA")
    for round_ in range(ROUNDS):
        put_everywhere(service, f"shared-{rng.randrange(SHARED)}")
        put_everywhere(service, f"w{writer}-{round_}")
        if rng.random() < 0.3:
            # Fingerprint an overlapping slice of the runs (this
            # commits the fingerprint rows it adds).
            service.fingerprints("PA", rng.sample(runs, 2))
        if rng.random() < 0.4:
            service.flush()
        time.sleep(rng.random() * 0.004)
    for index in range(SHARED):
        put_everywhere(service, f"shared-{index}")
    service.fingerprints("PA", runs[writer::3])
    service.flush()


def loop(service: DiffService, rng: random.Random) -> None:
    index = 0
    while True:
        for _ in range(rng.randint(1, 6)):
            put_everywhere(service, f"k{index}")
            index += 1
        service.flush()
        print(f"committed {index - 1}", flush=True)


def main() -> None:
    mode, store, writer, seed = sys.argv[1:5]
    service = DiffService(store, backend="serial")
    rng = random.Random(f"{seed}|{writer}")
    if mode == "interleave":
        interleave(service, int(writer), rng)
    else:
        loop(service, rng)


if __name__ == "__main__":
    main()
