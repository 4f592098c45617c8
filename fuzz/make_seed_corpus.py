#!/usr/bin/env python3
"""Regenerate the committed seed corpora under fuzz/corpus/.

The seeds are valid (or near-valid) inputs for each harness so that
mutation starts from deep in each parser's grammar instead of from
random bytes.  Run from the repo root.
"""

import json
import os
import shutil
import struct

BASE = "fuzz/corpus"

COUNTERS = {
    "refs": 1000, "misses": 40, "pb_hits": 12, "demand_fetches": 28,
    "prefetches_issued": 30, "prefetches_suppressed": 2,
    "state_ops": 60, "pb_evicted_unused": 5, "footprint_pages": 128,
    "context_switches": 0,
}
CONFIG = {
    "tlb_entries": 64, "tlb_assoc": 4, "pb_entries": 16,
    "page_bytes": 4096, "train_on_all_refs": False,
    "context_switch_interval": 0,
}
SWEEP = {
    "type": "sweep", "workloads": ["mcf", "mix:mcf+gcc@1k"],
    "mechanisms": ["dp", "hybrid(dp+sp)"], "refs": 5000,
    "mode": "functional", "shards": 2, "shard_warmup": "replay",
    "pass_mode": "multi", "config": CONFIG,
}

JSON_SEEDS = {
    "sweep": SWEEP,
    "nested": {"a": [1, [2, [3, [4, {"b": [None, True, False]}]]]],
               "c": {"d": {"e": {"f": "g"}}}},
    "numbers": [0, -1, 18446744073709551615, 1.5, -2.25e-3, 1e308,
                123456789012345678901234567890],
    "strings": ["", "plain", "esc \" \\ / \b \f \n \r \t",
                "unicode é € \U0001f600"],
    "scalars": True,
}

SPEC_SEEDS = {
    "app": "mcf",
    "app_prefixed": "app:mcf",
    "trace": "trace:path/to/run.tpf",
    "mix": "mix:mcf+gcc@100k",
    "mix_trace": "mix:mcf+trace:x.tpf@5000",
    "shard": "mcf#2/8",
    "dp_params": "dp(rows=256,assoc=dm,slots=2)",
    "mp_params": "mp(rows=1024,assoc=2w)",
    "asp": "asp(assoc=fa)",
    "sp_degree": "sp(degree=3)",
    "asq": "sp(adaptive)",
    "rp": "rp(reach=2)",
    "hybrid": "hybrid(dp+sp)",
    "label_dp": "DP,256,D",
    "alias": "markov",
}


def varint(v):
    out = b""
    while v >= 0x80:
        out += bytes([(v & 0x7f) | 0x80])
        v >>= 7
    return out + bytes([v])


def zigzag(v):
    return (v << 1) ^ (v >> 63)


def trace(records):
    """A .tpf image: a header counting the records, then their bytes."""
    return b"TPFT" + struct.pack("<IQ", 1, len(records)) + b"".join(records)


def record(vaddr_delta, pc_delta=0, icount_delta=1, write=False):
    return (bytes([int(write)]) + varint(zigzag(vaddr_delta)) +
            varint(zigzag(pc_delta)) + varint(icount_delta))


# A varint that never ends (a flag byte, then ten continuation bytes)
# followed by twelve five-byte records: TraceReader meets it in its
# unchecked fast path, not in a file's last 31 bytes.
MALFORMED_MID = trace([record(4096 * i) for i in range(1, 4)] +
                      [b"\x00" + b"\xff" * 10] +
                      [record(64, i % 2, 2, i % 3 == 0) for i in range(12)])


def varint_of_length(length, top):
    """The smallest or (top) largest value whose varint is length bytes."""
    if top:
        return (1 << min(64, 7 * length)) - 1
    return 0 if length == 1 else 1 << (7 * (length - 1))


# Every field takes every varint length from 1 to 10 (both ends of
# each length's range) next to fields of other lengths, so mutation
# starts from the decoder's one- and two-byte shortcuts and its loop
# alike.  The last records sit in the file's final 31 bytes, where
# TraceReader decodes with bounds checks.
MIXED_LENGTHS = trace([
    bytes([i % 2]) + b"".join(
        varint(varint_of_length(
            length if f == field else 1 + (length + 3 * f + field) % 10,
            top))
        for f in range(3))
    for i, (field, length, top) in enumerate(
        (field, length, top) for field in range(3)
        for length in range(1, 11) for top in (False, True))])


def frame(*docs):
    out = b""
    for doc in docs:
        payload = json.dumps(doc).encode()
        out += struct.pack("<I", len(payload)) + payload
    return out


FRAME_SEEDS = {
    "ping": frame({"type": "ping"}),
    "sweep": frame(SWEEP),
    "stats_then_shutdown": frame({"type": "stats"},
                                 {"type": "shutdown"}),
    "worker_hello": frame({"type": "worker_hello", "protocol": 1,
                           "threads": 2}),
    "worker_welcome": frame({"type": "worker_welcome", "worker": 7,
                             "heartbeat_ms": 500}),
    "lease": frame({"type": "lease", "worker": 7}),
    "lease_wait": frame({"type": "lease", "worker": 7, "wait": True}),
    "heartbeat": frame({"type": "heartbeat", "worker": 7}),
    "lease_grant": frame({"type": "lease_grant", "lease": 3,
                          "chain": False,
                          "jobs": [{"workload": "mcf",
                                    "mechanism": "DP,256,D",
                                    "refs": 1000,
                                    "config": CONFIG}]}),
    "cell_result": frame({"type": "cell_result", "lease": 3,
                          "results": [{"workload": "mcf",
                                       "mechanism": "DP,256,D",
                                       "counters": COUNTERS}]}),
    "result_ok": frame({"type": "result_ok", "accepted": True}),
    "cell_reply": frame({"type": "cell", "index": 0,
                         "workload": "mcf", "mechanism": "DP,256,D",
                         "mode": "functional", "cached": False,
                         "counters": COUNTERS}),
    "done": frame({"type": "done", "cells": 4, "cache_hits": 1,
                   "simulated": 3}),
    # A geometry the simulator cannot build: rejected at decode.
    "sweep_zero_page": frame(dict(SWEEP, config=dict(CONFIG,
                                                     page_bytes=0))),
    # A 32-bit geometry field past 2^32: rejected at decode, never
    # truncated to the 128-entry TLB its low word names.
    "sweep_wide_tlb": frame(dict(SWEEP, config=dict(
        CONFIG, tlb_entries=4294967424))),
    "truncated": frame({"type": "ping"})[:6],
    # kMaxFrameBytes is an inclusive limit; the first rejected
    # length is one past it.
    "oversize_prefix": struct.pack("<I", 0x04000001) + b"x" * 16,
}


def main():
    for sub in ("json", "spec", "trace", "frame"):
        os.makedirs(os.path.join(BASE, sub), exist_ok=True)

    for name, doc in JSON_SEEDS.items():
        with open(f"{BASE}/json/{name}.json", "w") as f:
            f.write(json.dumps(doc))
    with open(f"{BASE}/json/null.json", "w") as f:
        f.write("null")

    for name, text in SPEC_SEEDS.items():
        with open(f"{BASE}/spec/{name}.txt", "w") as f:
            f.write(text)

    shutil.copyfile("tests/data/sample.tpf",
                    f"{BASE}/trace/sample.tpf")
    with open("tests/data/sample.tpf", "rb") as f:
        sample = f.read()
    with open(f"{BASE}/trace/truncated.tpf", "wb") as f:
        f.write(sample[:64])
    with open(f"{BASE}/trace/magic_only.tpf", "wb") as f:
        f.write(b"TPFT")
    with open(f"{BASE}/trace/empty.tpf", "wb") as f:
        f.write(b"")
    with open(f"{BASE}/trace/malformed_mid.tpf", "wb") as f:
        f.write(MALFORMED_MID)
    with open(f"{BASE}/trace/mixed_lengths.tpf", "wb") as f:
        f.write(MIXED_LENGTHS)

    for name, blob in FRAME_SEEDS.items():
        with open(f"{BASE}/frame/{name}.bin", "wb") as f:
            f.write(blob)

    for sub in ("json", "spec", "trace", "frame"):
        files = sorted(os.listdir(f"{BASE}/{sub}"))
        print(f"{sub}: {len(files)} seeds: {files}")


if __name__ == "__main__":
    main()
