"""The benchmark's product-building and fingerprint jobs give the bytes
of its oracle.

Every pool entry of the alpha-bnb workload in perfbench/workloads.py that
builds a strong product (the `alpha --power` CLI jobs and the
`beta_pairs` and `diagonal` library jobs), and every `fingerprint` entry
of the ring-scale workload, is run in-process, and the sha256 of its
output is compared with perfbench/expected.json, the oracle the
benchmark checks every pass against: the sha256 of the CLI's stdout, or
of the canonical JSON of the library call's value.  So byte drift in a
product's or a Cayley graph's rows, fingerprint or certificate fails
here, before a benchmark run.  The benchmark files are only read.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import types

import pytest

import paleyfq
from paleyfq import cli
from paleyfq.rings import factor_prime_power

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _workloads():
    """perfbench/workloads.py, compiled from its source (no bytecode is
    written next to it)."""
    path = os.path.join(BENCH, "workloads.py")
    module = types.ModuleType("perfbench_workloads")
    sys.modules[module.__name__] = module  # dataclasses looks its module up
    try:
        with open(path) as fh:
            exec(compile(fh.read(), path, "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


def _builds_a_product(job) -> bool:
    if job["kind"] == "cli":
        return job["argv"][0] == "alpha" and "--power" in job["argv"]
    return job["call"] in ("beta_pairs", "diagonal")


def _ring(text):
    """The ring of a job argument such as "fq:729" or "zmod:3003"."""
    kind, _, value = text.partition(":")
    if kind == "fq":
        return paleyfq.make_ring(paleyfq.RingSpec.field(*factor_prime_power(int(value))))
    return paleyfq.make_ring(paleyfq.RingSpec.zmod(int(value)))


WORKLOADS = _workloads()
JOBS = [job for job in WORKLOADS.all_jobs("alpha-bnb") if _builds_a_product(job)]
FINGERPRINTS = [job for job in WORKLOADS.all_jobs("ring-scale") if job.get("call") == "fingerprint"]
LIB = {"beta_pairs": paleyfq.beta_pair_set, "diagonal": paleyfq.diagonal_indep_set}

with open(os.path.join(BENCH, "expected.json")) as fh:
    EXPECTED = json.load(fh)


def test_the_replay_covers_every_product_job():
    assert len(JOBS) == 18
    assert {job["call"] for job in JOBS if job["kind"] == "lib"} == set(LIB)


@pytest.mark.parametrize("job", JOBS, ids=[job["id"] for job in JOBS])
def test_product_job_matches_the_benchmark_oracle(job):
    if job["kind"] == "cli":
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(list(job["argv"]))
        text = out.getvalue()
    else:
        rc = 0
        text = json.dumps(LIB[job["call"]](*job["args"]).to_json(),
                          sort_keys=True, separators=(",", ":"))
    want = EXPECTED[job["id"]]
    assert rc == want["rc"]
    assert hashlib.sha256(text.encode()).hexdigest() == want["sha256"]


def test_the_replay_covers_every_fingerprint_job():
    assert sorted((job["args"][0], job["args"][1]) for job in FINGERPRINTS) == [
        ("fq:1024", 3), ("fq:1024", 6), ("fq:729", 2), ("fq:729", 6),
        ("zmod:2805", 2), ("zmod:3003", 2)]


@pytest.mark.parametrize("job", FINGERPRINTS, ids=[job["id"] for job in FINGERPRINTS])
def test_fingerprint_job_matches_the_benchmark_oracle(job):
    ring, k = job["args"]
    fingerprint = paleyfq.graph_fingerprint(paleyfq.build_paley(_ring(ring), k))
    want = EXPECTED[job["id"]]
    assert want["rc"] == 0
    assert hashlib.sha256(json.dumps(fingerprint).encode()).hexdigest() == want["sha256"]
