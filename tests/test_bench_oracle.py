"""The benchmark's product-building, solver-calling and fingerprint jobs
give the bytes of its oracle.

Every pool entry of the alpha-bnb workload in perfbench/workloads.py that
builds a strong product (the `alpha --power` CLI jobs and the
`beta_pairs` and `diagonal` library jobs) or calls the solver (every
`alpha` and `bounds` CLI job and the `capacity` and `clique` library
jobs), every entry of the powerfree-verify workload (`construct`, and
the `root_trips` and `greedy` library jobs), and every `fingerprint`
entry of the ring-scale workload, is run in-process, and the sha256 of
its output is compared with perfbench/expected.json, the oracle the
benchmark checks every pass against: the sha256 of the CLI's stdout, or
of the canonical JSON of the library call's value (a capacity sandwich
with its floats rounded to 12 significant digits, and roots and greedy
sets as polynomial codes, as the benchmark records them; a root job's
inputs are the benchmark's seeded powers).  So byte drift in a
product's or a Cayley graph's rows, fingerprint or certificate, in any
answer the solver gives the benchmark, or in a k-th root, polynomial
power or greedy set, fails here, before a benchmark run.  The benchmark
files are only read.
"""

import contextlib
import hashlib
import io
import json
import os
import random
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


def _calls_the_solver(job) -> bool:
    if job["kind"] == "cli":
        return job["argv"][0] in ("alpha", "bounds", "construct")
    return job["call"] in ("capacity", "clique")


def _field(q):
    return paleyfq.make_ring(paleyfq.RingSpec.field(*factor_prime_power(q)))


def _round(x):
    return float(f"{x:.12g}")


def _capacity(q, k, max_n):
    bounds = paleyfq.capacity_bounds(_field(q), k, max_n)
    return {"lower": _round(bounds.lower), "upper": _round(bounds.upper),
            "n_used": bounds.n_used}


def _clique(q, k):
    return paleyfq.clique_number(paleyfq.build_paley(_field(q), k))


def _root_trips(q, k, count, seed, deg):
    """The codes of the k-th roots of the benchmark's inputs: the k-th
    powers of `count` seeded random polynomials of degree < deg."""
    R = _field(q)
    rng = random.Random(seed)
    us = [paleyfq.decode_poly(R, rng.randrange(q**deg)) ** k for _ in range(count)]
    roots = [paleyfq.kth_root(u, k) for u in us]
    assert all(r is not None and r**k == u for u, r in zip(us, roots))
    return [paleyfq.encode_poly(r) for r in roots]


def _greedy(q, n, k):
    return [paleyfq.encode_poly(u) for u in paleyfq.greedy_difference_free(_field(q), n, k)]


WORKLOADS = _workloads()
JOBS = [job for job in WORKLOADS.all_jobs("alpha-bnb") if _builds_a_product(job)]
SOLVER_JOBS = [job for workload in ("alpha-bnb", "powerfree-verify")
               for job in WORKLOADS.all_jobs(workload)
               if _calls_the_solver(job) and not _builds_a_product(job)]
FINGERPRINTS = [job for job in WORKLOADS.all_jobs("ring-scale") if job.get("call") == "fingerprint"]
POLY_JOBS = [job for job in WORKLOADS.all_jobs("powerfree-verify") if job["kind"] == "lib"]
LIB = {"beta_pairs": lambda q, k: paleyfq.beta_pair_set(q, k).to_json(),
       "diagonal": lambda q, k: paleyfq.diagonal_indep_set(q, k).to_json(),
       "capacity": _capacity, "clique": _clique,
       "root_trips": _root_trips, "greedy": _greedy}

with open(os.path.join(BENCH, "expected.json")) as fh:
    EXPECTED = json.load(fh)


def test_the_replay_covers_every_product_job():
    assert len(JOBS) == 18
    assert {job["call"] for job in JOBS if job["kind"] == "lib"} == {"beta_pairs", "diagonal"}


def _replay(job):
    """(exit code, sha256 of the output) of a job run in-process."""
    if job["kind"] == "cli":
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(list(job["argv"]))
        text = out.getvalue()
    else:
        rc = 0
        text = json.dumps(LIB[job["call"]](*job["args"]), sort_keys=True,
                          separators=(",", ":"))
    return rc, hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("job", JOBS, ids=[job["id"] for job in JOBS])
def test_product_job_matches_the_benchmark_oracle(job):
    want = EXPECTED[job["id"]]
    assert _replay(job) == (want["rc"], want["sha256"])


def test_the_replay_covers_every_solver_job():
    kinds = [job["argv"][0] if job["kind"] == "cli" else job["call"] for job in SOLVER_JOBS]
    assert {kind: kinds.count(kind) for kind in set(kinds)} == {
        "alpha": 5, "bounds": 3, "capacity": 2, "clique": 2, "construct": 11}


@pytest.mark.parametrize("job", SOLVER_JOBS, ids=[job["id"] for job in SOLVER_JOBS])
def test_solver_job_matches_the_benchmark_oracle(job):
    want = EXPECTED[job["id"]]
    assert _replay(job) == (want["rc"], want["sha256"])


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


def test_the_replay_covers_every_root_and_greedy_job():
    assert sorted((job["call"], *job["args"][:2]) for job in POLY_JOBS) == [
        ("greedy", 2, 9), ("greedy", 3, 5)] + [("root_trips", 7, 3)] * 3 + [
        ("root_trips", 9, 2)] * 3


@pytest.mark.parametrize("job", POLY_JOBS, ids=[job["id"] for job in POLY_JOBS])
def test_root_and_greedy_job_matches_the_benchmark_oracle(job):
    want = EXPECTED[job["id"]]
    assert _replay(job) == (want["rc"], want["sha256"])
