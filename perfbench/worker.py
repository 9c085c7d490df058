"""One benchmark pass in a fresh interpreter.

Usage (from run.py): python3 perfbench/worker.py <spawn-monotonic> [--setup-only]
with a JSON request {"root", "jobs", "trace"} on stdin.

The worker imports paleyfq from <root>/src and builds the CLI parser, which
is the set-up that setup_s measures from the parent's spawn time (the
monotonic clock is system-wide on Linux).  It then runs the jobs one after
another (a closed loop), timing the loop, while a speed probe samples how
fast the machine runs plain Python at that moment.  It reads its peak RSS,
and only then re-checks every independence certificate on freshly built
graphs, with tracing removed, so the checks neither count towards the
timings nor show up in the spans.  It prints one JSON object on stdout.
"""

import sys
import time

SPAWN = float(sys.argv[1])

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402

PROBE_PERIOD_S = 0.1
PROBE_ITERS = 1500


class SpeedProbe:
    """Times a fixed ~0.5 ms kernel ten times a second, from SIGALRM, while
    the jobs run.  On a shared VM the speed of the same code drifts by 2x
    over seconds; the typical kernel time over a pass measures the speed
    the jobs actually got, so run.py can rescale the pass to a reference
    speed.

    The kernel is integer arithmetic and list stores in plain Python, like
    most of the program.  Of the kernels tried it tracked the passes best
    (coefficient of variation of rescaled passes 3-6% against 13-19% raw);
    adding a sum over a 2 MB array helped ring-scale a little and hurt
    alpha-bnb.  It allocates no container, so it never triggers a garbage
    collection of the program's objects.  The handler runs between
    bytecodes of the main thread; no thread is started."""

    def __init__(self):
        self.samples: list[float] = []
        self._buf = [0] * 256

    def _kernel(self) -> None:
        x, buf = 1, self._buf
        for i in range(PROBE_ITERS):
            x = (x * 1103515245 + 12345) & 0x1FFFFFFFFFFFFFFF
            buf[x & 255] = x ^ i

    def typical(self) -> float | None:
        """Mean kernel time over the fastest 80% of samples.  A preemption
        that lands in a 0.5 ms sample inflates it tenfold, so a plain mean
        rests on a few rare samples; dropping the slowest fifth cut the
        rescaled pass-to-pass variation from 6% to 3% on powerfree-verify
        and from 4.5% to 3% on ring-scale."""
        if not self.samples:
            return None
        kept = sorted(self.samples)[:max(1, len(self.samples) * 4 // 5)]
        return sum(kept) / len(kept)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self._kernel()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _setup(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import paleyfq
    import paleyfq.cli

    if not os.path.abspath(paleyfq.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"paleyfq imported from {paleyfq.__file__}, not {src}")
    paleyfq.cli._build_parser()
    return paleyfq


def _digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _round(x: float) -> float:
    # the CLI's own reproducible rounding: 12 significant digits
    return float(f"{x:.12g}")


# -- library jobs ------------------------------------------------------------
# Each takes the package and the job's arguments and returns what the
# library returned; summarize() turns that into the recorded value after
# the timed loop.  Functions are looked up on the package at call time, so
# traced runs go through the installed wrappers.

def _field(P, q):
    from paleyfq.rings import factor_prime_power

    return P.make_ring(P.RingSpec.field(*factor_prime_power(q)))


def _ring(P, text):
    kind, _, value = text.partition(":")
    if kind == "fq":
        return _field(P, int(value))
    return P.make_ring(P.RingSpec.zmod(int(value)))


def lib_fingerprint(P, ring, k):
    return P.graph_fingerprint(P.build_paley(_ring(P, ring), k))


def lib_theta_sweep(P, qmax, kmin, kmax):
    from paleyfq.rings import factorize

    rows = []
    for q in range(2, qmax + 1):
        if len(factorize(q)) != 1:
            continue
        R = _field(P, q)
        for k in range(kmin, kmax + 1):
            G = P.build_paley(R, k)
            if not G.symmetric:
                continue
            th = P.lovasz_theta(G).value
            comp = P.lovasz_theta_complement(G).value
            rows.append([q, k, th, comp])
    return rows


def lib_diagonal(P, q, k):
    return P.diagonal_indep_set(q, k)


def lib_beta_pairs(P, q, k):
    return P.beta_pair_set(q, k)


def lib_capacity(P, q, k, max_n):
    return P.capacity_bounds(_field(P, q), k, max_n)


def lib_clique(P, q, k):
    return P.clique_number(P.build_paley(_field(P, q), k))


def lib_greedy(P, q, n, k):
    return P.greedy_difference_free(_field(P, q), n, k)


def lib_root_trips(P, us, k):
    return [P.kth_root(u, k) for u in us]


def prepare(P, job):
    """Arguments of a library job.  Inputs that take library arithmetic to
    generate are built here, before the timed loop: the k-th powers b^k of
    seeded random b of degree < deg whose roots the job extracts."""
    if job["call"] != "root_trips":
        return job["args"]
    q, k, count, seed, deg = job["args"]
    R = _field(P, q)
    rng = random.Random(seed)
    return [P.decode_poly(R, rng.randrange(q**deg)) ** k for _ in range(count)], k


LIB = {
    "fingerprint": lib_fingerprint,
    "theta_sweep": lib_theta_sweep,
    "diagonal": lib_diagonal,
    "beta_pairs": lib_beta_pairs,
    "capacity": lib_capacity,
    "clique": lib_clique,
    "greedy": lib_greedy,
    "root_trips": lib_root_trips,
}


def run_job(P, job, args):
    """Runs one job; returns (exit code or exception name, raw output)."""
    try:
        if job["kind"] == "cli":
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = P.cli.main(list(job["argv"]))
            return rc, buf.getvalue()
        return 0, LIB[job["call"]](P, *args)
    except Exception as exc:  # a crash is a failed job, not a dead pass
        return type(exc).__name__, None


# -- after the timed loop: digests, facts and certificate re-checks ------------

def _opt(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _cert_ok(P, graph, vertices, fingerprint=None) -> bool:
    """Distinct members, independence and, when the certificate carries
    one, a matching fingerprint, checked on a graph built afresh."""
    tuples = [tuple(v) if isinstance(v, list) else v for v in vertices]
    return ((fingerprint is None or P.graph_fingerprint(graph) == fingerprint)
            and len(set(tuples)) == len(tuples)
            and P.verify_independent(graph, tuples))


def _summarize_cli(P, argv, out):
    payload = json.loads(out)
    cmd = argv[0]
    facts, cert_ok = {}, None
    if cmd == "alpha":
        G = P.build_paley(_ring(P, _opt(argv, "--ring")), int(_opt(argv, "--k")))
        power = int(_opt(argv, "--power", 1))
        H = G if power <= 1 else P.strong_power(G, power)
        cert = payload["certificate"]
        facts["alpha"] = payload["alpha"]
        cert_ok = (cert["size"] == payload["alpha"]
                   and _cert_ok(P, H, cert["vertices"], cert["graph_fingerprint"]))
    elif cmd == "theta":
        facts["theta"] = payload["theta"]["value"]
    elif cmd == "construct":
        facts["verified"] = payload.get("verified")
        facts["size"] = payload["size"]
        G = P.build_paley(_field(P, int(_opt(argv, "--q"))), int(_opt(argv, "--k")))
        H = P.strong_power(G, 2) if payload["variant"] == "power" else G
        cert_ok = _cert_ok(P, H, payload["base_certificate"])
    elif cmd == "graph":
        facts["order"] = payload["order"]
    elif cmd == "bounds":
        facts["r_k2"] = payload["r_k2"]
    return hashlib.sha256(out.encode()).hexdigest(), facts, cert_ok


def _summarize_lib(P, call, args, raw):
    facts, cert_ok = {}, None
    if call == "theta_sweep":
        value = [[q, k, _round(th), _round(comp)] for q, k, th, comp in raw]
        facts["rows"] = value
    elif call in ("diagonal", "beta_pairs"):
        q, k = args
        if call == "diagonal":
            H = P.complement_power_graph(q, k)
        else:
            H = P.strong_power(P.build_paley(_field(P, q), k), 2)
        value = raw.to_json()
        facts["size"] = raw.size
        cert_ok = _cert_ok(P, H, value["vertices"], raw.graph_fingerprint)
    elif call == "capacity":
        value = {"lower": _round(raw.lower), "upper": _round(raw.upper),
                 "n_used": raw.n_used}
        facts.update(value)
    elif call == "greedy":
        value = [P.encode_poly(u) for u in raw]
        facts["size"] = len(value)
    elif call == "root_trips":
        us, k = args
        value = [None if r is None else P.encode_poly(r) for r in raw]
        facts["bad"] = sum(1 for u, r in zip(us, raw) if r is None or r**k != u)
    else:  # fingerprint, clique: plain JSON values
        value = raw
    return _digest(value), facts, cert_ok


def summarize(P, job, args, raw):
    """(digest, facts for the closed-form checks, certificate verdict)."""
    if raw is None:
        return None, {}, None
    try:
        if job["kind"] == "cli":
            return _summarize_cli(P, job["argv"], raw)
        return _summarize_lib(P, job["call"], args, raw)
    except Exception as exc:  # unparseable output is a wrong output
        return None, {"error": type(exc).__name__}, False


def main() -> None:
    request = json.loads(sys.stdin.read())
    P = _setup(request["root"])
    setup_s = time.monotonic() - SPAWN
    if "--setup-only" in sys.argv:
        print(json.dumps({"setup_s": setup_s}))
        return

    jobs = request["jobs"]
    prepared = [None if job["kind"] == "cli" else prepare(P, job) for job in jobs]
    tracer = None
    if request["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    raws = []
    with SpeedProbe() as probe:
        t0 = time.perf_counter()
        for job, args in zip(jobs, prepared):
            if tracer is not None:
                tracer.job = job["id"]
            start = time.perf_counter()
            rc, raw = run_job(P, job, args)
            raws.append((rc, raw, time.perf_counter() - start))
        wall_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layers = fired = None
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.layer_totals()
        layers["trace.unattributed_s"] = wall_s - layers.pop("trace.top_level_s")
        layers["cli.stdout_bytes"] = sum(
            len(raw.encode()) for job, (_, raw, _) in zip(jobs, raws)
            if job["kind"] == "cli" and raw is not None)
        fired = tracer.fired

    results = []
    for job, args, (rc, raw, seconds) in zip(jobs, prepared, raws):
        digest, facts, cert_ok = summarize(P, job, args, raw)
        results.append({"id": job["id"], "rc": rc, "sha256": digest, "s": seconds,
                        "facts": facts, "cert_ok": cert_ok})
    print(json.dumps({
        "setup_s": setup_s,
        "wall_s": wall_s,
        "probe_s": sum(probe.samples),
        "probe_typical_s": probe.typical(),
        "peak_rss_mb": peak_rss_mb,
        "results": results,
        "layers": layers,
        "fired": fired,
        "spans": tracer.spans if tracer is not None else None,
    }))


if __name__ == "__main__":
    main()
