"""Command-line interface.

Every run is deterministic: identical flags produce byte-identical JSON.
Exit codes: 0 success, 2 invalid arguments, 3 desk-scale cap violations,
4 solver budget exhausted (payload carries the incumbent).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import bounds as bounds_mod
from . import powerfree
from .errors import CapExceeded, PaleyfqError, SolverTimeout
from .graphs import build_paley, export_dimacs, strong_power
from .polys import parse_poly
from .rings import RingCtx, RingSpec, field_spec, make_ring
from .solver import (
    DEFAULT_BUDGET_S,
    check_budget,
    max_independent_set,
)
from .theta import lovasz_theta, lovasz_theta_complement, theta_zmod

SCHEMA = 1


def _round_floats(obj):
    """12 significant digits everywhere, for reproducible output.  Ints in
    a list, the bulk of vertex and connection lists, pass through with one
    type test and no call."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [v if type(v) is int else _round_floats(v) for v in obj]
    return obj


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _emit(payload: dict, fmt: str) -> None:
    payload = {"schema": SCHEMA, **_round_floats(payload)}
    if fmt == "json":
        sys.stdout.write(_json(payload) + "\n")
    elif fmt == "csv":
        keys = sorted(payload)
        sys.stdout.write(",".join(keys) + "\n")
        sys.stdout.write(",".join(_csv_cell(payload[k]) for k in keys) + "\n")
    else:
        for k in sorted(payload):
            sys.stdout.write(f"{k}: {payload[k]}\n")


def _csv_cell(v) -> str:
    if isinstance(v, (list, dict)):
        return '"' + _json(v).replace('"', '""') + '"'
    return str(v)


def _parse_ring(text: str) -> RingCtx:
    kind, _, value = text.partition(":")
    if not value:
        raise ValueError(f"ring must look like fq:<q> or zmod:<m>, got {text!r}")
    number = int(value)
    if kind == "fq":
        return make_ring(field_spec(number))
    if kind == "zmod":
        return make_ring(RingSpec.zmod(number))
    raise ValueError(f"unknown ring kind {kind!r}")


def _parse_gamma(text: str) -> float:
    if "/" in text:
        num, den = (int(t) for t in text.split("/", 1))
        if den == 0:
            raise ValueError(f"gamma {text!r} has a zero denominator")
        return num / den
    return float(text)


def _ring_payload(R: RingCtx) -> dict:
    if R.is_field:
        return {"ring": f"fq:{R.order}", "p": R.spec.p, "s": R.spec.s}
    return {"ring": f"zmod:{R.spec.m}"}


def _connection_payload(G) -> dict:
    return {"degree": len(G.connection), "symmetric": G.symmetric,
            "connection": sorted(G.connection)}


# -- commands ----------------------------------------------------------------

def _cmd_graph(args) -> dict:
    R = _parse_ring(args.ring)
    G = build_paley(R, args.k)
    payload = {
        **_ring_payload(R),
        "k": args.k,
        "order": G.n,
        **_connection_payload(G),
    }
    target = G
    if args.complement:
        target = G.complement_cayley()
        payload["complement"] = _connection_payload(target)
    if args.power != 1:
        P = strong_power(target, args.power)
        payload["power"] = {
            "n": args.power,
            "order": P.n,
            "degree": P.degree(0),
        }
        target = P
    if args.dimacs:
        export_dimacs(target, args.dimacs)
        payload["dimacs"] = args.dimacs
    return payload


def _cmd_alpha(args) -> dict:
    R = _parse_ring(args.ring)
    G = build_paley(R, args.k)
    H = G if args.power == 1 else strong_power(G, args.power)
    cert = max_independent_set(H, budget_s=args.budget)
    return {
        **_ring_payload(R),
        "k": args.k,
        "power": args.power,
        "alpha": cert.size,
        "certificate": cert.to_json(),
    }


def _cmd_theta(args) -> dict:
    R = _parse_ring(args.ring)
    if R.is_field or args.complement:
        G = build_paley(R, args.k)
        report = lovasz_theta_complement(G) if args.complement else lovasz_theta(G)
    else:
        report = theta_zmod(R.spec.m, args.k)
    return {
        **_ring_payload(R),
        "k": args.k,
        "complement": bool(args.complement),
        "theta": report.to_json(),
    }


def _cmd_construct(args) -> dict:
    R = make_ring(field_spec(args.q))
    F = parse_poly(R, args.F) if args.F else powerfree.monomial(R, args.k)
    params = powerfree.ConstructionParams(
        ring=R, k=args.k, n=args.n, F=F, variant=args.variant
    )
    A = powerfree.construct(params, budget_s=args.budget)
    payload = A.to_json()
    payload["base_certificate"] = A.base_indep  # tuples print as JSON lists
    payload["size_formula"] = _size_formula(A)
    if args.verify:
        payload["verified"] = powerfree.verify_no_F_difference(A)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(_json(_round_floats(payload)) + "\n")
        payload["out"] = args.out
    return payload


def _size_formula(A: powerfree.DifferenceFreeSet) -> dict:
    p = A.params
    return {
        "base_size": len(A.allowed),
        "base_exponent": len(A.blocks),
        "free_exponent": p.n - p.n // p.k,
    }


def _cmd_verify(args) -> dict:
    with open(getattr(args, "in")) as fh:
        A = powerfree.DifferenceFreeSet.from_json(json.load(fh))
    ok = powerfree.verify_no_F_difference(A)
    p = A.params
    return {
        "q": p.q,
        "k": p.k,
        "n": p.n,
        "variant": p.variant,
        "size": A.size,
        "verdict": "pass" if ok else "fail",
    }


def _cmd_bounds(args) -> dict:
    gamma = _parse_gamma(args.gamma) if args.gamma else None
    ledger = bounds_mod.bounds_report(
        args.q, args.k, args.n, gamma=gamma, budget_s=args.budget
    )
    return ledger.to_json()


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args only reads
    it, and each call gets a fresh namespace."""
    top = argparse.ArgumentParser(
        prog="paleyfq",
        description="Paley graphs, independence numbers, theta bounds, and "
        "k-th power difference-free polynomial sets",
    )
    top.add_argument("--format", choices=("json", "text", "csv"), default="json")
    sub = top.add_subparsers(dest="command", required=True)
    ring_k = argparse.ArgumentParser(add_help=False)
    ring_k.add_argument("--ring", required=True, help="fq:<q> or zmod:<m>")
    ring_k.add_argument("--k", type=int, required=True)
    qkn = argparse.ArgumentParser(add_help=False)
    for name in ("--q", "--k", "--n"):
        qkn.add_argument(name, type=int, required=True)
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--budget", type=float, default=DEFAULT_BUDGET_S)

    g = sub.add_parser("graph", parents=[ring_k], help="build and summarize a Paley graph")
    g.add_argument("--complement", action="store_true")
    g.add_argument("--power", type=int, default=1)
    g.add_argument("--dimacs", help="write DIMACS file here")
    g.set_defaults(func=_cmd_graph)

    a = sub.add_parser("alpha", parents=[ring_k, budget], help="exact independence number")
    a.add_argument("--power", type=int, default=1)
    a.set_defaults(func=_cmd_alpha)

    t = sub.add_parser("theta", parents=[ring_k], help="Lovasz theta via the ratio bound")
    t.add_argument("--complement", action="store_true")
    t.set_defaults(func=_cmd_theta)

    c = sub.add_parser("construct", parents=[qkn, budget], help="build a difference-free set")
    c.add_argument("--variant", choices=("general", "power"), default="power")
    c.add_argument("--F", help="coefficients c_0,...,c_k of F")
    c.add_argument("--verify", action="store_true")
    c.add_argument("--out", help="write the certificate JSON here")
    c.set_defaults(func=_cmd_construct)

    v = sub.add_parser("verify", help="verify a stored difference-free set")
    v.add_argument("--in", required=True, help="certificate JSON from construct")
    v.set_defaults(func=_cmd_verify)

    b = sub.add_parser("bounds", parents=[qkn, budget], help="per-symbol rate ledger")
    b.add_argument("--gamma", help="refined-rate parameter, e.g. 4/9")
    b.set_defaults(func=_cmd_bounds)
    return top


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        # --budget is checked before any work: alpha and construct build
        # their graphs before the solver checks it
        check_budget(getattr(args, "budget", DEFAULT_BUDGET_S))
        payload = args.func(args)
    except CapExceeded as exc:
        _emit({"error": type(exc).__name__, "message": str(exc)}, args.format)
        return 3
    except SolverTimeout as exc:
        _emit(
            {
                "error": "SolverTimeout",
                "message": str(exc),
                "incumbent": exc.incumbent.to_json(),
            },
            args.format,
        )
        return 4
    except (PaleyfqError, ValueError, OSError) as exc:
        _emit({"error": type(exc).__name__, "message": str(exc)}, args.format)
        return 2
    _emit(payload, args.format)
    return 0


if __name__ == "__main__":
    sys.exit(main())
