import hashlib
import json
import math
import pathlib
import shlex
import time

import pytest

import paleyfq.cli as cli
from paleyfq.cli import main
from util import run_child


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_graph_c7(capsys):
    code, payload = run_json(capsys, "graph", "--ring", "fq:7", "--k", "3")
    assert code == 0
    assert payload["schema"] == 1
    assert payload["order"] == 7
    assert payload["degree"] == 2
    assert payload["symmetric"] is True
    assert payload["connection"] == [1, 6]


def test_graph_directed_flagged(capsys):
    code, payload = run_json(capsys, "graph", "--ring", "fq:7", "--k", "6")
    assert code == 0
    assert payload["symmetric"] is False
    assert payload["connection"] == [1]


def test_graph_dimacs(capsys, tmp_path):
    out = tmp_path / "g.col"
    code, payload = run_json(
        capsys, "graph", "--ring", "zmod:65", "--k", "2", "--dimacs", str(out)
    )
    assert code == 0
    assert out.exists()
    header = out.read_text().splitlines()[0].split()
    assert header[:2] == ["p", "edge"] and header[2] == "65"


def test_alpha_c7_power2(capsys):
    code, payload = run_json(
        capsys, "alpha", "--ring", "fq:7", "--k", "3", "--power", "2"
    )
    assert code == 0
    assert payload["alpha"] == 10
    assert payload["certificate"]["size"] == 10


def test_theta_f13(capsys):
    code, payload = run_json(capsys, "theta", "--ring", "fq:13", "--k", "2")
    assert code == 0
    assert abs(payload["theta"]["value"] - math.sqrt(13)) < 1e-9


def test_theta_zmod_65(capsys):
    code, payload = run_json(capsys, "theta", "--ring", "zmod:65", "--k", "2")
    assert code == 0
    assert abs(payload["theta"]["value"] - math.sqrt(65)) < 1e-6
    assert payload["theta"]["method"] == "product"


def test_construct_verify_roundtrip(capsys, tmp_path):
    cert = tmp_path / "A.json"
    code, payload = run_json(
        capsys, "construct", "--q", "3", "--k", "2", "--n", "4",
        "--variant", "power", "--out", str(cert),
    )
    assert code == 0
    assert payload["size"] == 27
    code2, verdict = run_json(capsys, "verify", "--in", str(cert))
    assert code2 == 0
    assert verdict["verdict"] == "pass"
    assert verdict["size"] == 27


def test_construct_7_3_6(capsys, tmp_path):
    cert = tmp_path / "B.json"
    code, payload = run_json(
        capsys, "construct", "--q", "7", "--k", "3", "--n", "6",
        "--variant", "power", "--out", str(cert),
    )
    assert code == 0
    assert payload["size"] == 24010
    assert payload["size_formula"]["base_size"] == 10


def test_construct_general_verify_roundtrip(capsys, tmp_path):
    cert = tmp_path / "G.json"
    code, payload = run_json(
        capsys, "construct", "--q", "7", "--k", "3", "--n", "6",
        "--variant", "general", "--F", "0,0,0,1", "--out", str(cert),
    )
    assert code == 0
    assert payload["size"] == 21609
    code2, verdict = run_json(capsys, "verify", "--in", str(cert))
    assert code2 == 0
    assert verdict["verdict"] == "pass"


@pytest.mark.parametrize("q, k, n, variant, sha256", [
    (3, 2, 4, "power",
     "13794d836a00024913365202c4c76cdda304e52ca5aa658cfe209831708f48f4"),
    (7, 3, 6, "general",
     "aeb41f9de79ae49df7080283e80a48ec289bf194afb145e2d5f0698fc46f07fa"),
])
def test_construct_certificate_bytes_pinned(capsys, tmp_path, q, k, n, variant, sha256):
    cert = tmp_path / "A.json"
    code, _ = run(
        capsys, "construct", "--q", str(q), "--k", str(k), "--n", str(n),
        "--variant", variant, "--verify", "--out", str(cert),
    )
    assert code == 0
    assert hashlib.sha256(cert.read_bytes()).hexdigest() == sha256


def test_construct_general_checks_F_at_constants(capsys):
    # F(1) = 2 for F = T + T^3 over F_7, and 2 is not a cube
    code, payload = run_json(
        capsys, "construct", "--q", "7", "--k", "3", "--n", "6",
        "--variant", "general", "--F", "0,1,0,1", "--verify",
    )
    assert code == 2
    assert payload["error"] == "NotApplicable"
    assert "F(1) = 2" in payload["message"]
    code, payload = run_json(
        capsys, "construct", "--q", "7", "--k", "3", "--n", "6",
        "--variant", "general", "--F", "1,1,5,6", "--verify",
    )
    assert code == 0
    assert payload["verified"] is True


def test_construct_power_reports_beta_pair_fallback(capsys):
    code, payload = run_json(
        capsys, "construct", "--q", "16", "--k", "3", "--n", "6",
        "--variant", "power", "--budget", "0.000000001",
    )
    assert code == 0
    assert payload["source"] == "beta_pairs"
    assert len(payload["pair_set"]) == 16


def test_construct_power_keeps_a_larger_incumbent(capsys):
    # the solver's incumbent on Paley_3(F_16)^2 reaches 25 long before the
    # 1 s budget runs out; it beats the 16 beta pairs, so |A| = 25 * 16^4
    code, payload = run_json(
        capsys, "construct", "--q", "16", "--k", "3", "--n", "6",
        "--variant", "power", "--budget", "1", "--verify",
    )
    assert code == 0
    assert payload["source"] == "incumbent"
    assert payload["size"] >= 1_638_400
    assert payload["size"] == len(payload["pair_set"]) * 16**4
    assert payload["verified"] is True


def test_construct_verifies_general_13_2_8(capsys):
    # S = {0, 2, 7} on 4 blocks of F_13: 3^4 patterns times 13^4 shifts
    # is over VERIFY_CAP, the block-by-block scan of 3 * 13^4 is not
    code, payload = run_json(
        capsys, "construct", "--q", "13", "--k", "2", "--n", "8",
        "--variant", "general", "--verify",
    )
    assert code == 0
    assert payload["coeff_set"] == [0, 2, 7]
    assert payload["size"] == 3**4 * 13**4
    assert payload["verified"] is True


def test_construct_verify_refuses_a_long_horner_pass_at_once(capsys):
    # 13^3 shifts of six allowed tuples, but each shift is a Horner pass
    # of 1,200 products: 13^3 * k*n = 2,197 * 4,320,000 is over VERIFY_CAP
    start = time.monotonic()
    code, payload = run_json(
        capsys, "construct", "--q", "13", "--k", "1200", "--n", "3600",
        "--variant", "general", "--verify",
    )
    assert code == 3
    assert time.monotonic() - start < 5.0
    assert payload["error"] == "VerificationTooLarge"


def _drop_pair_set(cert):
    del cert["pair_set"]


def _coefficient_q(cert):
    cert["pair_set"][-1][0] = cert["q"]  # still sorted


def _power_with_coeff_set(cert):
    cert["variant"] = "power"


def _zero_F(cert):
    cert["F"] = [0, 0, 0]


def _power_n5(cert):
    cert["n"] = 5


def _wrong_size(cert):
    cert["size"] += 1


@pytest.mark.parametrize("variant, corrupt, error", [
    ("power", _drop_pair_set, "ValueError"),
    ("power", _coefficient_q, "ValueError"),
    ("general", _power_with_coeff_set, "ValueError"),
    ("power", _zero_F, "BadDegree"),
    ("power", _power_n5, "BadN"),
    ("power", _wrong_size, "ValueError"),
], ids=["no-pair_set", "coefficient-q", "power-with-coeff_set", "zero-F", "power-n5",
        "wrong-size"])
def test_verify_rejects_malformed_certificate(capsys, tmp_path, variant, corrupt, error):
    cert = tmp_path / "A.json"
    code, _ = run(
        capsys, "construct", "--q", "3", "--k", "2", "--n", "4",
        "--variant", variant, "--out", str(cert),
    )
    assert code == 0
    data = json.loads(cert.read_text())
    corrupt(data)
    cert.write_text(json.dumps(data))
    code, payload = run_json(capsys, "verify", "--in", str(cert))
    assert code == 2
    assert payload["error"] == error


@pytest.mark.parametrize("variant, name", [("general", "k=3"), ("power", "2k=6")])
@pytest.mark.parametrize("n", [0, -6])
def test_construct_refuses_n_below_one(capsys, variant, name, n):
    # 0 and -6 are divisible by 6, so the refusal names what n must be
    code, payload = run_json(capsys, "construct", "--q", "4", "--k", "3",
                             "--n", str(n), "--variant", variant)
    assert code == 2
    assert payload == {"error": "BadN", "schema": 1,
                       "message": f"n={n} must be a positive multiple of {name}"}


def test_theta_complement_cli(capsys):
    code, payload = run_json(
        capsys, "theta", "--ring", "fq:13", "--k", "3", "--complement"
    )
    assert code == 0
    assert payload["theta"]["method"] == "closed_form"
    direct = 13 / payload["theta"]["value"]
    assert abs(direct - 5.18173662542) < 1e-9


EDGELESS_COMPLEMENTS = {
    "fq:89": '{"complement":true,"k":3,"p":89,"ring":"fq:89","s":1,"schema":1,'
             '"theta":{"lambda_max":0.0,"lambda_min":0.0,"method":"closed_form",'
             '"value":89.0}}\n',
    "zmod:89": '{"complement":true,"k":3,"ring":"zmod:89","schema":1,'
               '"theta":{"lambda_max":0.0,"lambda_min":0.0,"method":"closed_form",'
               '"value":89.0}}\n',
    "fq:7": '{"complement":true,"k":5,"p":7,"ring":"fq:7","s":1,"schema":1,'
            '"theta":{"lambda_max":0.0,"lambda_min":0.0,"method":"closed_form",'
            '"value":7.0}}\n',
}


@pytest.mark.parametrize("ring,k", [("fq:89", 3), ("zmod:89", 3), ("fq:7", 5)])
def test_theta_edgeless_complement_prints_positive_zeros(capsys, ring, k):
    # gcd(k, q-1) = 1 makes Paley_k complete and its complement edgeless:
    # both extreme eigenvalues print as 0.0, never -0.0
    code, out = run(capsys, "theta", "--ring", ring, "--k", str(k), "--complement")
    assert code == 0
    assert out == EDGELESS_COMPLEMENTS[ring]


def test_alpha_zmod_cli(capsys):
    code, payload = run_json(capsys, "alpha", "--ring", "zmod:65", "--k", "2")
    assert code == 0
    assert payload["alpha"] == 7


def test_bounds_ledger(capsys):
    code, payload = run_json(
        capsys, "bounds", "--q", "7", "--k", "3", "--n", "6", "--gamma", "4/9"
    )
    assert code == 0
    assert abs(payload["refined_rate_base"] - 6.903) < 1e-3
    assert abs(payload["lower_base"] - 5.0613) < 1e-3
    assert abs(payload["lower_improved_base"] - 5.3716) < 1e-3


def test_bounds_timeout_brackets_r_k2(capsys):
    # r_{3,2}(F_16) is open: the 1 s solve times out between the incumbent
    # and floor(theta^2) = 36
    code, payload = run_json(
        capsys, "bounds", "--q", "16", "--k", "3", "--n", "6", "--budget", "1"
    )
    assert code == 0
    assert payload["r_k2"] is None and payload["r_k2_source"] == "timeout"
    assert payload["r_k2_upper"] == 36
    assert 16 <= payload["r_k2_lower"] <= 36


def test_json_byte_determinism(capsys):
    _, a = run(capsys, "bounds", "--q", "7", "--k", "3", "--n", "6", "--gamma", "4/9")
    _, b = run(capsys, "bounds", "--q", "7", "--k", "3", "--n", "6", "--gamma", "4/9")
    assert a == b
    _, c = run(capsys, "alpha", "--ring", "fq:7", "--k", "3", "--power", "2")
    _, d = run(capsys, "alpha", "--ring", "fq:7", "--k", "3", "--power", "2")
    assert c == d


def test_exit_2_on_bad_flags(capsys):
    assert main(["graph", "--ring", "bogus", "--k", "3"]) == 2
    capsys.readouterr()
    assert main(["graph", "--ring", "fq:6", "--k", "3"]) == 2
    capsys.readouterr()
    assert main(["nosuchcommand"]) == 2
    capsys.readouterr()


def test_exit_3_on_cap_violation(capsys):
    code, payload = run_json(
        capsys, "alpha", "--ring", "zmod:400", "--k", "2", "--power", "2"
    )
    assert code == 3
    assert payload["error"] == "OrderTooLarge"


def test_exit_3_on_solver_memory_cap(capsys):
    # 65536 vertices: three bitmask copies of 2^32 bits each, refused
    # before any adjacency is built
    start = time.monotonic()
    code, payload = run_json(capsys, "alpha", "--ring", "fq:65536", "--k", "2")
    assert code == 3
    assert time.monotonic() - start < 5.0
    assert payload["error"] == "OrderTooLarge"


def test_huge_order_refused_before_factoring():
    # 2^61 - 1 is prime, and trial division up to its square root does not
    # finish, so every path compares the order with the cap before it
    # factors q or tests p for primality (make_ring also refuses 3^(10^9)
    # before it forms that power); a regression times the child out
    code = """
import sys, time
import paleyfq.cli as cli
from paleyfq.cli import main
from paleyfq.errors import OrderTooLarge
from paleyfq.rings import RingSpec, make_ring
q = "2305843009213693951"
for argv in (["alpha", "--ring", "fq:" + q, "--k", "2"],
             ["construct", "--q", q, "--k", "2", "--n", "4"],
             ["bounds", "--q", q, "--k", "3", "--n", "6"]):
    start = time.monotonic()
    code = main(argv)
    print(code, time.monotonic() - start < 1.0)
for spec in (RingSpec.field(int(q)), RingSpec.field(3, 10**9)):
    start = time.monotonic()
    try:
        make_ring(spec)
    except OrderTooLarge:
        print("OrderTooLarge", time.monotonic() - start < 1.0)
"""
    proc = run_child(code, timeout=30)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[1:6:2] == ["3 True"] * 3
    assert [json.loads(line)["error"] for line in lines[0:6:2]] == ["OrderTooLarge"] * 3
    assert lines[6:] == ["OrderTooLarge True"] * 2


def test_graph_dimacs_refused_over_solver_memory_cap(capsys, tmp_path, monkeypatch):
    # Paley_3(F_65536) has 715,816,960 edges; CayleyGraph.to_generic
    # refuses it before any adjacency row or edge is built, and no file is
    # written
    import paleyfq.graphs as graphs
    from paleyfq.errors import OrderTooLarge

    outcomes = []
    build = graphs.CayleyGraph.to_generic

    def spy(self):
        try:
            return build(self)
        except OrderTooLarge:
            outcomes.append("refused")
            raise

    monkeypatch.setattr(graphs.CayleyGraph, "to_generic", spy)
    out = tmp_path / "f.col"
    start = time.monotonic()
    code, payload = run_json(capsys, "graph", "--ring", "fq:65536", "--k", "3",
                             "--dimacs", str(out))
    assert code == 3
    assert time.monotonic() - start < 5.0
    assert payload["error"] == "OrderTooLarge"
    assert outcomes == ["refused"]
    assert not out.exists()
    code, payload = run_json(capsys, "graph", "--ring", "fq:65536", "--k", "3")
    assert code == 0
    assert payload["order"] == 65536 and payload["degree"] == 21845


def test_exit_3_on_solver_memory_cap_before_building_the_power(capsys, monkeypatch):
    # 197^2 = 38,809 vertices is over the adjacency cap; strong_power
    # refuses the order before strong_product builds any row
    import paleyfq.graphs as graphs

    def refuse(*args):
        raise AssertionError("strong_product called on an over-cap order")

    monkeypatch.setattr(graphs, "strong_product", refuse)
    code, payload = run_json(capsys, "alpha", "--ring", "fq:197", "--k", "2", "--power", "2")
    assert code == 3
    assert payload["error"] == "OrderTooLarge"
    code, payload = run_json(capsys, "alpha", "--ring", "zmod:400", "--k", "2", "--power", "2")
    assert code == 3
    assert payload["error"] == "OrderTooLarge"


def test_exit_3_on_a_power_whose_order_is_too_long_to_print(capsys):
    # 7^100000 has 84,510 decimal digits and 7^(10^12) could not even be
    # computed; 7^2600 has 2,198, but its size in MB has more than the
    # 4,300 str() prints: all are refused as over the cap, by name, at once
    for power in (2_600, 100_000, 10**12):
        start = time.monotonic()
        code, payload = run_json(capsys, "alpha", "--ring", "fq:7", "--k", "3",
                                 "--power", str(power))
        assert code == 3
        assert time.monotonic() - start < 5.0
        assert payload["error"] == "OrderTooLarge"
        assert payload["message"] == (
            f"7^{power} vertices are over the cap of 512 MB of solver bitmasks")
    # an order whose refusal str() can print keeps check_order's message
    code, payload = run_json(capsys, "alpha", "--ring", "fq:7", "--k", "3", "--power", "100")
    assert code == 3
    assert payload["message"] == (
        f"{7**100} vertices need about {3 * 7**200 // 8 >> 20} MB of solver bitmasks,"
        " over the cap of 512 MB")


def test_construct_refuses_an_over_cap_square_before_building(capsys, monkeypatch):
    # Paley_2(F_311)^2 has 96,721 vertices; the construction is refused
    # before strong_product builds any row
    import paleyfq.graphs as graphs

    def refuse(*args):
        raise AssertionError("strong_product called on an over-cap order")

    monkeypatch.setattr(graphs, "strong_product", refuse)
    start = time.monotonic()
    code, payload = run_json(capsys, "construct", "--q", "311", "--k", "2", "--n", "4",
                             "--variant", "power")
    assert code == 3
    assert time.monotonic() - start < 5.0
    assert payload["error"] == "OrderTooLarge"


@pytest.mark.parametrize("argv", [
    ("construct", "--q", "7", "--k", "3", "--n", "7200", "--variant", "power"),
    ("construct", "--q", "13", "--k", "2", "--n", "8000", "--variant", "general"),
])
def test_construct_refuses_a_set_size_too_long_to_print(capsys, tmp_path, argv):
    # the size has more decimal digits than the interpreter prints; the set
    # is refused with exit 3 and only the error is written
    out = tmp_path / "A.json"
    code, payload = run_json(capsys, *argv, "--out", str(out))
    assert code == 3
    assert payload["error"] == "VerificationTooLarge"
    assert "decimal digits" in payload["message"]
    assert not out.exists()


def test_verify_refuses_a_set_size_too_long_to_print(capsys, tmp_path):
    path = tmp_path / "A.json"
    assert main(["construct", "--q", "7", "--k", "3", "--n", "6", "--out", str(path)]) == 0
    capsys.readouterr()
    data = json.loads(path.read_text())
    data["n"] = 7200
    path.write_text(json.dumps(data))
    code, payload = run_json(capsys, "verify", "--in", str(path))
    assert code == 3
    assert payload["error"] == "VerificationTooLarge"


@pytest.mark.parametrize("extra", [(), ("--complement",)])
def test_graph_power_refused_before_building(capsys, monkeypatch, extra):
    # graph --power is refused by the same adjacency cap as alpha --power,
    # before strong_product builds any row
    import paleyfq.cli as cli
    import paleyfq.graphs as graphs

    built = []
    build = cli.strong_power
    monkeypatch.setattr(cli, "strong_power", lambda G, n: built.append(n) or build(G, n))
    code, payload = run_json(capsys, "graph", "--ring", "fq:7", "--k", "3", "--power", "2", *extra)
    assert code == 0 and built == [2]
    assert payload["power"] == {"n": 2, "order": 49, "degree": 8 if not extra else 24}

    def refuse(*args):
        raise AssertionError("strong_product called on an over-cap order")

    monkeypatch.setattr(graphs, "strong_product", refuse)
    code, payload = run_json(capsys, "graph", "--ring", "fq:197", "--k", "2", "--power", "2", *extra)
    assert code == 3
    assert payload["error"] == "OrderTooLarge"
    code, payload = run_json(capsys, "graph", "--ring", "zmod:400", "--k", "2", "--power", "2", *extra)
    assert code == 3
    assert payload["error"] == "OrderTooLarge"


def test_exit_4_on_timeout_with_incumbent(capsys):
    code, payload = run_json(
        capsys, "alpha", "--ring", "fq:11", "--k", "5", "--power", "2",
        "--budget", "0.000000001",
    )
    assert code == 4
    assert payload["error"] == "SolverTimeout"
    assert payload["incumbent"]["size"] >= 1


@pytest.mark.parametrize("budget", ["0", "-1", "nan"])
def test_exit_2_on_non_positive_budget(capsys, budget):
    code, payload = run_json(
        capsys, "alpha", "--ring", "fq:7", "--k", "3", "--budget", budget
    )
    assert code == 2
    assert payload["error"] == "ValueError"


@pytest.mark.parametrize("budget", ["0", "-1", "nan"])
def test_bounds_rejects_bad_budget_without_a_solve(capsys, budget):
    # q^2 = 961 is above the solver cap, so no solver call sees the budget
    code, payload = run_json(
        capsys, "bounds", "--q", "31", "--k", "3", "--n", "6", "--budget", budget
    )
    assert code == 2
    assert payload["error"] == "ValueError"


@pytest.mark.parametrize("command", ["alpha", "graph"])
@pytest.mark.parametrize("power", ["0", "-3"])
def test_exit_2_on_power_below_one(capsys, command, power):
    code, payload = run_json(capsys, command, "--ring", "fq:5", "--k", "2", "--power", power)
    assert code == 2
    assert payload == {"schema": 1, "error": "ValueError", "message": "power must be >= 1"}


@pytest.mark.parametrize("command", ["alpha", "graph"])
def test_power_one_is_the_graph_itself(capsys, command):
    # no strong power is taken, so labels stay plain vertices, not 1-tuples
    code, plain = run(capsys, command, "--ring", "fq:5", "--k", "2")
    assert code == 0
    assert run(capsys, command, "--ring", "fq:5", "--k", "2", "--power", "1") == (0, plain)
    if command == "alpha":
        assert json.loads(plain)["certificate"]["vertices"] == [0, 2]


@pytest.mark.parametrize("q,k,n,message", [
    ("6", "2", "4", "6 is not a prime power"),
    ("5", "2", "0", "need k >= 2 and n >= 1"),
    ("5", "2", "-6", "need k >= 2 and n >= 1"),
    ("5", "1", "4", "need k >= 2 and n >= 1"),
])
def test_bounds_exit_2_on_invalid_q_k_n(capsys, monkeypatch, q, k, n, message):
    # refused before any work: q^2 = 25 is under the solver cap, yet
    # nothing is solved
    import paleyfq.bounds as bounds

    def refuse(*args, **kwargs):
        raise AssertionError("bounds_report solved before checking its input")

    monkeypatch.setattr(bounds, "alpha_product", refuse)
    code, payload = run_json(capsys, "bounds", "--q", q, "--k", k, "--n", n)
    assert code == 2
    assert payload["error"] == "ValueError"
    assert payload["message"].startswith(message)


def test_bounds_exit_2_on_zero_gamma_denominator(capsys):
    code, payload = run_json(
        capsys, "bounds", "--q", "7", "--k", "3", "--n", "6", "--gamma", "1/0"
    )
    assert code == 2
    assert payload["error"] == "ValueError"
    assert "zero denominator" in payload["message"]


def test_budget_covers_setup_of_large_solve(capsys):
    # 2017 vertices: adjacency, fingerprint and one greedy start, then the
    # expired deadline stops the call; about 0.2 s, bound 5 s
    start = time.monotonic()
    code, payload = run_json(
        capsys, "alpha", "--ring", "fq:2017", "--k", "2", "--budget", "1e-9"
    )
    assert code == 4
    assert time.monotonic() - start < 5.0
    assert payload["incumbent"]["size"] >= 1


def test_text_format(capsys):
    code, out = run(capsys, "--format", "text", "graph", "--ring", "fq:7", "--k", "3")
    assert code == 0
    assert "order: 7" in out


def test_csv_format_bounds(capsys):
    code, out = run(
        capsys, "--format", "csv", "bounds", "--q", "7", "--k", "3", "--n", "6"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].split(",")[0] == "conjectured_tight"


def test_twelve_significant_digits(capsys):
    _, payload = run_json(capsys, "theta", "--ring", "fq:13", "--k", "2")
    v = payload["theta"]["value"]
    assert v == float(f"{math.sqrt(13):.12g}")


# Every example of the README's CLI block, run in order from one directory
# (so `verify --in A.json` reads what `construct` wrote): exit code, sha256
# of stdout and sha256 of each file the command wrote.
README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
README_EXAMPLES = {
    "graph --ring fq:7 --k 3": (
        0, "10cd1beefa812f07fd976d4243fd8b50c3612bc237aca577c8c5d1a655e09cec", {}),
    "graph --ring zmod:65 --k 2 --dimacs out.col": (
        0, "35228d2c64ee5bfbf024fb11bca98e6296ddce48a171bbd8ed8ced8dd935bc77",
        {"out.col": "efd1200d1eda2920b49a474e0eefbcce75e0df77b290bfb1f1f25bc53b1a051f"}),
    "alpha --ring fq:7 --k 3 --power 2": (
        0, "894bae0ec123e4a0659a0c4a353b0c019eac8535c25a9067da7dd43f835c36bf", {}),
    "alpha --ring fq:11 --k 5 --power 2 --budget 300": (
        0, "5d23626d1ed01912d1c7a5fdc5c247d83eb675591b436a97f7d846368ff319c1", {}),
    "theta --ring fq:13 --k 2": (
        0, "aec983bc35955892c6eea22fa23ec61f606c1c7a0219112f1f51c3e78ce18507", {}),
    "theta --ring fq:13 --k 3 --complement": (
        0, "30b6384e242e3d649e0a56aeaa7c32a3209ebb2edbd26eb15bf69c4d529f52cb", {}),
    "theta --ring zmod:65 --k 2": (
        0, "8210fc4f95068f8ef03f124eaf3d4bf4037d5ebd8575c4f334f299e2195e5486", {}),
    "construct --q 7 --k 3 --n 6 --variant power --out A.json": (
        0, "0e11484559b9556d4d9c976535e4308e44f13b2e11cf338b9fbc1b8049e3afbf",
        {"A.json": "4d8b3acd8c11c21f9f959893da2df3737ee5f7e833ce1c496e90a8f8546e0574"}),
    "verify --in A.json": (
        0, "7691a55fda34c17a7e542bb63911621150bcc06cf97e4ec0344c853600d326ee", {}),
    "bounds --q 7 --k 3 --n 6 --gamma 4/9": (
        0, "c25ea8535cdee827c6d75004f69890c1d93f4f59baad1e681764906773aade81", {}),
}


def readme_cli_examples() -> list[list[str]]:
    """Argument lists of the `paleyfq ...` lines of the README's CLI block."""
    text = README.read_text().split("## CLI", 1)[1]
    block = text.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True) for line in block.splitlines()]


def test_readme_cli_examples_pinned(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = {}
    for argv in readme_cli_examples():
        assert argv[0] == "paleyfq"
        before = set(tmp_path.iterdir())
        code, out = run(capsys, *argv[1:])
        written = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                   for f in sorted(set(tmp_path.iterdir()) - before)}
        got[" ".join(argv[1:])] = (code, hashlib.sha256(out.encode()).hexdigest(), written)
    assert got == README_EXAMPLES


def test_one_parser_serves_consecutive_calls(capsys, tmp_path, monkeypatch):
    # main builds the parser once per process; a run of different
    # commands prints what it prints with a fresh parser for each
    monkeypatch.chdir(tmp_path)
    argvs = [argv[1:] for argv in readme_cli_examples()] + [
        ["--format", "text", "graph", "--ring", "fq:7", "--k", "3"],
        ["--format", "csv", "bounds", "--q", "5", "--k", "2", "--n", "4"],
        ["graph", "--ring", "fq:5", "--k", "2", "--power", "2"],
        ["alpha", "--ring", "fq:7", "--k", "3", "--budget", "0"],
        ["alpha", "--ring", "fq:7"],  # no --k: argparse exits 2
        ["graph", "--ring", "fq:7", "--k", "3", "--complement"],
    ]

    def outputs(fresh: bool) -> list:
        got = []
        for argv in argvs:
            if fresh:
                cli._build_parser.cache_clear()
            code = main(argv)
            captured = capsys.readouterr()
            got.append((code, captured.out, captured.err))
        return got

    shared = outputs(fresh=False)
    assert cli._build_parser() is cli._build_parser()
    assert shared == outputs(fresh=True)
    assert [code for code, _, _ in shared[-4:]] == [0, 2, 2, 0]
