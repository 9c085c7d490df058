import hashlib
import json
import math
import time

import pytest

from paleyfq.cli import main


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


def test_theta_complement_cli(capsys):
    code, payload = run_json(
        capsys, "theta", "--ring", "fq:13", "--k", "3", "--complement"
    )
    assert code == 0
    assert payload["theta"]["method"] == "closed_form"
    direct = 13 / payload["theta"]["value"]
    assert abs(direct - 5.18173662542) < 1e-9


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
    assert payload["error"] == "ProductTooLarge"


def test_exit_3_on_solver_memory_cap(capsys):
    # 65536 vertices: three bitmask copies of 2^32 bits each, refused
    # before any adjacency is built
    start = time.monotonic()
    code, payload = run_json(capsys, "alpha", "--ring", "fq:65536", "--k", "2")
    assert code == 3
    assert time.monotonic() - start < 5.0
    assert payload["error"] == "OrderTooLarge"


def test_exit_3_on_solver_memory_cap_before_building_the_power(capsys, monkeypatch):
    # 197^2 = 38,809 vertices fits PRODUCT_CAP but not the solver's memory
    # cap; the product is refused before strong_power builds it
    import paleyfq.cli as cli

    def refuse(*args):
        raise AssertionError("strong_power called on an over-cap order")

    monkeypatch.setattr(cli, "strong_power", refuse)
    code, payload = run_json(capsys, "alpha", "--ring", "fq:197", "--k", "2", "--power", "2")
    assert code == 3
    assert payload["error"] == "OrderTooLarge"
    code, payload = run_json(capsys, "alpha", "--ring", "zmod:400", "--k", "2", "--power", "2")
    assert code == 3
    assert payload["error"] == "ProductTooLarge"


@pytest.mark.parametrize("extra", [(), ("--complement",)])
def test_graph_power_refused_before_building(capsys, monkeypatch, extra):
    # graph --power applies the same two caps as alpha --power, before
    # strong_power builds the product
    import paleyfq.cli as cli

    built = []
    build = cli.strong_power
    monkeypatch.setattr(cli, "strong_power", lambda G, n: built.append(n) or build(G, n))
    code, payload = run_json(capsys, "graph", "--ring", "fq:7", "--k", "3", "--power", "2", *extra)
    assert code == 0 and built == [2]
    assert payload["power"] == {"n": 2, "order": 49, "degree": 8 if not extra else 24}

    def refuse(*args):
        raise AssertionError("strong_power called on an over-cap order")

    monkeypatch.setattr(cli, "strong_power", refuse)
    code, payload = run_json(capsys, "graph", "--ring", "fq:197", "--k", "2", "--power", "2", *extra)
    assert code == 3
    assert payload["error"] == "OrderTooLarge"
    code, payload = run_json(capsys, "graph", "--ring", "zmod:400", "--k", "2", "--power", "2", *extra)
    assert code == 3
    assert payload["error"] == "ProductTooLarge"


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
