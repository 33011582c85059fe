import json
import subprocess
import sys

import pytest

import densek.graph
from densek.cli import MAX_REPS, main
from densek.graph import MAX_GNP_PAIRS, MAX_VERTICES, parse_edge_list
from densek.ratio import MAX_LATTICE_STEPS
from densek.reduction import MAX_GADGET_EDGES
from helpers import combined_dks


def run_cli(*args, stdin=None, env_extra=None, check=True, timeout=None):
    import os

    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "densek", *args],
        input=stdin,
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )
    if check and proc.returncode != 0:
        raise AssertionError(
            f"exit {proc.returncode}\nstdout:\n{proc.stdout}\nstderr:\n{proc.stderr}"
        )
    return proc


def records(stdout):
    return [json.loads(line) for line in stdout.splitlines() if line]


@pytest.fixture(scope="module")
def graph_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "g.txt"
    proc = run_cli("gen", "-n", "12", "-p", "0.4", "--seed", "7")
    path.write_text(proc.stdout)
    return path


@pytest.fixture(scope="module")
def sparse_file(tmp_path_factory):
    # a6 rounds this graph's k=8 instance to only 5 vertices
    path = tmp_path_factory.mktemp("cli") / "sparse.txt"
    proc = run_cli("gen", "-n", "16", "-p", "0.3", "--seed", "3")
    path.write_text(proc.stdout)
    return path


@pytest.fixture(scope="module")
def sparse_all(sparse_file):
    proc = run_cli("solve", "-k", "8", "--seed", "3", "--reps", "8", str(sparse_file))
    return records(proc.stdout)


class TestGen:
    def test_deterministic(self):
        a = run_cli("gen", "-n", "10", "-p", "0.3", "--seed", "3").stdout
        b = run_cli("gen", "-n", "10", "-p", "0.3", "--seed", "3").stdout
        c = run_cli("gen", "-n", "10", "-p", "0.3", "--seed", "4").stdout
        assert a == b and a != c
        G = parse_edge_list(a)
        assert G.n == 10

    def test_rejects_empty(self):
        proc = run_cli("gen", "-n", "0", "-p", "0.5", check=False)
        assert proc.returncode == 2
        assert proc.stdout == ""

    def test_rejects_bad_probability(self):
        assert run_cli("gen", "-n", "5", "-p", "1.5", check=False).returncode == 2

    def test_refuses_too_many_pairs(self):
        proc = run_cli("gen", "-n", str(10**12), "-p", "0.5", check=False, timeout=60)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert str(MAX_GNP_PAIRS) in proc.stderr and "MAX_GNP_PAIRS" in proc.stderr


class TestSolve:
    def test_single_algorithm_record(self, graph_file):
        proc = run_cli("solve", "-k", "4", "--algo", "a1", str(graph_file))
        recs = records(proc.stdout)
        assert [r["type"] for r in recs] == ["run", "best"]
        rec = recs[0]
        assert rec["algorithm"] == "a1"
        assert len(rec["vertices"]) == 4
        assert rec["k"] == 4

    def test_all_emits_best(self, graph_file):
        proc = run_cli("solve", "-k", "5", "--seed", "2", str(graph_file))
        recs = records(proc.stdout)
        kinds = [r["type"] for r in recs]
        assert kinds.count("best") == 1 and kinds[-1] == "best"
        best = recs[-1]
        assert best["algorithm"] == "combined"
        assert best["average_degree"] >= max(
            r["average_degree"] for r in recs if r["type"] == "run"
        ) - 1e-9

    def test_repeat_runs_identical_modulo_timing(self, graph_file):
        def scrub(stdout):
            out = []
            for rec in records(stdout):
                rec.pop("wall_time_ms", None)
                out.append(rec)
            return out

        a = run_cli("solve", "-k", "4", "--seed", "5", str(graph_file))
        b = run_cli("solve", "-k", "4", "--seed", "5", str(graph_file))
        assert scrub(a.stdout) == scrub(b.stdout)

    def test_a6_record_padded_to_k(self, sparse_file):
        proc = run_cli(
            "solve", "-k", "8", "--algo", "a6", "--reps", "8", str(sparse_file)
        )
        recs = records(proc.stdout)
        assert [r["type"] for r in recs] == ["run", "best"]
        for rec in recs:
            assert rec["algorithm"] == "a6" and rec["k"] == 8
            assert len(rec["vertices"]) == 8

    def test_all_runs_have_k_vertices(self, sparse_all):
        runs = [r for r in sparse_all if r["type"] == "run"]
        assert [r["algorithm"] for r in runs] == ["a1", "a2", "a3", "a4", "a5", "a6"]
        assert all(len(r["vertices"]) == 8 for r in runs)

    def test_best_matches_library(self, sparse_file, sparse_all):
        G = parse_edge_list(sparse_file.read_text())
        lib = combined_dks(G, 8, seed=3, a6_reps=8)
        best = sparse_all[-1]
        assert best["type"] == "best" and best["algorithm"] == "combined"
        assert best["vertices"] == list(lib.vertices)
        assert best["edge_count"] == lib.edge_count
        assert best["average_degree"] == lib.average_degree

    def test_all_skips_a2_below_its_least_k(self, graph_file, capsys):
        assert main(["solve", "-k", "1", "--reps", "8", str(graph_file)]) == 0
        out, err = capsys.readouterr()
        assert err == "skipping a2: needs k >= 2, got k=1\n"
        runs = [r["algorithm"] for r in records(out) if r["type"] == "run"]
        assert runs == ["a1", "a3", "a4", "a5", "a6"]

    def test_a2_alone_refused_below_its_least_k(self, graph_file, capsys):
        assert main(["solve", "-k", "1", "--algo", "a2", str(graph_file)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: a2 needs k >= 2, got k=1\n"

    def test_k_larger_than_graph(self, graph_file):
        assert run_cli("solve", "-k", "99", str(graph_file), check=False).returncode == 2

    def test_a5_refuses_degree_beyond_walk_count_limit(self, tmp_path):
        star = tmp_path / "star.txt"
        star.write_text("".join(f"0 {leaf}\n" for leaf in range(1, 55110)))
        proc = run_cli("solve", "-k", "2", "--algo", "a5", str(star), check=False)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            "error: a5 counts walks in int64 and needs maximum degree at most "
            "55108, got 55109"
        ]

    @pytest.mark.parametrize("flags", [
        ["-k", "0"], ["-k", "3", "--reps", "0"], ["-k", "3", "--reps", str(MAX_REPS + 1)],
    ])
    def test_bad_arguments_print_nothing(self, graph_file, flags):
        proc = run_cli("solve", *flags, str(graph_file), check=False)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ")


class TestExact:
    def test_small_instance(self, graph_file):
        proc = run_cli("exact", "-k", "4", "--problem", "dks", str(graph_file))
        rec = records(proc.stdout)[0]
        assert rec["type"] == "run" and rec["algorithm"] == "exact"
        assert rec["problem"] == "dks"
        assert len(rec["vertices"]) == 4

    def test_cap_refusal(self):
        big = run_cli("gen", "-n", "30", "-p", "0.2", "--seed", "1").stdout
        proc = run_cli("exact", "-k", "3", "/dev/stdin", stdin=big, check=False)
        assert proc.returncode == 3
        assert "cap" in proc.stderr

    def test_key_limit_refusal_whatever_the_cap(self, tmp_path):
        wide = tmp_path / "wide.txt"
        wide.write_text("n 100\n0 1\n")
        proc = run_cli("exact", "-k", "3", "--cap", "200", str(wide), check=False, timeout=60)
        assert proc.returncode == 3
        assert "int64" in proc.stderr

    def test_parse_error_reports_line(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("n 3\n0 1\n0 zzz\n")
        proc = run_cli("exact", "-k", "2", str(bad), check=False)
        assert proc.returncode == 2
        assert "line 3" in proc.stderr

    @pytest.mark.parametrize("text", ["0 1000000000\n", "n 1000000000\n"])
    def test_vertex_cap_refused(self, tmp_path, text):
        huge = tmp_path / "huge.txt"
        huge.write_text(text)
        proc = run_cli("exact", "-k", "2", str(huge), check=False)
        assert proc.returncode == 2
        assert "line 1" in proc.stderr and "exceeds the limit" in proc.stderr

    def test_edge_cap_refused(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(densek.graph, "MAX_EDGES", 2)
        path = tmp_path / "three.txt"
        path.write_text("0 1\n1 2\n# c\n2 3\n")
        assert main(["exact", "-k", "2", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: line 4: more than 2 edges (graph.MAX_EDGES)\n"


# Vertices 0 and 1 of graph_file induce no edge.
GOOD_RECORD = {
    "type": "run", "problem": "dks", "k": 2, "vertices": [0, 1], "edge_count": 0,
    "average_degree": 0.0,
}


def verify_in_process(capsys, graph_file, tmp_path, lines):
    """``densek verify`` through ``cli.main`` on the given record lines:
    (exit code, summary record, stderr)."""
    capsys.readouterr()
    rec_file = tmp_path / "records.jsonl"
    rec_file.write_text("".join(line + "\n" for line in lines))
    code = main(["verify", str(graph_file), str(rec_file)])
    out, err = capsys.readouterr()
    return code, records(out)[-1], err


class TestVerify:
    def test_round_trip(self, graph_file, tmp_path):
        solved = run_cli("solve", "-k", "4", str(graph_file))
        rec_file = tmp_path / "records.jsonl"
        rec_file.write_text(solved.stdout)
        proc = run_cli("verify", str(graph_file), str(rec_file))
        summary = records(proc.stdout)[-1]
        assert summary["type"] == "verify"
        assert summary["mismatches"] == 0 and summary["checked"] > 0

    def test_tampered_record_fails(self, graph_file, tmp_path):
        solved = run_cli("solve", "-k", "4", "--algo", "a1", str(graph_file))
        rec = records(solved.stdout)[0]
        rec["edge_count"] += 1
        rec_file = tmp_path / "tampered.jsonl"
        rec_file.write_text(json.dumps(rec) + "\n")
        proc = run_cli("verify", str(graph_file), str(rec_file), check=False)
        assert proc.returncode == 1
        assert records(proc.stdout)[-1]["mismatches"] == 1

    @pytest.mark.parametrize("vertices", ["0 1", [0, 0, 0]])
    def test_malformed_vertices_rejected(self, graph_file, tmp_path, vertices):
        bad = dict(GOOD_RECORD, vertices=vertices)
        rec_file = tmp_path / "malformed.jsonl"
        rec_file.write_text(json.dumps(GOOD_RECORD) + "\n" + json.dumps(bad) + "\n")
        proc = run_cli("verify", str(graph_file), str(rec_file), check=False)
        assert proc.returncode == 2
        assert "line 2" in proc.stderr
        assert "Traceback" not in proc.stderr


    @pytest.mark.parametrize(
        "line",
        [
            json.dumps(dict(GOOD_RECORD, average_degree="1.0")),
            json.dumps(dict(GOOD_RECORD, average_degree=None)),
            json.dumps(dict(GOOD_RECORD, average_degree=False)),
            json.dumps(dict(GOOD_RECORD, edge_count=True)),
            json.dumps(dict(GOOD_RECORD, edge_count=0.0)),
            json.dumps({k: v for k, v in GOOD_RECORD.items() if k != "edge_count"}),
            "[1, 2]",
            "3",
        ],
        ids=[
            "avg-string", "avg-null", "avg-bool", "edges-bool", "edges-float",
            "edges-missing", "list", "number",
        ],
    )
    def test_malformed_fields_rejected(self, graph_file, tmp_path, line):
        rec_file = tmp_path / "malformed.jsonl"
        rec_file.write_text(json.dumps(GOOD_RECORD) + "\n" + line + "\n")
        proc = run_cli("verify", str(graph_file), str(rec_file), check=False)
        assert proc.returncode == 2
        assert f"{rec_file}: line 2: " in proc.stderr
        assert "Traceback" not in proc.stderr


    def test_solve_and_exact_records_verify(self, capsys, graph_file, tmp_path):
        printed = []
        for argv in (
            ["solve", "-k", "5", "--reps", "8", str(graph_file)],
            *(["exact", "-k", "5", "--problem", p, str(graph_file)]
              for p in ("dks", "dalks", "damks")),
        ):
            capsys.readouterr()
            assert main(argv) == 0
            printed += capsys.readouterr().out.splitlines()
        code, summary, err = verify_in_process(capsys, graph_file, tmp_path, printed)
        assert (code, summary["checked"], summary["mismatches"]) == (0, len(printed), 0)
        assert err == ""

    @pytest.mark.parametrize(
        "problem, k, size",
        [
            ("dks", 9, 6),     # exactly-9 record of 6 vertices
            ("dalks", 11, 6),  # at-least-11 record of 6 vertices
            ("damks", 3, 4),
            ("dks", 0, 0),
            ("dalks", 13, 12),  # k past n = 12
            ("dense", 2, 2),
        ],
    )
    def test_size_breach_is_a_mismatch(self, capsys, graph_file, tmp_path, problem, k, size):
        G = parse_edge_list(graph_file.read_text())
        vertices = list(range(size))
        edges = sum(1 for u, v in G.edges if u < size and v < size)
        breach = dict(
            GOOD_RECORD, problem=problem, k=k, vertices=vertices, edge_count=edges,
            average_degree=2 * edges / size if size else 0.0,
        )
        lines = [json.dumps(GOOD_RECORD), json.dumps(breach)]
        code, summary, err = verify_in_process(capsys, graph_file, tmp_path, lines)
        assert (code, summary["checked"], summary["mismatches"]) == (1, 2, 1)
        assert err.startswith("line 2: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "bad",
        [
            {k: v for k, v in GOOD_RECORD.items() if k != "problem"},
            {k: v for k, v in GOOD_RECORD.items() if k != "k"},
            dict(GOOD_RECORD, problem=3),
            dict(GOOD_RECORD, problem=["dks"]),
            dict(GOOD_RECORD, k="2"),
            dict(GOOD_RECORD, k=2.0),
            dict(GOOD_RECORD, k=True),
        ],
        ids=["problem-missing", "k-missing", "problem-number", "problem-list",
             "k-string", "k-float", "k-bool"],
    )
    def test_malformed_problem_or_k_rejected(self, capsys, graph_file, tmp_path, bad):
        rec_file = tmp_path / "malformed.jsonl"
        rec_file.write_text(json.dumps(GOOD_RECORD) + "\n" + json.dumps(bad) + "\n")
        capsys.readouterr()
        assert main(["verify", str(graph_file), str(rec_file)]) == 2
        assert f"{rec_file}: line 2: " in capsys.readouterr().err


class TestAnalyze:
    def test_custom_set(self):
        proc = run_cli("analyze", "--delta", "0.25", "--set", "custom:a1")
        rec = records(proc.stdout)[0]
        assert rec["type"] == "analysis"
        assert rec["max_exponent"] == pytest.approx(1.0)
        assert rec["argmax"] == {"g": 1.0, "K": 1.0, "d": 1.0}
        assert rec["evaluations"] == 55

    def test_named_set_with_csv(self, tmp_path):
        out = tmp_path / "gridpoint.csv"
        proc = run_cli("analyze", "--delta", "0.25", "--set", "fkp5", "--csv", str(out))
        rec = records(proc.stdout)[0]
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2
        header, row = lines[0].split(","), lines[1].split(",")
        got = dict(zip(header, row))
        assert float(got["max_exponent"]) == pytest.approx(rec["max_exponent"])
        assert float(got["g"]) == pytest.approx(rec["argmax"]["g"])

    def test_rejects_unknown_set(self):
        assert run_cli("analyze", "--delta", "0.25", "--set", "nope", check=False).returncode == 2

    def test_rejects_non_lattice_delta(self):
        assert run_cli("analyze", "--delta", "0.3", check=False).returncode == 2

    def test_rejects_lattice_past_the_limit(self):
        proc = run_cli("analyze", "--delta", "0.0001", check=False)
        assert proc.returncode == 2
        assert str(MAX_LATTICE_STEPS) in proc.stderr
        assert proc.stdout == ""


class TestReduce:
    def test_output_reparses(self, tmp_path):
        tri = "n 3\n0 1\n0 2\n1 2\n"
        proc = run_cli("reduce", "-k", "2", "/dev/stdin", stdin=tri)
        body = proc.stdout
        target_lines = [l for l in body.splitlines() if l.startswith("#")]
        assert any("k' = 11" in l for l in target_lines)
        Gp = parse_edge_list(body)
        assert (Gp.n, Gp.m) == (12, 39)

    def test_refuses_padding_past_the_limit(self, tmp_path):
        # Refused from the sizes alone, before the clique is built.
        path = tmp_path / "header.txt"
        path.write_text(f"n {MAX_VERTICES}\n")
        proc = run_cli("reduce", "-k", "1", str(path), check=False, timeout=30)
        assert proc.returncode == 2
        assert str(MAX_GADGET_EDGES) in proc.stderr
        assert proc.stdout == ""


def test_bare_import_exposes_submodules():
    # perfbench reaches these as attributes after a bare `import densek`,
    # with nothing else of the package imported yet.
    import os

    import densek

    src = os.path.dirname(os.path.dirname(densek.__file__))
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import densek; densek.flow.dalks_2approx; densek.graph.parse_edge_list",
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
