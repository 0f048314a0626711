import json

import pytest

import hnp.cli
from hnp.cli import main


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture()
def triangle_file(tmp_path):
    return _write(tmp_path / "tri.edges", "0 1\n1 2\n0 2\n")


class TestIngest:
    def test_toy(self, tmp_path, capsys):
        inp = _write(tmp_path / "toy.edges", "a b\nb a\na b c\n")
        out = tmp_path / "out"
        assert main(["ingest", "--input", inp, "--out", str(out)]) == 0
        stats = json.loads((out / "stats.json").read_text())
        assert stats["n"] == 3
        assert stats["m_by_size"] == {"2": 1, "3": 1}
        assert stats["duplicate_edges_dropped"] == 1
        assert (out / "vertexmap.json").exists()
        assert (out / "ingested.edges").exists()

    def test_oversize_dropped(self, tmp_path):
        inp = _write(tmp_path / "big.edges", "a b\np q r s t u\n")
        out = tmp_path / "out"
        assert main(
            ["ingest", "--input", inp, "--out", str(out), "--max-edge-size", "5"]
        ) == 0
        stats = json.loads((out / "stats.json").read_text())
        assert stats["oversize_edges_dropped"] == 1
        assert stats["n"] == 2

    def test_empty_file(self, tmp_path):
        inp = _write(tmp_path / "e.edges", "")
        out = tmp_path / "out"
        assert main(["ingest", "--input", inp, "--out", str(out)]) == 0
        stats = json.loads((out / "stats.json").read_text())
        assert stats["n"] == 0 and stats["edges"] == 0

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["ingest", "--input", str(tmp_path / "nope"), "--out", str(tmp_path)]) == 2

    def test_malformed_line_exit_2(self, tmp_path):
        inp = _write(tmp_path / "bad.edges", "x y x\n")
        assert main(["ingest", "--input", inp, "--out", str(tmp_path)]) == 2


class TestGenerate:
    def test_deterministic_files_and_manifest(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        argv = ["generate", "--n", "30", "--counts", "2=20,3=5", "--samples", "2", "--seed", "9"]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        for name in ("sample_0000.edges", "sample_0001.edges"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        manifest = json.loads((out1 / "manifest.json").read_text())
        assert manifest["samples"] == 2
        assert [f["seed"] for f in manifest["files"]] == [9, 10]

    def test_zero_samples_manifest_only(self, tmp_path):
        out = tmp_path / "z"
        assert main(
            ["generate", "--n", "10", "--counts", "2=3", "--samples", "0",
             "--seed", "1", "--out", str(out)]
        ) == 0
        assert (out / "manifest.json").exists()
        assert not list(out.glob("sample_*.edges"))

    def test_budget_exit_3(self, tmp_path):
        assert main(
            ["generate", "--n", "5000", "--counts", "2=12000000", "--samples", "1",
             "--seed", "1", "--out", str(tmp_path)]
        ) == 3

    def test_seed_required(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--n", "10", "--counts", "2=3", "--out", str(tmp_path)])
        assert exc.value.code == 2


class TestThresholds:
    def test_strong_verdicts(self, tmp_path, capsys):
        h1 = _write(tmp_path / "h1.edges", "0 1\n1 2\n2 3\n3 0\n1 3\n")
        h3 = _write(tmp_path / "h3.edges", "0 1 3\n1 2 3\n")
        assert main(["thresholds", "--pattern", h1, "--powerlaw", "2=3/4,3=5/2"]) == 0
        doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert doc["verdict"] == "aas_present"
        assert doc["exponent"] == "1/4"
        assert main(["thresholds", "--pattern", h3, "--powerlaw", "2=3/4,3=5/2"]) == 0
        doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert doc["verdict"] == "aas_absent"
        assert doc["witness_subgraph"] is not None

    def test_weak_and_induced(self, tmp_path, capsys):
        hg = _write(tmp_path / "hg.edges", "2\n0 1\n1 2\n0 2 3\n")
        spec = "1=3/5,2=9/10,3=17/10,4=31/10"
        assert main(["thresholds", "--pattern", hg, "--mode", "weak", "--powerlaw", spec]) == 0
        assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["verdict"] == "aas_present"
        assert main(
            ["thresholds", "--pattern", hg, "--mode", "induced-weak", "--powerlaw", spec]
        ) == 0
        assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["verdict"] == "aas_absent"

    def test_two_section(self, triangle_file, capsys):
        assert main(
            ["thresholds", "--pattern", triangle_file, "--mode", "2section",
             "--powerlaw", "3=19/10"]
        ) == 0
        assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["verdict"] == "aas_present"

    def test_two_section_non_pair_edge_exit_2(self, tmp_path, capsys):
        pat = _write(tmp_path / "hyper.edges", "0 1\n1 2 3\n")
        assert main(
            ["thresholds", "--pattern", pat, "--mode", "2section", "--powerlaw", "3=19/10"]
        ) == 2
        assert "2-uniform" in capsys.readouterr().err

    def test_verdict_file(self, triangle_file, tmp_path, capsys):
        out = tmp_path / "v"
        assert main(
            ["thresholds", "--pattern", triangle_file, "--powerlaw", "2=1/2",
             "--out", str(out)]
        ) == 0
        assert (out / "verdict.json").exists()


class TestCensus:
    def test_single_5_edge(self, tmp_path, capsys):
        inp = _write(tmp_path / "five.edges", "0 1 2 3 4\n")
        out = tmp_path / "out"
        assert main(
            ["census", "--input", inp, "--k", "5", "--counts", "2=10,3=5,4=3,5=2",
             "--n", "100", "--out", str(out), "--format", "csv"]
        ) == 0
        doc = json.loads((out / "census.json").read_text())
        assert doc["total_cliques"] == 1
        assert doc["rows"][0]["signature"] == [0, 0, 0, 1]
        assert (out / "census_theory.csv").exists()
        assert (out / "census_observed.csv").exists()
        assert (out / "scatter.csv").exists()

    @pytest.mark.parametrize("k", ["2", "6"])
    def test_bad_k_exit_2(self, k, tmp_path, capsys):
        inp = _write(tmp_path / "five.edges", "0 1 2 3 4\n")
        assert main(
            ["census", "--input", inp, "--k", k, "--counts", "2=10,3=5,4=3,5=2",
             "--n", "100", "--out", str(tmp_path / "out")]
        ) == 2
        assert capsys.readouterr().err == f"error: k must be 3, 4 or 5, got {k}\n"

    def test_clique_cap_exit_3(self, tmp_path):
        inp = _write(tmp_path / "five.edges", "0 1 2 3 4\n")
        assert main(
            ["census", "--input", inp, "--k", "4", "--counts", "2=10,3=5,4=3,5=2",
             "--n", "100", "--out", str(tmp_path), "--clique-cap", "2"]
        ) == 3


class TestOrigination:
    def test_table_written(self, tmp_path):
        out = tmp_path / "o"
        assert main(
            ["origination", "--k", "4", "--n", "400", "--counts", "2=474,3=169,4=82,5=44",
             "--out", str(out), "--format", "csv"]
        ) == 0
        doc = json.loads((out / "origination.json").read_text())
        assert doc["entries"][0]["rank"] == 1
        total = sum(e["probability"] for e in doc["entries"])
        assert abs(total - 1.0) < 1e-9
        assert (out / "origination.csv").exists()

    def test_aut_mode(self, tmp_path):
        out = tmp_path / "oa"
        assert main(
            ["origination", "--k", "4", "--n", "400", "--counts", "2=474,3=169,4=82,5=44",
             "--weight-mode", "aut", "--out", str(out)]
        ) == 0
        doc = json.loads((out / "origination.json").read_text())
        assert doc["weight_mode"] == "aut"


class TestClustering:
    def test_input_mode(self, triangle_file, tmp_path):
        out = tmp_path / "c"
        assert main(["clustering", "--input", triangle_file, "--out", str(out)]) == 0
        doc = json.loads((out / "clustering.json").read_text())
        assert doc["hc_global"] == 1.0
        assert doc["n_intersecting_pairs"] == 3

    def test_model_mode(self, tmp_path):
        out = tmp_path / "cm"
        assert main(
            ["clustering", "--n", "50", "--counts", "2=30,3=5", "--samples", "2",
             "--seed", "5", "--out", str(out), "--parallel", "1"]
        ) == 0
        doc = json.loads((out / "clustering.json").read_text())
        assert len(doc["per_sample"]) == 2
        assert doc["per_sample"][0]["seed"] == 5

    @pytest.mark.parametrize("parallel", [["--parallel", "5000"], []])
    def test_workers_capped_at_samples(self, parallel, tmp_path, monkeypatch):
        # the pool forks all of its workers at the first submit, so the
        # count it is given is the count of processes started
        started = []

        class FakeExecutor:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(hnp.cli, "ProcessPoolExecutor", FakeExecutor)
        monkeypatch.setattr(hnp.cli.os, "cpu_count", lambda: 64)
        out = tmp_path / "cm"
        assert main(
            ["clustering", "--n", "50", "--counts", "2=30,3=5", "--samples", "2",
             "--seed", "5", "--out", str(out)] + parallel
        ) == 0
        assert started == [2]
        assert len(json.loads((out / "clustering.json").read_text())["per_sample"]) == 2

    def test_model_mode_needs_seed(self, tmp_path):
        assert main(
            ["clustering", "--n", "50", "--counts", "2=30", "--samples", "2",
             "--out", str(tmp_path)]
        ) == 2

    def test_model_mode_needs_n(self, tmp_path, capsys):
        probs = _write(tmp_path / "p.json", '{"M": 2, "numeric": {"2": 0.1}}')
        assert main(
            ["clustering", "--probs", probs, "--samples", "2", "--seed", "1",
             "--out", str(tmp_path)]
        ) == 2
        assert "--n" in capsys.readouterr().err


class TestMcThreshold:
    def test_smoke(self, triangle_file, tmp_path, capsys):
        out = tmp_path / "mc"
        assert main(
            ["mc-threshold", "--pattern", triangle_file, "--n", "40", "--trials", "4",
             "--seed", "3", "--powerlaw", "2=7/10", "--out", str(out), "--parallel", "1"]
        ) == 0
        doc = json.loads((out / "mc_threshold.json").read_text())
        assert doc["trials"] == 4
        assert 0.0 <= doc["presence_frequency"] <= 1.0
        assert doc["symbolic"]["verdict"] == "aas_present"
        wilson = doc["presence_wilson_95"]
        assert 0.0 <= wilson["low"] <= doc["presence_frequency"] <= wilson["high"] <= 1.0

    @pytest.mark.parametrize(
        "hits, low, high",
        [
            # 95% Wilson bounds for 10 trials; the closed forms at 0 and
            # all hits are z^2 / (n + z^2) and n / (n + z^2)
            (0, 0.0, 3.841459 / 13.841459),
            (5, 0.236593, 0.763407),
            (10, 10 / 13.841459, 1.0),
        ],
    )
    def test_wilson_interval(self, hits, low, high, triangle_file, tmp_path, monkeypatch,
                             capsys):
        # trials use seeds 3..12; the first `hits` of them find the pattern
        monkeypatch.setattr(hnp.cli, "_mc_worker", lambda task: task[3] < 3 + hits)
        assert main(
            ["mc-threshold", "--pattern", triangle_file, "--n", "40", "--trials", "10",
             "--seed", "3", "--counts", "2=30", "--parallel", "1"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["presence_frequency"] == hits / 10
        got = doc["presence_wilson_95"]
        assert got["low"] == pytest.approx(low, abs=1e-6)
        assert got["high"] == pytest.approx(high, abs=1e-6)


class TestCountArguments:
    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "--n", "-5", "--counts", "2=3", "--seed", "1"],
            ["origination", "--k", "4", "--n", "-5", "--counts", "2=3"],
            ["census", "--input", "x.edges", "--k", "4", "--n", "-5"],
            ["clustering", "--n", "-5", "--counts", "2=3", "--samples", "1", "--seed", "1"],
            ["mc-threshold", "--pattern", "x.edges", "--n", "-5", "--trials", "2",
             "--seed", "1", "--counts", "2=3"],
        ],
    )
    def test_negative_n_exit_2(self, argv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "argument --n: must be >= 0, got -5" in capsys.readouterr().err

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trials_below_one_exit_2(self, trials, triangle_file, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(
                ["mc-threshold", "--pattern", triangle_file, "--n", "40", "--trials", trials,
                 "--seed", "3", "--powerlaw", "2=7/10", "--out", str(tmp_path)]
            )
        assert exc.value.code == 2
        assert f"argument --trials: must be >= 1, got {trials}" in capsys.readouterr().err
        assert not (tmp_path / "mc_threshold.json").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["clustering", "--n", "50", "--counts", "2=30", "--samples", "0", "--seed", "1"],
             "argument --samples: must be >= 1, got 0"),
            (["clustering", "--n", "50", "--counts", "2=30", "--samples", "-1", "--seed", "1"],
             "argument --samples: must be >= 1, got -1"),
            (["generate", "--n", "30", "--counts", "2=20", "--samples", "-2", "--seed", "1"],
             "argument --samples: must be >= 0, got -2"),
            (["census", "--input", "x.edges", "--k", "4", "--clique-cap", "-1"],
             "argument --clique-cap: must be >= 0, got -1"),
        ],
    )
    def test_bad_counts_exit_2(self, argv, message, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path)])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["clustering", "--n", "50", "--counts", "2=30", "--samples", "2", "--seed", "1"],
            ["mc-threshold", "--pattern", "x.edges", "--n", "40", "--trials", "2",
             "--seed", "1", "--counts", "2=3"],
        ],
    )
    def test_parallel_below_one_exit_2(self, argv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--parallel", "0", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "argument --parallel: must be >= 1, got 0" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["origination", "--k", "3", "--n", "1"], "n=1 is below the set size 2"),
            (["census", "--input", "IN", "--k", "3", "--n", "0"], "n=0 is below the set size 2"),
        ],
    )
    def test_n_below_clique_pair_size_exit_2(self, argv, message, triangle_file, tmp_path,
                                             capsys):
        probs = _write(tmp_path / "p.json", '{"M": 3, "numeric": {"2": 0.1, "3": 0.01}}')
        argv = [triangle_file if a == "IN" else a for a in argv]
        assert main(argv + ["--probs", probs, "--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_mc_threshold_n_zero_exit_2(self, triangle_file, tmp_path, capsys):
        assert main(
            ["mc-threshold", "--pattern", triangle_file, "--n", "0", "--trials", "2",
             "--seed", "1", "--powerlaw", "2=7/10", "--out", str(tmp_path / "out")]
        ) == 2
        assert "--n must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_non_integer_named_as_int(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--n", "ten", "--counts", "2=3", "--seed", "1",
                  "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "argument --n: invalid int value: 'ten'" in capsys.readouterr().err

    def test_max_edge_size_below_two_exit_2(self, triangle_file, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["ingest", "--input", triangle_file, "--max-edge-size", "1",
                  "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "must be >= 2, got 1" in capsys.readouterr().err


class TestOutsideInput:
    @pytest.mark.parametrize("value", ["[0.1]", "null"])
    @pytest.mark.parametrize("key", ["numeric", "powerlaw"])
    def test_probs_value_not_an_object_exit_2(self, key, value, tmp_path, capsys):
        probs = _write(tmp_path / "p.json", f'{{"M": 2, "{key}": {value}}}')
        argv = ["origination", "--k", "3", "--n", "30", "--probs", probs]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert "malformed probability sequence" in capsys.readouterr().err

    def test_non_utf8_edge_list_exit_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.edges"
        path.write_bytes("caf\xe9 b\n".encode("latin-1"))
        assert main(["ingest", "--input", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "'utf-8' codec can't decode" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_non_utf8_probs_exit_2(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_bytes(b'{"M": 2, "numeric": {"2": 0.1}} \xff')
        argv = ["origination", "--k", "3", "--n", "30", "--probs", str(path)]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert "'utf-8' codec can't decode" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["ingest", "census", "clustering"])
    def test_directory_as_input_exit_2(self, command, tmp_path, capsys):
        argv = [command, "--input", str(tmp_path)]
        if command == "census":
            argv += ["--k", "3", "--counts", "2=1"]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert "error:" in capsys.readouterr().err
