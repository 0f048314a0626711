import hashlib
import json

import pytest

import hnp.cli
from hnp.census import DEFAULT_CLIQUE_CAP
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

    def test_two_section_k7_exit_3(self, tmp_path, capsys):
        k7 = "".join(f"{a} {b}\n" for a in range(7) for b in range(a))
        pat = _write(tmp_path / "k7.edges", k7)
        assert main(
            ["thresholds", "--pattern", pat, "--mode", "2section", "--powerlaw", "2=3/4,3=5/2"]
        ) == 3
        assert "guard is 6" in capsys.readouterr().err

    def test_two_section_non_pair_edge_exit_2(self, tmp_path, capsys):
        pat = _write(tmp_path / "hyper.edges", "0 1\n1 2 3\n")
        assert main(
            ["thresholds", "--pattern", pat, "--mode", "2section", "--powerlaw", "3=19/10"]
        ) == 2
        assert "2-uniform" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha", ['"3/5"', "0.6"])
    def test_json_number_alpha_read_exactly(self, alpha, tmp_path, capsys):
        # 3 - 3 alpha_1 - 2 alpha_2 is exactly 0 at alpha = 3/5, not the
        # binary float nearest 0.6
        pat = _write(tmp_path / "p.edges", "0\n1\n2\n0 1\n1 2\n")
        level = f'{{"c": 1.0, "alpha": {alpha}}}'
        probs = _write(tmp_path / "p.json", f'{{"M": 2, "powerlaw": {{"1": {level}, "2": {level}}}}}')
        assert main(["thresholds", "--pattern", pat, "--probs", probs]) == 0
        doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert (doc["verdict"], doc["exponent"]) == ("inconclusive", "0/1")

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

    def test_clique_cap_default_is_the_census_default(self):
        args = hnp.cli.build_parser().parse_args(["census", "--input", "x.edges", "--k", "4"])
        assert args.clique_cap == DEFAULT_CLIQUE_CAP

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


class TestWorkerPool:
    @pytest.mark.parametrize(
        "argv, name",
        [
            (["clustering", "--n", "60", "--counts", "2=40,3=10", "--samples", "2",
              "--seed", "5"], "clustering.json"),
            (["mc-threshold", "--n", "30", "--counts", "2=30", "--trials", "4",
              "--seed", "3"], "mc_threshold.json"),
        ],
    )
    def test_two_workers_write_what_one_writes(self, argv, name, triangle_file, tmp_path,
                                               monkeypatch):
        # a real pool of two worker processes, watched only for its size
        pools = []

        class CountedPool(hnp.cli.ProcessPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(hnp.cli, "ProcessPoolExecutor", CountedPool)
        if argv[0] == "mc-threshold":
            argv = argv + ["--pattern", triangle_file]
        files = []
        for parallel in ("1", "2"):
            out = tmp_path / parallel
            assert main(argv + ["--parallel", parallel, "--out", str(out)]) == 0
            files.append((out / name).read_bytes())
        assert pools == [2]
        assert files[0] == files[1]


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

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "--n", "10", "--counts", "2=5"],
            ["clustering", "--n", "10", "--counts", "2=5", "--samples", "1"],
            ["mc-threshold", "--pattern", "x.edges", "--n", "10", "--trials", "2",
             "--counts", "2=5"],
        ],
    )
    def test_negative_seed_exit_2(self, argv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", "-1", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "argument --seed: must be >= 0, got -1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

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

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["thresholds", "--pattern", "IN", "--powerlaw", "2=1/2,2=3"],
             "size 2 given twice in power-law spec"),
            (["generate", "--n", "10", "--seed", "1", "--counts", "2=5,3=1,2=6"],
             "size 2 given twice in counts spec"),
            (["census", "--input", "IN", "--k", "3", "--counts", "3=1,3=1"],
             "size 3 given twice in counts spec"),
            (["mc-threshold", "--pattern", "IN", "--n", "30", "--trials", "3", "--seed", "1",
              "--powerlaw", "2=nan@1/2"], "coefficient c_2=nan must be finite and > 0"),
            (["thresholds", "--pattern", "IN", "--powerlaw", "2=inf@1/2"],
             "coefficient c_2=inf must be finite and > 0"),
        ],
    )
    def test_bad_sequence_spec_exit_2(self, argv, message, triangle_file, tmp_path, capsys):
        argv = [triangle_file if a == "IN" else a for a in argv]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("c", ["NaN", "Infinity", "0"])
    @pytest.mark.parametrize("command", ["thresholds", "mc-threshold"])
    def test_probs_coefficient_not_finite_positive_exit_2(self, command, c, triangle_file,
                                                          tmp_path, capsys):
        level = f'{{"c": {c}, "alpha": "1/2"}}'
        probs = _write(tmp_path / "p.json", f'{{"M": 2, "powerlaw": {{"2": {level}}}}}')
        argv = [command, "--pattern", triangle_file, "--probs", probs]
        if command == "mc-threshold":
            argv += ["--n", "30", "--trials", "3", "--seed", "1"]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert "must be finite and > 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, probs, message",
        [
            ("origination", '{"M": 2.9, "numeric": {"2": 0.1}}',
             "M must be an integer, got 2.9"),
            ("origination", '{"M": true, "numeric": {"1": 0.1}}',
             "M must be an integer, got True"),
            # the constructor checks M, so a bad level read before it is reported first
            ("origination", '{"M": 2.9, "numeric": {"2": true}}', "p_2 must be a number, got true"),
            ("origination", '{"M": true}', "needs a 'numeric' or 'powerlaw' key"),
            ("origination", '{"M": 3, "numeric": {"2": true}}', "p_2 must be a number, got true"),
            ("thresholds", '{"M": 2, "powerlaw": {"2": {"c": true, "alpha": "1/2"}}}',
             "c_2 must be a number, got true"),
            ("thresholds", '{"M": 2, "powerlaw": {"2": {"c": "nan", "alpha": "1/2"}}}',
             'c_2 must be a number, got "nan"'),
            ("thresholds", '{"M": 2, "powerlaw": {"2": {"c": "inf", "alpha": "1/2"}}}',
             'c_2 must be a number, got "inf"'),
            ("thresholds", '{"M": 2, "powerlaw": {"2": {"c": "2", "alpha": "1/2"}}}',
             'c_2 must be a number, got "2"'),
            ("origination", '{"M": 2, "numeric": {"2": "0.5"}}', 'p_2 must be a number, got "0.5"'),
            ("origination", '{"M": 2, "numeric": {"2": null}}', "p_2 must be a number, got null"),
            ("origination", '{"M": 2, "numeric": {"2": 1' + "0" * 400 + '}}',
             "int too large to convert to float"),
        ],
    )
    def test_probs_coerced_field_exit_2(self, command, probs, message, triangle_file, tmp_path,
                                        capsys):
        path = _write(tmp_path / "p.json", probs)
        if command == "origination":
            argv = ["origination", "--k", "3", "--n", "30"]
        else:
            argv = ["thresholds", "--pattern", triangle_file]
        assert main(argv + ["--probs", path, "--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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

    def test_probs_with_byte_order_mark(self, tmp_path, monkeypatch, capsys):
        # Windows tools may start a UTF-8 file with a byte-order mark; read as
        # utf-8-sig it gives the same outputs as the plain file
        monkeypatch.chdir(tmp_path)
        _write(tmp_path / "host.edges", "0 1 2\n2 3\n3 4 5\n0 5\n1 3\n")
        text = hnp.from_edge_counts(50, {2: 30, 3: 5}).to_json()
        outputs = []
        for name, encoding in (("plain", "utf-8"), ("marked", "utf-8-sig")):
            (tmp_path / f"{name}.json").write_text(text, encoding=encoding)
            argv = ["census", "--input", "host.edges", "--k", "3", "--probs", f"{name}.json"]
            assert main(argv + ["--out", "out"]) == 0
            files = {path.name: path.read_bytes() for path in (tmp_path / "out").iterdir()}
            outputs.append((capsys.readouterr().out, files))
        assert (tmp_path / "marked.json").read_bytes().startswith(b"\xef\xbb\xbf")
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("command", ["ingest", "census", "clustering"])
    def test_directory_as_input_exit_2(self, command, tmp_path, capsys):
        argv = [command, "--input", str(tmp_path)]
        if command == "census":
            argv += ["--k", "3", "--counts", "2=1"]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert "error:" in capsys.readouterr().err


class TestOneSequenceFlag:
    @pytest.mark.parametrize(
        "argv",
        [
            ["census", "--input", "IN", "--k", "3", "--counts", "2=3,3=1", "--probs", "MISSING"],
            ["generate", "--n", "10", "--seed", "1", "--counts", "2=5", "--probs", "MISSING"],
            ["origination", "--k", "3", "--n", "30", "--counts", "2=5", "--probs", "MISSING"],
            ["clustering", "--n", "20", "--samples", "1", "--seed", "1", "--counts", "2=5",
             "--probs", "MISSING"],
            ["thresholds", "--pattern", "IN", "--powerlaw", "2=1/2", "--probs", "MISSING"],
            ["mc-threshold", "--pattern", "IN", "--n", "20", "--trials", "2", "--seed", "1",
             "--powerlaw", "2=1/2", "--counts", "2=5"],
            ["mc-threshold", "--pattern", "IN", "--n", "20", "--trials", "2", "--seed", "1",
             "--probs", "MISSING", "--counts", "2=5"],
        ],
    )
    def test_two_sequence_flags_exit_2(self, argv, triangle_file, tmp_path, capsys):
        argv = [
            triangle_file if a == "IN" else str(tmp_path / "missing.json") if a == "MISSING" else a
            for a in argv
        ]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv, probs, message",
        [
            (["generate", "--n", "10", "--seed", "1"], '{"M": 2, "powerlaw": {"2": {"c": 1.0, '
             '"alpha": "1/2"}}}', "needs a numeric sequence"),
            (["thresholds", "--pattern", "IN"], '{"M": 2, "numeric": {"2": 0.1}}',
             "needs a power-law sequence"),
        ],
    )
    def test_wrong_kind_of_probs_exit_2(self, argv, probs, message, triangle_file, tmp_path,
                                        capsys):
        path = _write(tmp_path / "p.json", probs)
        argv = [triangle_file if a == "IN" else a for a in argv]
        assert main(argv + ["--probs", path, "--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["generate", "--n", "10", "--seed", "1"], "give --counts or --probs"),
            (["thresholds", "--pattern", "IN"], "give --powerlaw or --probs"),
            (["mc-threshold", "--pattern", "IN", "--n", "20", "--trials", "2", "--seed", "1"],
             "give --powerlaw or --probs or --counts"),
        ],
    )
    def test_no_sequence_flag_exit_2(self, argv, message, triangle_file, tmp_path, capsys):
        argv = [triangle_file if a == "IN" else a for a in argv]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestNoIgnoredFlags:
    @pytest.mark.parametrize(
        "flag",
        [["--n", "50"], ["--counts", "2=3"], ["--probs", "p.json"], ["--samples", "2"],
         ["--seed", "1"], ["--parallel", "2"]],
    )
    def test_clustering_input_rejects_model_flags(self, flag, triangle_file, tmp_path, capsys):
        argv = ["clustering", "--input", triangle_file, "--out", str(tmp_path / "out")]
        assert main(argv + flag) == 2
        assert f"--input takes no model flags, got {flag[0]}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_clustering_model_rejects_max_edge_size(self, tmp_path, capsys):
        assert main(
            ["clustering", "--n", "50", "--counts", "2=30", "--samples", "1", "--seed", "1",
             "--max-edge-size", "3", "--parallel", "1", "--out", str(tmp_path / "out")]
        ) == 2
        assert "--max-edge-size applies to --input only" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode", ["weak", "induced-weak", "2section"])
    def test_induced_only_with_strong(self, mode, triangle_file, tmp_path, capsys):
        assert main(
            ["thresholds", "--pattern", triangle_file, "--mode", mode, "--induced",
             "--powerlaw", "2=0", "--out", str(tmp_path / "out")]
        ) == 2
        assert "--induced applies to --mode strong only" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_induced_strong_still_checks_levels(self, triangle_file, capsys):
        # p_2 = 1 (alpha 0) cannot be induced: the strong verdict refuses it
        assert main(
            ["thresholds", "--pattern", triangle_file, "--induced", "--powerlaw", "2=0"]
        ) == 2


class TestEmptyPattern:
    @pytest.mark.parametrize(
        "argv",
        [
            ["thresholds", "--powerlaw", "2=1/2"],
            ["thresholds", "--mode", "weak", "--powerlaw", "2=1/2"],
            ["mc-threshold", "--n", "10", "--trials", "2", "--seed", "1", "--counts", "2=5",
             "--parallel", "1"],
            ["mc-threshold", "--mode", "weak", "--n", "10", "--trials", "2", "--seed", "1",
             "--counts", "2=5", "--parallel", "1"],
        ],
    )
    def test_input_error_exit_2(self, argv, tmp_path, capsys):
        empty = _write(tmp_path / "empty.edges", "")
        assert main(argv + ["--pattern", empty, "--out", str(tmp_path / "out")]) == 2
        assert "pattern must have at least one vertex" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

# the inputs of the pinned runs, written into the working directory so that
# the paths echoed into outputs are the same on every machine
PINNED_INPUTS = {
    "toy.edges": "a b\nb a\na b c\nc d\n",
    "host.edges": "0 1 2 3 4\n0 1 5\n1 5 6\n5 6\n6 7 8 9\n2 3 8\n0 9\n1 2 3\n",
    "tri.edges": "0 1\n1 2\n0 2\n",
    "diamond.edges": "0 1\n1 2\n2 3\n3 0\n1 3\n",
    "num.json": '{"M": 3, "numeric": {"2": 0.05, "3": 0.002}}',
    "pl.json": '{"M": 3, "powerlaw": {"2": {"c": 1.0, "alpha": "7/10"},'
    ' "3": {"c": 0.5, "alpha": "9/5"}}}',
}

PINNED_RUNS = {
    "ingest": ["ingest", "--input", "toy.edges", "--max-edge-size", "3"],
    "generate-counts": ["generate", "--n", "30", "--counts", "2=20,3=5", "--samples", "2",
                        "--seed", "9"],
    "generate-probs": ["generate", "--n", "20", "--probs", "num.json", "--seed", "4"],
    "thresholds-strong": ["thresholds", "--pattern", "diamond.edges",
                          "--powerlaw", "2=3/4,3=5/2"],
    "thresholds-induced": ["thresholds", "--pattern", "diamond.edges", "--induced",
                           "--powerlaw", "2=3/4,3=5/2"],
    "thresholds-weak-probs": ["thresholds", "--pattern", "tri.edges", "--mode", "weak",
                              "--probs", "pl.json"],
    "thresholds-induced-weak": ["thresholds", "--pattern", "tri.edges", "--mode",
                                "induced-weak", "--powerlaw", "2=7/10,3=9/5"],
    "thresholds-2section": ["thresholds", "--pattern", "tri.edges", "--mode", "2section",
                            "--powerlaw", "3=19/10"],
    "census-counts": ["census", "--input", "host.edges", "--k", "4",
                      "--counts", "2=10,3=5,4=3,5=2", "--n", "100", "--format", "csv"],
    "census-counts-input-n": ["census", "--input", "host.edges", "--k", "3",
                              "--counts", "2=6,3=4,5=1"],
    "census-probs": ["census", "--input", "host.edges", "--k", "3", "--probs", "num.json",
                     "--n", "50"],
    "origination-counts": ["origination", "--k", "4", "--n", "400",
                           "--counts", "2=474,3=169,4=82,5=44", "--format", "csv"],
    "origination-probs-aut": ["origination", "--k", "3", "--n", "60", "--probs", "num.json",
                              "--weight-mode", "aut"],
    "clustering-input": ["clustering", "--input", "host.edges", "--max-edge-size", "4"],
    "clustering-model": ["clustering", "--n", "50", "--counts", "2=30,3=5", "--samples", "3",
                         "--seed", "5", "--parallel", "1"],
    "clustering-model-probs": ["clustering", "--n", "40", "--probs", "num.json",
                               "--samples", "2", "--seed", "2", "--parallel", "1"],
    "mc-powerlaw": ["mc-threshold", "--pattern", "tri.edges", "--n", "40", "--trials", "4",
                    "--seed", "3", "--powerlaw", "2=7/10", "--parallel", "1"],
    "mc-weak-probs-powerlaw": ["mc-threshold", "--pattern", "tri.edges", "--mode", "weak",
                               "--n", "30", "--trials", "3", "--seed", "1",
                               "--probs", "pl.json", "--parallel", "1"],
    "mc-counts": ["mc-threshold", "--pattern", "tri.edges", "--n", "40", "--trials", "4",
                  "--seed", "3", "--counts", "2=60", "--parallel", "1"],
    "mc-probs-numeric": ["mc-threshold", "--pattern", "tri.edges", "--n", "30",
                         "--trials", "3", "--seed", "7", "--probs", "num.json",
                         "--parallel", "1"],
}

PINNED_DIGESTS = {
    "census-counts": {
        "census.json": "09f2ad3d0f37f7f93884cf841326818123eecad7a6e882a5c76137769a026747",
        "census_observed.csv": "5c578b1e39f90fcfc400ac7657012a85691f75cb77cf66023d769c680e6974cf",
        "census_theory.csv": "7fcaf7225899029620579d6aa747e78ad52275682d9230b1915d463a051d078e",
        "scatter.csv": "fe65eafa00552c8d7859e52abaff5e5eb314c0c85f3ba17072f5ab32301e151b",
        "stdout": "aae2f4991e8b5608a87cd6ad4369c9cce76711f145449d3a979462b427d17c8c",
    },
    "census-counts-input-n": {
        "census.json": "218b883c9f2cde26e4f95a85d2d724717df0cdeb10a54a6481b5a8910af87011",
        "scatter.csv": "2362afb3e03fe4d830c6f6266e3c71bfccd9a3fa416c80b976104f4a8a1623da",
        "stdout": "cabe416bd0ab0b3988b4d6be1d07c3badc44a6a4097d73c33ca343108a8b7b74",
    },
    "census-probs": {
        "census.json": "0aca085eb2587f3f226e13852604d349e8e92027398348fbee29ea50ceeac318",
        "scatter.csv": "c253a2dc775bd939ccaaf09b622bab107a77682ffa99145a37e89cf92c6e43b5",
        "stdout": "cabe416bd0ab0b3988b4d6be1d07c3badc44a6a4097d73c33ca343108a8b7b74",
    },
    "clustering-input": {
        "clustering.json": "c8fe7f50db42fa3c180bbf259e13306d2412188907e2b127ab28862cf7db86a8",
        "stdout": "1930df612283cc9d64881320b7b3df792b451a6b5265a530991bae8552faec6f",
    },
    "clustering-model": {
        "clustering.json": "3ebf501fe51c960ad19d82c18c516c6dca773ee9ea093f2d17fa3118057d08f9",
        "stdout": "0fc09492e7c7e71d821353611021438cda1fe554a6630ffb30ac35740f9580d8",
    },
    "clustering-model-probs": {
        "clustering.json": "b069e09863f6547b192eceb17cd9fe2941d4802b186daf6a688fe696394eddd2",
        "stdout": "991655c4f8e561ae65d6d298611224d575f6dc4588bb18a4d76951507f51c6f7",
    },
    "generate-counts": {
        "manifest.json": "4b60b551fb2e29a3a90887b1adc7efe86b88997f63934e2ffa66d224a94c850c",
        "sample_0000.edges": "b558eea5bc2f654e041e7d7bd0bf8e6f9b83f62416915c7f6bfff837d665cd1b",
        "sample_0001.edges": "c580cad6f857775a923f384c1810988d03b17871b1e4926349dc455c967ac2a1",
        "stdout": "36d069b4046d72daed8a532484410f27e40f658b7bb0405e441c3c97c882ecde",
    },
    "generate-probs": {
        "manifest.json": "bd5a07b3fb9e79328a46e88ef1282070f02a391f748598575922023a8255cf11",
        "sample_0000.edges": "2c5053159265edf7e6a49be8166cf0caaaa97a6ebd536d65ba68fce4ffb2c792",
        "stdout": "bc0f5792a0c648f9f96e40ea91681b42e70a7738daa5b1d8f710b0a611be9539",
    },
    "ingest": {
        "ingested.edges": "de63836b1cbf4ea79e575aef0092c61081a89c42cecf275fa7221560301fbf7d",
        "stats.json": "4ae4ee161c12b499a77203a491c805c4a04da8ba6808e756f644dca8b2e23375",
        "stdout": "b912d2dafe48a9a1a151e2cdc492e88a05b5fb622ced18f35190a02c2f3bfeb3",
        "vertexmap.json": "a1555533e8ce011f2b6bb1797ecd693efc3125e2cc5b98a29aa1a89c1ee5ee6e",
    },
    "mc-counts": {
        "mc_threshold.json": "389a70c8ce5ddc49d95f606653498faeb78070e9579e7a17dd05f762eaea3103",
        "stdout": "46f8d95b036373810336c67fcb847f23baa33904bae4dbe8b111f487ea0085d5",
    },
    "mc-powerlaw": {
        "mc_threshold.json": "1d4b65610f2accaf2d0ae4005881d2f08314d0245cbcb6d8bf550ba1b2ee0f02",
        "stdout": "10053433cdf30d5dfa93611835acbbb55be9c8d7bd03b587d71867270ca641d7",
    },
    "mc-probs-numeric": {
        "mc_threshold.json": "4abe1561a71308e24ec9b6ff28a5292baff391eef3541b8d20ebc12641e9ea0e",
        "stdout": "b7d8c08da089cd1865fd0fc78ade5cbf73bb0cbb05f316dc4dd5da260bbc9d6e",
    },
    "mc-weak-probs-powerlaw": {
        "mc_threshold.json": "d6ab21b67689fd726f6a4bbffeb36512c29b7ab8afb03de35f05b21567863725",
        "stdout": "e6e2470e1fbf5c0482f03df5f06083e1576754b23939a61be79b23e8424704b6",
    },
    "origination-counts": {
        "origination.csv": "f203bc81d0597d2c5ff4c6c14886ee66cfbdf11ccad63618f49d24d00da3974e",
        "origination.json": "cb04703f5e62a84b80db771cdc3fa4491298b7f1622eb4738a5541c4ed6cecef",
        "stdout": "59171f91b5d58859f5415769be141f1d12a6a83a96729e9f10e31a84ed792685",
    },
    "origination-probs-aut": {
        "origination.json": "f7271465a1f4e04f1f302f150fd4cdf61ddefde88c00df8c460ced4797ab3f66",
        "stdout": "f612068c167abe44fe0ddf6a529be7d29fd91607def0cf913c1c2a9372fac9fc",
    },
    "thresholds-2section": {
        "stdout": "0f99df8a550ea19129180c043afc58cda423fed5a3015b44d5febe9ec6dcbdcc",
        "verdict.json": "38ea904a6961af8a8342d07be4d729b0ba38c604371b85de2b9a5feefd99efc0",
    },
    "thresholds-induced": {
        "stdout": "c16ccbdcb352466eec461d67cffdc03f78d92f424114e0aa19d15301bcbe6ca1",
        "verdict.json": "3e0ff8785d6ef9bc417a10878fe143569d0d01865cbbee5924bf2186d9fbe2a3",
    },
    "thresholds-induced-weak": {
        "stdout": "9c776aa2f611b2cf8c3de679be8116fbaa8b72679176b0d4d677f43786cfd926",
        "verdict.json": "0216e0541efe942d50c6010c79bb5f5278060f2a4724a96457e53593a4adf9df",
    },
    "thresholds-strong": {
        "stdout": "c16ccbdcb352466eec461d67cffdc03f78d92f424114e0aa19d15301bcbe6ca1",
        "verdict.json": "3e0ff8785d6ef9bc417a10878fe143569d0d01865cbbee5924bf2186d9fbe2a3",
    },
    "thresholds-weak-probs": {
        "stdout": "d5f33431cf309784d77ed1abbfb003bbe10009d54d531c41558825cf520b58bb",
        "verdict.json": "df4a7953ae37391f3880731d412ce0289cbf3311495b76335ef38385b7a2e01c",
    },
}


def pinned_run(name, directory, capsys):
    """Run PINNED_RUNS[name] in directory with its outputs under out/, and
    return the sha256 of stdout and of every file written."""
    for file, text in PINNED_INPUTS.items():
        _write(directory / file, text)
    capsys.readouterr()
    assert main(PINNED_RUNS[name] + ["--out", "out"]) == 0
    digests = {"stdout": hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()}
    out = directory / "out"
    for path in sorted(out.rglob("*")) if out.exists() else []:
        digests[path.relative_to(out).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


class TestPinnedOutputs:
    """Every subcommand on fixed small inputs and seeds writes the same bytes:
    the sha256 of stdout and of each file written were recorded before the
    sequence flags were resolved in one place, and pin the outputs of every
    invocation free of flag conflicts."""

    @pytest.mark.parametrize("name", sorted(PINNED_RUNS))
    def test_digests(self, name, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert pinned_run(name, tmp_path, capsys) == PINNED_DIGESTS[name]

    def test_every_subcommand_pinned(self):
        assert {argv[0] for argv in PINNED_RUNS.values()} == {
            "ingest", "generate", "thresholds", "census", "origination", "clustering",
            "mc-threshold",
        }
