import json

import pytest

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
