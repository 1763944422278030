import argparse
import hashlib
import json
import zipfile

import numpy as np
import pytest

from _oracles import blas_build, pinned_on, read_table, rewrite_store, \
    table_rho
from qrwalk import ValidationError, cli, graphs, numtext, trajectory, \
    walk
from qrwalk.cli import main
from qrwalk.persist import RunManifest, load_sequence, save_sequence
from qrwalk.walk import DEFAULT_MEMORY_BUDGET


def write_config(path, **overrides):
    config = {
        "graph": {"type": "torus", "dims": [10, 10]},
        "coin": {"type": "hadamard"},
        "shift": {"type": "moving"},
        "initial_state": [{"vertex": 0, "port": 0, "re": 1.0}],
        "horizon": 8,
        "seed": 21,
    }
    config.update(overrides)
    path.write_text(json.dumps(config))
    return path


def evolved_rho(horizon: int) -> np.ndarray:
    """rho(0..horizon) of the default config's walk, by ``vertex_masses``."""
    g = graphs.torus_graph((10, 10))
    return np.stack([walk.vertex_masses(g, p) for p, _ in walk.evolve(
        walk.WaveFunction.localized(g, 0, 0), walk.CoinSpec.hadamard(g),
        walk.ShiftSpec.moving(g), horizon)])


class TestEvolve:
    def test_torus_distribution_table(self, tmp_path):
        # the table lists the non-zero masses only; filled with zeros, it
        # is the walk's rho bit for bit
        cfg = write_config(tmp_path / "cfg.json", horizon=50)
        out = tmp_path / "out"
        assert main(["evolve", "--config", str(cfg),
                     "--out-dir", str(out)]) == 0
        rho = evolved_rho(50)
        assert table_rho(out).tobytes() == rho.tobytes()
        assert len(read_table(out / "rho").rows) == np.count_nonzero(rho)
        assert (out / "manifest.json").exists()

    def test_zero_horizon_gives_only_rho0(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", horizon=0)
        out = tmp_path / "out"
        assert main(["evolve", "--config", str(cfg),
                     "--out-dir", str(out)]) == 0
        assert table_rho(out).tobytes() == evolved_rho(0).tobytes()
        assert read_table(out / "rho").rows == [("0", "0", "1.0")]

    def test_malformed_json_exit_2_with_location(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"graph": oops}')
        assert main(["evolve", "--config", str(bad),
                     "--out-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "line 1" in err and "column" in err

    def test_missing_entries_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"graph": {"type": "cycle", "n": 4}}))
        assert main(["evolve", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "o")]) == 2
        assert "coin" in capsys.readouterr().err

    def test_json_format(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", horizon=2)
        out = tmp_path / "out"
        assert main(["evolve", "--config", str(cfg), "--out-dir", str(out),
                     "--format", "json"]) == 0
        assert (out / "rho.json").exists()


@pytest.mark.parametrize("command, entries", [
    ("evolve", {"coin": {"type": "explicit"}}),
    ("evolve", {"shift": {"type": "explicit"}}),
    ("evolve", {"graph": {"type": "complete"}}),
    ("evolve", {"graph": {"n": 4, "ordering": "sorted"}}),
    ("evolve", {"initial_state": [{"port": 0, "re": 1.0}]}),
    ("evolve", {"walkers": 2, "initial_state": None,
                "interaction": {"type": "coincidence-phase"}}),
    ("evolve", {"horizon": "abc"}),
    ("evolve", {"walkers": "two"}),
    ("sample", {"ensemble_size": "x"}),
    ("evolve", {"coin": {"schedule": {"x": {"type": "grover"}},
                         "default": {"type": "hadamard"}}}),
    ("evolve", {"coin": {"schedule": {"1": {"type": "grover"},
                                      "01": {"type": "identity"}},
                         "default": {"type": "hadamard"}}}),
    ("evolve", {"coin": {"schedule": [1],
                         "default": {"type": "hadamard"}}}),
    ("evolve", {"coin": "hadamard"}),
    ("evolve", {"graph": "torus"}),
    ("evolve", {"initial_state": [{"vertex": 0, "port": 0, "re": "x"}]}),
    ("sample", {"seed": -1}),
    ("sample", {"seed": "abc"}),
    ("evolve", {"initial_state": [{"vertex": -2, "port": 0, "re": 1.0}]}),
    ("evolve", {"initial_state": [{"vertex": -1, "port": 0, "re": 1.0}]}),
    ("evolve", {"initial_state": [{"vertex": 100, "port": 0, "re": 1.0}]}),
    ("evolve", {"initial_state": [{"vertex": 0, "port": 5, "re": 1.0}]}),
    ("tvd", {"ensemble_sizes": ["x"], "t_grid": [1]}),
    ("tvd", {"ensemble_sizes": 20, "t_grid": [1]}),
    ("tvd", {"ensemble_sizes": [1.5], "t_grid": [1]}),
    ("tvd", {"ensemble_sizes": [0], "t_grid": [1]}),
    ("tvd", {"ensemble_sizes": [20], "t_grid": [1.5]}),
    ("tvd", {"ensemble_sizes": [20], "t_grid": {"t": 1}}),
    ("tvd", {"ensemble_sizes": [], "t_grid": [1]}),
    ("tvd", {"ensemble_sizes": [20], "t_grid": []}),
])
def test_malformed_entries_exit_2(tmp_path, capsys, command, entries):
    """A missing or malformed entry makes the command that reads it exit
    2 with a config error, never with a traceback."""
    cfg = write_config(tmp_path / "cfg.json", **{"horizon": 2, **entries})
    assert main([command, "--config", str(cfg),
                 "--out-dir", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err



@pytest.mark.parametrize("command", ["evolve", "equivalence", "sample",
                                     "tvd", "rejection"])
def test_a_walk_that_fails_midway_exits_1(tmp_path, capsys, monkeypatch,
                                          command):
    """A walk that breaks after the config has been read is a numerical
    failure: with every mass doubled, step 1 fails the norm check, and
    the command exits 1 before it writes anything."""
    cfg = write_config(tmp_path / "cfg.json", horizon=2, length=3,
                       attempts=100, ensemble_sizes=[20], t_grid=[1, 2])
    masses = walk._masses
    monkeypatch.setattr(walk, "_masses", lambda *a: 2.0 * masses(*a))
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert "numerical failure" in err and "not normalised" in err
    assert not out.exists()


class TestEquivalence:
    def test_c4_sequence_and_report(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json",
                           graph={"type": "cycle", "n": 4}, horizon=10)
        out = tmp_path / "eq"
        assert main(["equivalence", "--config", str(cfg),
                     "--out-dir", str(out)]) == 0
        seq = load_sequence(out)
        assert seq.num_steps == 10
        report = json.loads((out / "report.json").read_text())
        assert report["passed"]
        assert report["max_propagation_residual"] <= 1e-10

    def test_two_walker_flag_emits_tuple_labels(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json", graph={"type": "cycle", "n": 4},
            horizon=3, walkers=2,
            interaction={"type": "coincidence-phase", "phi": 3.141592653589793},
            initial_state=[{"vertex": [0, 0], "port": [0, 0], "re": 1.0}])
        out = tmp_path / "eq2"
        assert main(["equivalence", "--config", str(cfg),
                     "--out-dir", str(out)]) == 0
        assert any("|" in row[1] for row in read_table(out / "p_matrix").rows)

    def test_same_seed_reruns_write_the_same_store(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", horizon=4)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["equivalence", "--config", str(cfg),
                         "--out-dir", str(out)]) == 0
        assert (out1 / "sequence.npz").read_bytes() \
            == (out2 / "sequence.npz").read_bytes()
        # np.savez stamps every member with the zip format's 1980 epoch
        with zipfile.ZipFile(out1 / "sequence.npz") as archive:
            assert {info.date_time for info in archive.infolist()} \
                == {(1980, 1, 1, 0, 0, 0)}

    def test_non_unitary_coin_rejected_naming_condition(self, tmp_path,
                                                        capsys):
        blocks = [[[1.1, 0], [0, 0]], [[0, 0], [1.1, 0]]]
        coin = {"type": "explicit", "blocks": [blocks] * 4}
        cfg = write_config(tmp_path / "cfg.json",
                           graph={"type": "cycle", "n": 4}, coin=coin,
                           horizon=2)
        assert main(["equivalence", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "o")]) == 2
        assert "column-norm" in capsys.readouterr().err

    @pytest.mark.parametrize("key, spec, message", [
        ("coin", {"type": "explicit", "validate": False, "blocks": [
            [[[1.1, 0], [0, 0]], [[0, 0], [1.1, 0]]]] * 4}, "column-norm"),
        ("shift", {"type": "explicit", "enforce_edges": False,
                   "permutation": list(range(8))},
         "shift sends (0, 0) to vertex 0, but eta(0, 0) = 1"),
    ], ids=["coin-validate", "shift-enforce_edges"])
    def test_keys_that_skipped_a_check_are_not_read(self, tmp_path, capsys,
                                                     key, spec, message):
        cfg = write_config(tmp_path / "cfg.json",
                           graph={"type": "cycle", "n": 4}, horizon=2,
                           **{key: spec})
        assert main(["equivalence", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err

    def test_arcs_over_the_memory_budget_exit_1(self, tmp_path, capsys,
                                                monkeypatch):
        monkeypatch.setattr(walk, "DEFAULT_MEMORY_BUDGET", 100)
        cfg = write_config(tmp_path / "cfg.json",
                           graph={"type": "cycle", "n": 4}, horizon=2)
        assert main(["equivalence", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "eq")]) == 1
        assert "memory budget" in capsys.readouterr().err

class TestSample:
    def test_fig1_style_ensemble(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", horizon=12,
                           ensemble_size=20)
        out = tmp_path / "sample"
        assert main(["sample", "--config", str(cfg),
                     "--out-dir", str(out)]) == 0
        table = read_table(out / "trajectories")
        assert table.header == ["traj_id", "t", "vertex", "x", "y"]
        assert len(table.rows) == 20 * 13
        assert (out / "ensemble_mean.csv").exists()

    @pytest.mark.parametrize("method, code", [("scan", 0), ("alias", 2)])
    def test_only_the_scan_method_runs(self, tmp_path, capsys, method,
                                       code):
        cfg = write_config(tmp_path / "cfg.json", horizon=4,
                           ensemble_size=5, method=method)
        assert main(["sample", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "s")]) == code
        if code:
            assert "'alias'" in capsys.readouterr().err
        else:
            table = read_table(tmp_path / "s" / "trajectories")
            assert table.meta["method"] == "scan"

    def test_same_seed_reruns_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", horizon=6,
                           ensemble_size=10)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["sample", "--config", str(cfg),
                     "--out-dir", str(out1)]) == 0
        assert main(["sample", "--config", str(cfg),
                     "--out-dir", str(out2)]) == 0
        assert (out1 / "trajectories.csv").read_bytes() \
            == (out2 / "trajectories.csv").read_bytes()
        assert (out1 / "manifest.json").read_bytes() \
            == (out2 / "manifest.json").read_bytes()

    def test_sample_from_persisted_matches_direct(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", horizon=6,
                           ensemble_size=15)
        eq_dir = tmp_path / "eq"
        assert main(["equivalence", "--config", str(cfg),
                     "--out-dir", str(eq_dir)]) == 0
        direct = tmp_path / "direct"
        loaded = tmp_path / "loaded"
        assert main(["sample", "--config", str(cfg),
                     "--out-dir", str(direct)]) == 0
        assert main(["sample", "--from", str(eq_dir), "--seed", "21",
                     "--ensemble-size", "15",
                     "--out-dir", str(loaded)]) == 0
        # identical trajectories without re-running the quantum evolution
        # (the manifests differ: one records the source directory)
        assert read_table(direct / "trajectories").rows \
            == read_table(loaded / "trajectories").rows

    def test_sample_from_builds_the_graph_once(self, tmp_path,
                                               monkeypatch):
        # load_sequence builds the graph from the store; the torus shape
        # comes from the manifest's document, not from a second build
        cfg = write_config(tmp_path / "cfg.json", horizon=3)
        eq_dir = tmp_path / "eq"
        assert main(["equivalence", "--config", str(cfg),
                     "--out-dir", str(eq_dir)]) == 0
        direct = tmp_path / "direct"
        assert main(["sample", "--from", str(eq_dir), "--seed", "5",
                     "--out-dir", str(direct)]) == 0
        built = []
        init = graphs.PortGraph.__init__

        def counted(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)
        monkeypatch.setattr(graphs.PortGraph, "__init__", counted)
        once = tmp_path / "once"
        assert main(["sample", "--from", str(eq_dir), "--seed", "5",
                     "--out-dir", str(once)]) == 0
        assert len(built) == 1
        for name in ("trajectories.csv", "ensemble_mean.csv"):
            assert (once / name).read_bytes() == (direct / name).read_bytes()

    def test_sample_from_checks_locality_against_the_manifest_graph(
            self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", horizon=2)
        eq_dir = tmp_path / "eq"
        assert main(["equivalence", "--config", str(cfg),
                     "--out-dir", str(eq_dir)]) == 0
        # every move out of vertex 0 at t=0 now lands off the torus edges
        with np.load(eq_dir / "sequence.npz") as store:
            assert store["col_ids"][0] == 0
            indices, end = store["indices"], store["indptr"][1]
        indices[:end] = 55 + np.arange(end)
        rewrite_store(eq_dir / "sequence.npz", indices=indices)
        assert main(["sample", "--from", str(eq_dir), "--seed", "3",
                     "--out-dir", str(tmp_path / "s")]) == 1
        assert "non-edge" in capsys.readouterr().err

    def test_sample_from_checks_locality_against_the_store_graph(
            self, tmp_path, capsys):
        # with no manifest to name the graph, the store's own graph judges
        # the moves out of vertex 0, rewritten off the torus edges
        cfg = write_config(tmp_path / "cfg.json", horizon=2)
        eq_dir = tmp_path / "eq"
        assert main(["equivalence", "--config", str(cfg),
                     "--out-dir", str(eq_dir)]) == 0
        (eq_dir / "manifest.json").unlink()
        with np.load(eq_dir / "sequence.npz") as store:
            assert store["col_ids"][0] == 0
            indices, end = store["indices"], store["indptr"][1]
        indices[:end] = 55 + np.arange(end)
        rewrite_store(eq_dir / "sequence.npz", indices=indices)
        assert main(["sample", "--from", str(eq_dir), "--seed", "3",
                     "--out-dir", str(tmp_path / "s")]) == 1
        assert "non-edge" in capsys.readouterr().err

    def test_sample_needs_config_or_source(self, tmp_path, capsys):
        assert main(["sample", "--out-dir", str(tmp_path)]) == 2

    def test_ensemble_over_the_memory_budget_exits_1(self, tmp_path, capsys,
                                                     monkeypatch):
        def allocate(*args):
            raise AssertionError("buffers allocated before the budget check")
        monkeypatch.setattr(trajectory, "default_rng", allocate)
        size = DEFAULT_MEMORY_BUDGET // (16 * 7) + 1
        cfg = write_config(tmp_path / "cfg.json", horizon=6,
                           ensemble_size=size)
        assert main(["sample", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "s")]) == 1
        assert "memory budget" in capsys.readouterr().err


#: The BLAS build (``_oracles.blas_build``) and ``walk.COLUMN_BLOCK`` that
#: the digests of ``GOLDEN_SAMPLES``, ``GOLDEN_EQUIVALENCE`` and
#: ``GOLDEN_RUNS`` were taken on. The coin's matrix products round as the
#: BLAS's kernels do, so a failing golden test names this build and the
#: machine's own; the comparison stays exact.
PINNED_ON = ("scipy-openblas 0.3.31.188.0 (OpenBLAS 0.3.31.188.0  "
             "USE64BITINT DYNAMIC_ARCH NO_AFFINITY Haswell MAX_THREADS=64)",
             4)

#: ``qrwalk sample`` configs and the sha256 of their output tables, as
#: written by the sampler that draws an ensemble's uniforms from one PCG64
#: stream, row i holding trajectory i's L + 1 draws, and each step one
#: visited column at a time. Each table's ``# manifest=`` line hashes the
#: manifest, tool version included.
GOLDEN_SAMPLES = {
    "c16-hadamard": (
        {"graph": {"type": "cycle", "n": 16}, "coin": {"type": "hadamard"},
         "shift": {"type": "moving"},
         "initial_state": [{"vertex": 0, "port": 0, "re": 0.6},
                           {"vertex": 0, "port": 1, "im": 0.8}],
         "horizon": 12, "seed": 7, "ensemble_size": 300},
        {"trajectories.csv": "b8f18e1d95e1de5982ab039b0c869856"
                             "e676cc4fe358a3d3f65c9ac1c7b62d42",
         "ensemble_mean.csv": "dfe13c8980ac3df0947e3425a36a1a3c"
                              "8d4afb830c54fa31909255203dfb4751"}),
    "torus6-grover": (
        {"graph": {"type": "torus", "dims": [6, 6]},
         "coin": {"type": "grover"}, "shift": {"type": "moving"},
         "initial_state": [{"vertex": 0, "port": p, "re": 0.5}
                           for p in range(4)],
         "horizon": 8, "seed": 11, "ensemble_size": 300},
        {"trajectories.csv": "3a8c34ded02278ce0770970e1583f461"
                             "fe9f1aaebbad85479ca29ebaba38ecef",
         "ensemble_mean.csv": "eca0e4596f15daba71f352312a217d5c"
                              "363aba2213e3c8511870361194766c02"}),
    "torus4-two-walker": (
        {"graph": {"type": "torus", "dims": [4, 4]},
         "coin": {"type": "hadamard"}, "shift": {"type": "flip-flop"},
         "walkers": 2,
         "interaction": {"type": "coincidence-phase",
                         "phi": 1.5707963267948966},
         "initial_state": [{"vertex": [0, 5], "port": [0, 1], "re": 1.0}],
         "horizon": 5, "seed": 13, "ensemble_size": 200},
        {"trajectories.csv": "b32b4a784918436d754bbbe8610bd97b"
                             "c340cb529b2e23488cb586949288e027"}),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SAMPLES))
def test_sample_outputs_are_pinned(tmp_path, name):
    config, digests = GOLDEN_SAMPLES[name]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["sample", "--config", str(cfg), "--out-dir", str(out)]) == 0
    got = {f: hashlib.sha256((out / f).read_bytes()).hexdigest()
           for f in digests}
    assert got == digests, pinned_on(*PINNED_ON)


#: ``qrwalk equivalence`` configs: the sample configs above, a torus
#: walk from one vertex (6276 stored entries), and the same walk from the
#: uniform state, whose every column is stored, so that its ``p_matrix``
#: table (20480 rows) spans two write chunks.
EQUIVALENCE_CONFIGS = {
    **{name: config for name, (config, _) in GOLDEN_SAMPLES.items()},
    "torus16-grover": {
        "graph": {"type": "torus", "dims": [16, 16]},
        "coin": {"type": "grover"}, "shift": {"type": "moving"},
        "initial_state": [{"vertex": 0, "port": p, "re": 0.5}
                          for p in range(4)],
        "horizon": 20, "seed": 5},
    "torus16-uniform": {
        "graph": {"type": "torus", "dims": [16, 16]},
        "coin": {"type": "grover"}, "shift": {"type": "moving"},
        "initial_state": [{"vertex": v, "port": p, "re": 1 / 32}
                          for v in range(256) for p in range(4)],
        "horizon": 20, "seed": 5},
}
#: The sha256 of each config's store and of its tables in either format,
#: as written when ``csv.writer`` wrote the CSV tables one row at a time;
#: the stores' since they hold only the ratio columns and the base graph,
#: the one-walker ``p_matrix`` tables' since they list those columns
#: only, as the two-walker table always did, and the ``rho`` tables' since
#: they list the non-zero masses only (each new table is the old one with
#: its zero rows removed; ``torus16-uniform``'s has none, so it stayed).
PINNED_FILES = {"csv": ("p_matrix.csv", "rho.csv", "sequence.npz"),
                "json": ("p_matrix.json", "rho.json")}
GOLDEN_EQUIVALENCE = {
    "c16-hadamard": {
        "p_matrix.csv": "5851e2c95af17a2e4b9bc9b7080b3249"
                        "15d1f7a7085f254a45e953c34cac98ca",
        "rho.csv": "ee035378ab5351d524c97f81c381d734"
                   "3b594c740306f5517d50db2750bff791",
        "sequence.npz": "da6192cccb60c3f4e1c5a37268da20d1"
                        "bd1b69e4be4da7f99eb6f66c6f2611f6",
        "p_matrix.json": "8fe237e646b5dd64da27e1f453fea06a"
                         "a24d8a745a2c6d020b45abb67c11a35b",
        "rho.json": "6af53642bfe2f10dd1a031422c385dfe"
                    "cdf2dda29482422a9dc538a554ca6edf"},
    "torus16-grover": {
        "p_matrix.csv": "fd2e0bae9b38e1477b34bdce1345cc00"
                        "239279a195c61c0fc2bbd6797b349c22",
        "rho.csv": "2ede63a0132fa356577005215811249e"
                   "e3ad524068acf64f20dbf95dfb929937",
        "sequence.npz": "53e35e07fb036e3d8ce832bfd89d7267"
                        "ec1ddfa4236d48a0312203c8351218f1",
        "p_matrix.json": "cb4cee5ea1bc6a90a0e84fad183c0a43"
                         "e7c61d63239792703ef77fbd1fcda00d",
        "rho.json": "1d4085026547980e606592c686984f8d"
                    "ca346a67d1a94236757d9c1347e5c711"},
    "torus4-two-walker": {
        "p_matrix.csv": "0dfb5bd4bf3ba8e615b6648a21004e52"
                        "529469881b068d862c68bd12c14eb2d3",
        "rho.csv": "3623ad91a7c09b8bf0aa49cf830d8f95"
                   "faa8e5962332cd6178acfb5ee2b56188",
        "sequence.npz": "46d01ea6039503477593b758ca54f9d0"
                        "6139fb0834ca52eb79ca30592773d146",
        "p_matrix.json": "97f07023c00979c657fa321e6d91cb00"
                         "d8a6994979b7abe57b731f82848e12b9",
        "rho.json": "ab683ae6fcce2239ad06a45f3d63dd42"
                    "407371e9c6e5ba586e1e9c001d3f5088"},
    "torus16-uniform": {
        "p_matrix.csv": "dff2bed6d1c0436779bb53712d3ef441"
                        "2744a3e21ec85716be81c28b37939737",
        "rho.csv": "0eca3142f7d2e402cf1e1e6b9c558d7e"
                   "8465a75304839f821d881088440216ff",
        "sequence.npz": "5c253fbf5129973c5021a08273376304"
                        "9b9c3da7448fbeacc2c6604cbc61b440",
        "p_matrix.json": "b8aedd61c287d35b00b675da22315c51"
                         "1f72ee593277e75cada860e20f9bea11",
        "rho.json": "0b365ba932d7b448a57b7a6dbe019abe"
                    "f2d2cc2fb584e3468deb93a618638000"},
    "torus6-grover": {
        "p_matrix.csv": "3aa7cb75a577bf089f5930748516e61a"
                        "d4e0b4d4e153d86f7e26f18633112f74",
        "rho.csv": "9f130c5bde24e29876f57cf6d88e742d"
                   "0250545bc7975180cb4f45f70c29390c",
        "sequence.npz": "367b941bebf074e5084022848a400c48"
                        "c933be4230277d3f39f7af0269744fa8",
        "p_matrix.json": "b93672b076d1eb6c2e0b60bed171c894"
                         "708428b314e7670a5513f99c033fe3b8",
        "rho.json": "ed521834cbf8f463566a0952458feaf3"
                    "66abc8f824d5aeacb9ebf89b7063814d"},
}


@pytest.mark.parametrize("name", sorted(GOLDEN_EQUIVALENCE))
def test_equivalence_outputs_are_pinned(tmp_path, name):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(EQUIVALENCE_CONFIGS[name]))
    got = {}
    for fmt in ("csv", "json"):
        out = tmp_path / fmt
        assert main(["equivalence", "--config", str(cfg), "--out-dir",
                     str(out), "--format", fmt]) == 0
        got.update({f: hashlib.sha256((out / f).read_bytes()).hexdigest()
                    for f in PINNED_FILES[fmt]})
    assert got == GOLDEN_EQUIVALENCE[name], pinned_on(*PINNED_ON)


#: The other commands' runs: the arguments after ``qrwalk``, with ``{cfg}``
#: the config and ``{eq}`` a directory that ``equivalence`` wrote first.
COMMAND_RUNS = {
    "evolve-csv": ["evolve", "--config", "{cfg}"],
    "evolve-json": ["evolve", "--config", "{cfg}", "--format", "json"],
    "equivalence-json": ["equivalence", "--config", "{cfg}", "--format",
                         "json"],
    "tvd": ["tvd", "--config", "{cfg}"],
    "rejection": ["rejection", "--config", "{cfg}"],
    "torus-dp": ["torus-dp", "--config", "{cfg}"],
    "sample-json": ["sample", "--config", "{cfg}", "--format", "json"],
    "sample-from": ["sample", "--from", "{eq}", "--seed", "4",
                    "--ensemble-size", "60"],
}
#: One walker and two, with the entries those commands read, and the two
#: walkers one step further, whose ``p_matrix`` holds at least
#: ``numtext.FLOAT_FLOOR`` distinct floats, so that its JSON form takes
#: the vectorised float speller.
COMMAND_CONFIGS = {
    "torus6-grover": {**GOLDEN_SAMPLES["torus6-grover"][0],
                      "ensemble_sizes": [20, 50], "t_grid": [1, 4, 8],
                      "length": 3, "attempts": 5000,
                      "emit_matrices": True},
    "torus4-two-walker": {**GOLDEN_SAMPLES["torus4-two-walker"][0],
                          "ensemble_sizes": [20, 50], "t_grid": [1, 5]},
    "torus4-two-walker-h6": {**GOLDEN_SAMPLES["torus4-two-walker"][0],
                             "horizon": 6},
}
#: The sha256 of each run's outputs, as written before one walker became
#: a product graph of one and the walk loop became ``walk.evolve``; the
#: store's since it holds only the ratio columns and the base graph,
#: ``torus-dp``'s ``p_matrix.csv``'s since it lists those columns only,
#: the ``sample`` and ``tvd`` tables' since each ensemble draws from one
#: PCG64 stream, and the ``rho`` tables' since they list the non-zero
#: masses only (each is the old table with its zero rows removed). The
#: ``equivalence-json`` tables' are as written when ``json.dumps`` spelled
#: the JSON rows one chunk at a time.
GOLDEN_RUNS = {
    ("torus4-two-walker", "equivalence-json"): {
        "p_matrix.json": "97f07023c00979c657fa321e6d91cb00"
                         "d8a6994979b7abe57b731f82848e12b9",
        "rho.json": "ab683ae6fcce2239ad06a45f3d63dd42"
                    "407371e9c6e5ba586e1e9c001d3f5088"},
    ("torus4-two-walker", "evolve-csv"): {
        "rho.csv": "2cb10240205d896741c788a345787c7b"
                   "caa15b5d3187eb06ff7bec497157cfc9"},
    ("torus4-two-walker", "evolve-json"): {
        "rho.json": "d1cef4ba6ade853ab78947f407b52aff"
                    "c1ccaee3f64aa87a2247fc7eb43a7ec1"},
    ("torus4-two-walker", "sample-from"): {
        "trajectories.csv": "2f93a022bc482b9d337687b30930846d"
                            "1ca6f5ef04b8b64b0288e9ef4bce63af"},
    ("torus4-two-walker", "sample-json"): {
        "trajectories.json": "0cb9cba5e752f27ab88aa03ac67e8243"
                             "011f06eb947dbc792e27ed9304bd1c69"},
    ("torus4-two-walker", "tvd"): {
        "tvd.csv": "1b0aaec1bf3b2366ee2718b6b4839324"
                   "af04fa369838d32301a54360ef689abc"},
    ("torus4-two-walker-h6", "equivalence-json"): {
        "p_matrix.json": "f02c0b793ddd051aa87743cf9b1d61c9"
                         "683faf51be429036d6a0efe60b64012a",
        "rho.json": "7d485c70e9e76ca89bc4de636fb1342c"
                    "3c4b30ef9fc4e1c0071e23bc9b7f3a47"},
    ("torus6-grover", "equivalence-json"): {
        "p_matrix.json": "b93672b076d1eb6c2e0b60bed171c894"
                         "708428b314e7670a5513f99c033fe3b8",
        "rho.json": "ed521834cbf8f463566a0952458feaf3"
                    "66abc8f824d5aeacb9ebf89b7063814d"},
    ("torus6-grover", "evolve-csv"): {
        "rho.csv": "5450bfe30b192a61621af5ae38631e6a"
                   "82b4edb58892b6badbad964373d2b1bc"},
    ("torus6-grover", "evolve-json"): {
        "rho.json": "5f8dd6fe35ea054a6c4ed1be59bec466"
                    "05d93180e214e43f08a8cd8b1c0ee1b6"},
    ("torus6-grover", "rejection"): {
        "rejection.json": "af4a826e80fec0f3999196c4442b2557"
                          "72f7ea937bc3b0bbca435af32e01d7e5"},
    ("torus6-grover", "sample-from"): {
        "trajectories.csv": "3de985a5a3236fba82f82a03c6b94c57"
                            "5a2d64e42cccc44d567e43355638315b",
        "ensemble_mean.csv": "bb62ac6b9cb412d075f156b8dbf6bc21"
                             "9b7e85e3f9c5214067690d348b861637"},
    ("torus6-grover", "sample-json"): {
        "trajectories.json": "bb5e169edf32a19aec0783ef1ffbd2f0"
                             "045ac807c0b300535e885f9c5b0ccf0a",
        "ensemble_mean.json": "339d3eb26afea64d34d7f9a9025b4045"
                              "5ff0f0ed209565bc97fc68d3ffb4e36b"},
    ("torus6-grover", "torus-dp"): {
        "p_matrix.csv": "180ce3f69a39ec4b17a6164bade5b5d4"
                        "449ab835c67448537f8a6884d25b65aa",
        "rho.csv": "63e006cd65cd1a70e4f26fc9e8a26f3d"
                   "911255bf8a0dda84398fbcae109647db",
        "sequence.npz": "b509f3025f41596d3c0ab777d50ab1b5"
                        "44610b60c60a672d08c7701287248648"},
    ("torus6-grover", "tvd"): {
        "tvd.csv": "92fc8ad639f5be9f3450e9dfc9c07d34"
                   "cd426cf00c3185591fc57ad16674bc57"},
}


@pytest.mark.parametrize("name, run", sorted(GOLDEN_RUNS))
def test_command_outputs_are_pinned(tmp_path, name, run):
    cfg, eq, out = tmp_path / "cfg.json", tmp_path / "eq", tmp_path / "out"
    cfg.write_text(json.dumps(COMMAND_CONFIGS[name]))
    if run == "sample-from":
        assert main(["equivalence", "--config", str(cfg),
                     "--out-dir", str(eq)]) == 0
    argv = [arg.format(cfg=cfg, eq=eq) for arg in COMMAND_RUNS[run]]
    assert main(argv + ["--out-dir", str(out)]) == 0
    digests = GOLDEN_RUNS[name, run]
    got = {f: hashlib.sha256((out / f).read_bytes()).hexdigest()
           for f in digests}
    assert got == digests, pinned_on(*PINNED_ON)


def test_a_failing_golden_test_names_both_builds():
    note = pinned_on(*PINNED_ON)
    assert PINNED_ON[0] in note and blas_build() in note
    assert note.endswith(f"walk.COLUMN_BLOCK {walk.COLUMN_BLOCK}")


def test_a_pinned_json_matrix_spans_the_float_floor(tmp_path):
    # the float-heavy config's p_matrix.json is pinned above; its floats
    # are enough for the vectorised speller, not repr one at a time
    cfg, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg.write_text(json.dumps(COMMAND_CONFIGS["torus4-two-walker-h6"]))
    assert main(["equivalence", "--config", str(cfg), "--out-dir", str(out),
                 "--format", "json"]) == 0
    rows = json.loads((out / "p_matrix.json").read_text())["rows"]
    assert len({p for *_, p in rows}) >= numtext.FLOAT_FLOOR


class TestTvd:
    def test_rows_cover_grid(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json",
                           coin={"type": "grover"}, horizon=10,
                           ensemble_sizes=[50, 500], t_grid=[5, 10])
        out = tmp_path / "tvd"
        assert main(["tvd", "--config", str(cfg),
                     "--out-dir", str(out)]) == 0
        rows = read_table(out / "tvd").rows
        assert len(rows) == 4
        sizes = {int(r[0]) for r in rows}
        assert sizes == {50, 500}

    @pytest.mark.parametrize("method, code", [("scan", 0), ("alias", 2)])
    def test_only_the_scan_method_runs(self, tmp_path, capsys, method,
                                       code):
        cfg = write_config(tmp_path / "cfg.json", horizon=4, method=method,
                           ensemble_sizes=[20], t_grid=[2, 4])
        assert main(["tvd", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "tvd")]) == code
        if code:
            assert "'alias'" in capsys.readouterr().err
        else:
            assert len(read_table(tmp_path / "tvd" / "tvd").rows) == 2


class TestRejection:
    def test_report_and_exact_marginals(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json",
                           graph={"type": "cycle", "n": 4},
                           length=3, attempts=20000)
        out = tmp_path / "rej"
        assert main(["rejection", "--config", str(cfg),
                     "--out-dir", str(out)]) == 0
        payload = json.loads((out / "rejection.json").read_text())
        assert payload["report"]["attempts"] == 20000
        assert payload["exact_marginals"] is not None
        assert len(payload["exact_tvd_vs_rho"]) == 3


class TestTorusDp:
    def test_matches_evolve_output(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json",
                           graph={"type": "torus", "dims": [4, 4]},
                           coin={"type": "grover"}, horizon=20)
        out_dp = tmp_path / "dp"
        out_ev = tmp_path / "ev"
        assert main(["torus-dp", "--config", str(cfg),
                     "--out-dir", str(out_dp)]) == 0
        assert main(["evolve", "--config", str(cfg),
                     "--out-dir", str(out_ev)]) == 0
        dp, ev = table_rho(out_dp), table_rho(out_ev)
        assert dp.shape == ev.shape == (21, 16)
        assert np.abs(dp - ev).max() <= 1e-9

    def test_requires_torus_graph(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json",
                           graph={"type": "complete", "n": 5},
                           coin={"type": "grover"})
        assert main(["torus-dp", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "o")]) == 2
        assert "torus" in capsys.readouterr().err

    def test_emit_matrices(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json",
                           graph={"type": "cycle", "n": 8},
                           coin={"type": "grover"}, horizon=5,
                           emit_matrices=True)
        out = tmp_path / "dp"
        assert main(["torus-dp", "--config", str(cfg),
                     "--out-dir", str(out)]) == 0
        assert (out / "p_matrix.csv").exists()
        assert main(["verify", "--in-dir", str(out)]) == 0


class TestVerify:
    def test_valid_directory_passes(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json",
                           graph={"type": "cycle", "n": 4}, horizon=5)
        out = tmp_path / "eq"
        assert main(["equivalence", "--config", str(cfg),
                     "--out-dir", str(out)]) == 0
        assert main(["verify", "--in-dir", str(out)]) == 0
        report = json.loads((out / "verify_report.json").read_text())
        assert report["passed"]

    def test_corrupted_matrix_fails_with_exit_1(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json",
                           graph={"type": "cycle", "n": 4}, horizon=5)
        out = tmp_path / "eq"
        assert main(["equivalence", "--config", str(cfg),
                     "--out-dir", str(out)]) == 0
        with np.load(out / "sequence.npz") as store:
            data = store["data"]
        data[np.flatnonzero(data == 0.5)[0]] = 0.4
        rewrite_store(out / "sequence.npz", data=data)
        assert main(["verify", "--in-dir", str(out)]) == 1

    @staticmethod
    def six_cycle(tmp_path):
        cfg = write_config(tmp_path / "cfg.json",
                           graph={"type": "cycle", "n": 6}, horizon=5)
        out = tmp_path / "eq"
        assert main(["equivalence", "--config", str(cfg),
                     "--out-dir", str(out)]) == 0
        return out

    @pytest.mark.parametrize("member, index", [("data", 0), ("rho", (0, 3))],
                             ids=["data", "rho"])
    def test_a_stored_nan_exits_2(self, tmp_path, capsys, member, index):
        # max(0.0, nan) is 0.0, so a NaN must be refused on load, not
        # left to the residuals
        out = self.six_cycle(tmp_path)
        with np.load(out / "sequence.npz") as store:
            values = store[member]
        values[index] = np.nan
        rewrite_store(out / "sequence.npz", **{member: values})
        assert main(["verify", "--in-dir", str(out)]) == 2
        assert "holds no valid sequence" in capsys.readouterr().err

    @pytest.mark.parametrize("damage", ["doubled", "negative",
                                        "negative-same-sum"])
    @pytest.mark.parametrize("command", ["verify", "sample"])
    def test_a_stored_rho_that_is_no_distribution_exits_2(
            self, tmp_path, capsys, damage, command):
        # the residuals of P(t) rho(t) = rho(t+1) can pass on such a rho,
        # so it must be refused on load
        cfg = write_config(tmp_path / "cfg.json",
                           graph={"type": "torus", "dims": [4, 4]},
                           coin={"type": "grover"}, horizon=3)
        out = tmp_path / "eq"
        assert main(["equivalence", "--config", str(cfg),
                     "--out-dir", str(out)]) == 0
        with np.load(out / "sequence.npz") as store:
            rho = store["rho"]
        if damage == "doubled":
            rho *= 2.0
        else:
            # -0.3 at a state without mass; the same 0.3 moved onto vertex
            # 0 keeps the sum 1, so only the sign is wrong
            rho[0, np.flatnonzero(rho[0] == 0.0)[0]] = -0.3
            rho[0, 0] += 0.3 if damage == "negative-same-sum" else 0.0
        rewrite_store(out / "sequence.npz", rho=rho)
        argv = (["verify", "--in-dir", str(out)] if command == "verify"
                else ["sample", "--from", str(out),
                      "--out-dir", str(tmp_path / "s")])
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "holds no valid sequence" in err
        assert ("negative" if damage != "doubled" else "sums to 2.0") in err

    @pytest.mark.parametrize("text", ["{}", "not json", "[1]"])
    @pytest.mark.parametrize("command", ["verify", "sample"])
    def test_a_malformed_manifest_exits_2(self, tmp_path, capsys, text,
                                          command):
        out = self.six_cycle(tmp_path)
        (out / "manifest.json").write_text(text)
        argv = (["verify", "--in-dir", str(out)] if command == "verify"
                else ["sample", "--from", str(out),
                      "--out-dir", str(tmp_path / "s")])
        assert main(argv) == 2
        assert "manifest.json holds no valid manifest" \
            in capsys.readouterr().err


class TestManifestReferences:
    def test_outputs_reference_the_manifest(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", horizon=3)
        out = tmp_path / "out"
        assert main(["evolve", "--config", str(cfg),
                     "--out-dir", str(out)]) == 0
        manifest = RunManifest.load(out)
        table = read_table(out / "rho")
        assert table.meta["manifest"] == manifest.sha256

    def test_env_var_default_out_dir(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path / "cfg.json", horizon=1)
        monkeypatch.setenv("QRWALK_OUT_DIR", str(tmp_path / "envout"))
        assert main(["evolve", "--config", str(cfg)]) == 0
        assert (tmp_path / "envout" / "rho.csv").exists()


class TestProvenance:
    def runs(self, tmp_path):
        dirs = []
        for vertex in (0, 33):
            cfg = write_config(
                tmp_path / f"cfg{vertex}.json", horizon=3,
                initial_state=[{"vertex": vertex, "port": 0, "re": 1.0}])
            dirs.append(tmp_path / f"run{vertex}")
            assert main(["equivalence", "--config", str(cfg),
                         "--out-dir", str(dirs[-1])]) == 0
        return dirs

    def mix(self, tmp_path, **sources):
        mixed = tmp_path / "mixed"
        mixed.mkdir()
        for name, src in sources.items():
            (mixed / name).write_bytes((src / name).read_bytes())
        return mixed

    def test_tables_of_two_runs_are_rejected(self, tmp_path, capsys):
        a, b = self.runs(tmp_path)
        mixed = self.mix(tmp_path, **{"manifest.json": a,
                                      "sequence.npz": b})
        with pytest.raises(ValidationError, match="different runs"):
            load_sequence(mixed)
        assert main(["verify", "--in-dir", str(mixed)]) == 2
        assert "different runs" in capsys.readouterr().err

    def test_tables_must_match_the_manifest(self, tmp_path):
        # a store saved without a manifest hash, next to a manifest
        a, b = self.runs(tmp_path)
        mixed = self.mix(tmp_path, **{"manifest.json": a})
        save_sequence(mixed, load_sequence(b))
        with pytest.raises(ValidationError, match="different runs"):
            load_sequence(mixed)
        assert main(["sample", "--from", str(mixed),
                     "--out-dir", str(tmp_path / "s")]) == 2


def test_the_command_list_names_each_subparser_once():
    # main picks the one-command parser by cli.COMMANDS: it must name the
    # full parser's subcommands, in order, and each must build alone
    def names(parser):
        (sub,) = [a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction)]
        return tuple(sub.choices)

    assert names(cli._build_parser()) == cli.COMMANDS
    for command in cli.COMMANDS:
        assert names(cli._build_parser(command)) == (command,)


#: Command lines that argparse ends: help, a missing required flag, an
#: unknown flag, and a missing or an unknown command.
PARSER_EXITS = [["-h"], [], ["bogus"], ["--bogus"], ["bogus", "-h"]] \
    + [[command, "-h"] for command in cli.COMMANDS] \
    + [[command] for command in cli.COMMANDS if command != "sample"] \
    + [[command, "--in-dir" if command == "verify" else "--config", "x",
        "--bogus"] for command in cli.COMMANDS] \
    + [["equivalence", "--config", "c.json", "--format", "xml"]]


@pytest.mark.parametrize("argv", PARSER_EXITS, ids=" ".join)
def test_one_command_parser_prints_what_the_full_one_does(argv, capsys,
                                                          monkeypatch):
    # main builds the invoked command's subparser only; its output and
    # exit code are those of the parser with every command
    def outcome(parse):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        out = capsys.readouterr()
        return exc.value.code, out.out, out.err

    full = outcome(cli._build_parser().parse_args)
    built, build = [], cli._build_parser
    monkeypatch.setattr(cli, "_build_parser",
                        lambda command=None: built.append(command)
                        or build(command))
    assert outcome(main) == full
    assert full[0] in (0, 2) and (full[1] or full[2])
    assert built == [argv[0] if argv and argv[0] in cli.COMMANDS else None]
