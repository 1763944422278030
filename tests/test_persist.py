import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from _oracles import read_table, reference_write_table, rewrite_store, \
    toarray
from qrwalk import (
    CoinSpec,
    ConfigError,
    ProductGraph,
    ShiftSpec,
    TrajectoryEnsemble,
    TransitionMatrixSeq,
    ValidationError,
    WaveFunction,
    build_sequence,
    sample_ensemble,
    torus_graph,
)
from qrwalk import numtext, persist
from qrwalk.cli import main
from qrwalk.persist import (
    CHUNK_ROWS,
    CodedColumn,
    RunManifest,
    Table,
    coin_from_json,
    graph_and_spaces,
    initial_state_from_json,
    interaction_from_json,
    load_sequence,
    manifest_for,
    matrix_table,
    rho_table,
    save_sequence,
    shift_from_json,
    trajectories_table,
    write_table,
)


@pytest.fixture
def c4_seq(c4):
    return build_sequence(c4, CoinSpec.hadamard(c4), ShiftSpec.moving(c4),
                          WaveFunction.localized(c4, 0, 0), 6)


class TestTables:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_round_trip(self, tmp_path, fmt):
        table = Table(["a", "b"], [np.array([1, 2]), np.array([0.1, 0.2])],
                      {"states": 4})
        path = write_table(tmp_path / "t", table, fmt)
        back = read_table(tmp_path / "t")
        assert back.header == ["a", "b"]
        assert int(back.meta["states"]) == 4
        assert float(back.rows[0][1]) == 0.1
        assert path.suffix == f".{fmt}"

    def test_float_round_trip_is_exact(self, tmp_path):
        value = 1.0 / 3.0 + 1e-16
        write_table(tmp_path / "t", Table(["x"], [np.array([value])]), "csv")
        back = read_table(tmp_path / "t")
        assert float(back.rows[0][0]) == value

    def test_metadata_comes_only_from_the_leading_comments(self, tmp_path):
        # a data cell may start with "#"; only the lines before the
        # header are metadata
        table = Table(["label"], [["#x=1", "b"]], {"states": 2})
        write_table(tmp_path / "t", table, "csv")
        back = read_table(tmp_path / "t")
        assert back.meta == {"states": "2"}
        assert back.rows == [("#x=1",), ("b",)]

    @pytest.mark.parametrize("cell", ["a\rb", "a\nb", "a,b", 'a"b', "",
                                      None, 1, 0.5],
                             ids=["cr", "lf", "comma", "quote", "empty",
                                  "none", "int", "float"])
    def test_a_cell_outside_the_contract_is_refused(self, tmp_path, cell):
        # only numeric arrays and plain non-empty strings are written, in
        # either format
        for fmt, column in itertools.product(("csv", "json"), (
                [cell, "b"], np.array(["b", cell], dtype=object),
                CodedColumn(np.array([0, 0]),
                            np.array([cell], dtype=object)))):
            with pytest.raises(ValidationError, match="column 'x'"):
                write_table(tmp_path / "t", Table(["n", "x"], [
                    np.arange(2), column]), fmt)
            with pytest.raises(ValidationError, match="the header"):
                write_table(tmp_path / "t", Table([cell], [np.arange(2)]),
                            fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_a_nul_cell_is_refused(self, tmp_path, fmt):
        # NUL pads the packed CSV words, so no cell or header may hold one
        for column in (["a\0b", "c"], np.array(["c", "\0"], dtype=object),
                       CodedColumn(np.array([0, 0]),
                                   np.array(["a\0"], dtype=object))):
            with pytest.raises(ValidationError, match="column 'x'"):
                write_table(tmp_path / "t", Table(["n", "x"], [
                    np.arange(2), column]), fmt)
        with pytest.raises(ValidationError, match="the header"):
            write_table(tmp_path / "t", Table(["n\0"], [np.arange(2)]), fmt)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("cell", [b"", b"a,b", b'a"b', b"a\nb", b"a\rb",
                                      b"a\0b", b"\0a", "é".encode()],
                             ids=["empty", "comma", "quote", "lf", "cr",
                                  "nul", "leading-nul", "non-ascii"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_a_bytes_cell_outside_the_contract_is_refused(self, tmp_path,
                                                          cell, fmt):
        # a bytes array is checked as bytes: non-empty ASCII texts with no
        # special character and no NUL before their last byte
        texts = np.array([b"b", cell])
        for column in (texts, CodedColumn(np.array([1, 0]), texts)):
            with pytest.raises(ValidationError, match="column 'x'"):
                write_table(tmp_path / "t", Table(["n", "x"], [
                    np.arange(2), column]), fmt)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_bytes_columns_write_their_ascii_text(self, tmp_path, fmt):
        texts = ["7", "10|3", "a b#", "x" * 17]
        plain = np.array(texts, dtype=object)
        raw = np.array([text.encode() for text in texts])
        codes = np.array([3, 0, 0, 1, 2, 3])
        for column, same in ((raw, plain), (CodedColumn(codes, raw),
                                            CodedColumn(codes, plain))):
            want = write_table(tmp_path / "want", Table(
                ["n", "x"], [np.arange(len(column)), same]), fmt)
            table = Table(["n", "x"], [np.arange(len(column)), column])
            got = write_table(tmp_path / "got", table, fmt)
            assert got.read_bytes() == want.read_bytes()
            assert [row[1] for row in table.rows] == list(same)
        assert CodedColumn(codes, raw).tolist() == plain[codes].tolist()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_a_refused_table_leaves_no_file(self, tmp_path, fmt):
        table = Table(["n", "x"], [np.arange(2), ["a", "b,c"]])
        with pytest.raises(ValidationError, match="column 'x'"):
            write_table(tmp_path / "t", table, fmt)
        assert list(tmp_path.iterdir()) == []

    def test_a_cell_the_locale_cannot_encode_is_refused(self, tmp_path):
        # under the C locale the CSV file would be ASCII: an accented cell
        # or header is refused before the file is opened, while JSON
        # escapes it to ASCII
        script = (
            "import locale\n"
            "from qrwalk.errors import ValidationError\n"
            "from qrwalk.persist import Table, write_table\n"
            "print(locale.getpreferredencoding(False))\n"
            "for header, cell in (('x', 'a\\u00e9'), ('\\u00e9', 'a')):\n"
            "    try:\n"
            "        write_table('t', Table([header], [['a', cell]]))\n"
            "    except ValidationError as exc:\n"
            "        print(exc)\n"
            "write_table('t', Table(['x'], [['a', 'a\\u00e9']]), 'json')\n"
        )
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0",
               "PYTHONCOERCECLOCALE": "0",
               "PYTHONPATH": os.pathsep.join(sys.path)}
        proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                              env=env, capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        encoding, *errors = proc.stdout.splitlines()
        assert errors == [f"{name} holds a cell that the encoding "
                          f"{encoding} cannot hold"
                          for name in ("column 'x'", "the header")]
        assert [p.name for p in tmp_path.iterdir()] == ["t.json"]
        assert read_table(tmp_path / "t").rows == [("a",), ("a\u00e9",)]

    @pytest.mark.parametrize("codes", [
        np.array([0, 5]), np.array([0, -1]), np.array([[0], [1]]),
        np.array([0.0, 1.0])], ids=["past-the-end", "negative", "2-d",
                                    "float"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_codes_that_name_no_value_are_refused(self, tmp_path, fmt,
                                                  codes):
        # each code names one of the values: none past the end, none
        # negative (which would wrap), in a 1-d integer array; so a write
        # never fails once its file is open
        with pytest.raises(ValidationError, match="codes"):
            write_table(tmp_path / "t", Table(
                ["x"], [CodedColumn(codes, np.arange(3))]), fmt)
        assert list(tmp_path.iterdir()) == []
        assert CodedColumn(np.array([0, 2]), np.arange(3)).tolist() == [0, 2]
        assert CodedColumn(np.array([], int), np.arange(0)).tolist() == []

    def test_json_floats_are_spelled_by_the_float_speller(self, tmp_path,
                                                          monkeypatch):
        # as in CSV, by numtext._reprs: the numpy path at FLOAT_FLOOR
        # distinct values, with the non-finite ones spelled as JSON
        values = np.random.default_rng(2).random(numtext.FLOAT_FLOOR)
        values[:3] = [np.nan, np.inf, -np.inf]
        calls, real = [], persist._reprs

        def spy(part, *args):
            calls.append(part.size)
            return real(part, *args)
        monkeypatch.setattr(persist, "_reprs", spy)
        got = write_table(tmp_path / "t", Table(["x"], [values]), "json")
        assert calls == [numtext.FLOAT_FLOOR]
        payload = {"meta": {}, "header": ["x"],
                   "rows": [[v] for v in values.tolist()]}
        assert got.read_bytes() \
            == (json.dumps(payload, sort_keys=True) + "\n").encode()

    def test_columns_of_unequal_lengths_are_refused(self):
        for short in (np.arange(2.0), ["a", "b"],
                      CodedColumn(np.zeros(2, int), np.arange(1))):
            with pytest.raises(ValidationError, match=r"lengths \[3, 2\]"):
                Table(["a", "b"], [np.arange(3), short])

    def test_the_manifest_is_stamped_without_changing_the_table(
            self, tmp_path):
        table = Table(["x"], [np.arange(2)], {"states": 2})
        for fmt in ("csv", "json"):
            write_table(tmp_path / "t", table, fmt, manifest="abc")
            assert read_table(tmp_path / "t").meta["manifest"] == "abc"
            (tmp_path / f"t.{fmt}").unlink()
        assert table.meta == {"states": 2}

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            write_table(tmp_path / "t", Table(["x"], [[]]), "xml")

    def test_trajectory_labels_default_to_the_walker_root(self):
        table = trajectories_table(TrajectoryEnsemble([[6, 6]], 16), 2)
        assert list(table.columns[2]) == ["1|2", "1|2"]
        with pytest.raises(ValidationError, match="8 states"):
            trajectories_table(TrajectoryEnsemble([[6]], 8), 2)


def _special_column(size: int) -> np.ndarray:
    values = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 0.1, -2.0**63]
    return np.resize(np.array(values), size)


class TestCsvChunks:
    @pytest.mark.parametrize("size", [CHUNK_ROWS - 1, CHUNK_ROWS,
                                      CHUNK_ROWS + 1])
    def test_chunk_boundary_matches_the_csv_module(self, tmp_path, size):
        labels = np.array(["a", "b|c", "d e", "#"], dtype=object)
        # texts and their separators of 10 to 16 bytes: two words each
        long = np.array(["0123|4567", "state|123456789", "ü|é|π|€"],
                        dtype=object)
        table = Table(
            ["t", "u", "label", "p", "note"], meta={"states": 4}, columns=[
                np.arange(size), np.resize(labels, size),
                CodedColumn(np.arange(size) % long.size, long),
                _special_column(size),
                ["x", "1", "2.5", "y|z"] * (size // 4) + ["x"] * (size % 4)])
        got = write_table(tmp_path / "got", table).read_bytes()
        assert got == reference_write_table(tmp_path / "want",
                                            table).read_bytes()

    @pytest.mark.parametrize("size", [0, CHUNK_ROWS - 1, CHUNK_ROWS,
                                      CHUNK_ROWS + 1])
    def test_json_chunk_boundary_matches_json_dumps(self, tmp_path, size):
        labels = np.array(["a", "b|c", "d e", "#"], dtype=object)
        codes = np.arange(size) % labels.size
        table = Table(["t", "u", "p"], meta={"states": 4}, columns=[
            np.arange(size), CodedColumn(codes, labels),
            _special_column(size)])
        payload = {"meta": table.meta, "header": table.header,
                   "rows": list(zip(range(size), labels[codes].tolist(),
                                    _special_column(size).tolist()))}
        got = write_table(tmp_path / "t", table, "json").read_bytes()
        assert got == (json.dumps(payload, sort_keys=True) + "\n").encode()

    @staticmethod
    def _write_peak(path, size: int, fmt: str = "csv",
                    coded: bool = False) -> int:
        """The traced peak of writing a table of ``size`` rows: a number
        and a float column, or (``coded``) the three coded columns of the
        trajectories of 13 instants on 2048 states."""
        rng = np.random.default_rng(7)
        table = (trajectories_table(TrajectoryEnsemble(
            rng.integers(0, 2048, (size // 13, 13)), 2048)) if coded
            else Table(["i", "x"], [np.arange(size), rng.random(size)]))
        tracemalloc.start()
        try:
            write_table(path, table, fmt)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_write_memory_does_not_grow_with_the_table(self, tmp_path):
        for coded in (False, True):
            small = self._write_peak(tmp_path / "small", 1 << 16,
                                     coded=coded)
            assert self._write_peak(tmp_path / "large", 4 << 16,
                                    coded=coded) < 1.5 * small

    def test_json_write_memory_does_not_grow_with_the_table(self, tmp_path):
        small = self._write_peak(tmp_path / "small", 1 << 16, "json")
        assert self._write_peak(tmp_path / "large", 4 << 16,
                                "json") < 1.5 * small


class TestSequenceRoundTrip:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_load_reproduces_rho_and_matrices(self, tmp_path, c4_seq, fmt):
        save_sequence(tmp_path, c4_seq, fmt=fmt)
        loaded = load_sequence(tmp_path)
        assert np.array_equal(loaded.rho, c4_seq.rho)
        for a, b in zip(loaded.matrices, c4_seq.matrices):
            assert np.array_equal(toarray(a), toarray(b))

    @pytest.mark.parametrize("walkers", [1, 2])
    def test_reloaded_csc_arrays_equal(self, tmp_path, walkers):
        # Hadamard columns have exact zeros, which are not stored
        g = torus_graph((4, 4))
        space = ProductGraph(g, 2) if walkers == 2 else g
        start = (0, 5) if walkers == 2 else 0
        seq = build_sequence(space, CoinSpec.hadamard(g),
                             ShiftSpec.flip_flop(g),
                             WaveFunction.localized(space, start, 0), 6)
        save_sequence(tmp_path, seq)
        loaded = load_sequence(tmp_path)
        for a, b in zip(seq.matrices, loaded.matrices):
            for name in ("col_ids", "indptr", "indices", "data"):
                assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_sampling_from_loaded_matches_original(self, tmp_path, c4_seq):
        save_sequence(tmp_path, c4_seq)
        loaded = load_sequence(tmp_path)
        a = sample_ensemble(c4_seq, 40, master_seed=6)
        b = sample_ensemble(loaded, 40, master_seed=6)
        assert np.array_equal(a.paths, b.paths)

    def test_multiwalker_tuple_labels(self, tmp_path, c4):
        pg = ProductGraph(c4, 2)
        seq = build_sequence(pg, CoinSpec.hadamard(c4), ShiftSpec.moving(c4),
                             WaveFunction.localized(pg, (0, 0), (0, 0)), 3)
        save_sequence(tmp_path, seq)
        data_rows = [line for line in
                     (tmp_path / "p_matrix.csv").read_text().splitlines()
                     if not line.startswith("#")][1:]
        assert all("|" in row for row in data_rows)
        loaded = load_sequence(tmp_path)
        assert loaded.num_walkers == 2
        assert np.array_equal(loaded.rho, seq.rho)


class TestStore:
    def test_default_base_is_recorded_and_labels_tuples(self, tmp_path, c4):
        pg = ProductGraph(c4, 2)
        built = build_sequence(pg, CoinSpec.hadamard(c4),
                               ShiftSpec.moving(c4),
                               WaveFunction.localized(pg, (0, 0), (0, 0)), 2)
        seq = TransitionMatrixSeq(built.matrices, built.rho, pg)
        assert seq.num_base_vertices == 4
        save_sequence(tmp_path, seq)
        with np.load(tmp_path / "sequence.npz") as store:
            assert int(store["num_walkers"]) == 2
            assert store["port_offsets"].tolist() == c4.port_offsets.tolist()
            assert store["heads"].tolist() == c4.heads.tolist()
            assert "num_base_vertices" not in store.files
        # both walkers move at every step, so their vertex parities agree:
        # (1, 3) has mass at t = 1, (1, 2) never, and is not listed
        masses = {(int(t), v): float(r)
                  for t, v, r in read_table(tmp_path / "rho").rows}
        assert masses[1, "1|3"] == seq.rho[1, 7] > 0.0
        assert not {(t, "1|2") for t in range(3)} & masses.keys()
        loaded = load_sequence(tmp_path)
        assert loaded.graph == pg and loaded.num_base_vertices == 4

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_shared_labels_are_checked_and_formatted_once(
            self, tmp_path, monkeypatch, fmt):
        # the u and v columns of the p_matrix table share one labels
        # array; a write checks it once and spells it once, by one _cells
        # call, which decodes its texts for JSON only
        g = torus_graph((4, 4))
        pg = ProductGraph(g, 2)
        seq = build_sequence(pg, CoinSpec.hadamard(g), ShiftSpec.flip_flop(g),
                             WaveFunction.localized(pg, (0, 5), 0), 4)
        save_sequence(tmp_path, seq, fmt=fmt)
        with np.load(tmp_path / "sequence.npz") as store:
            table = matrix_table(dict(store))
        assert table.columns[2].values is table.columns[1].values
        calls = {"_check_text": 0, "_cells": 0, "decode": 0}

        class Labels(np.ndarray):
            # a decoding casts the bytes texts, or a gather of them, to str
            def astype(self, dtype, *args, **kwargs):
                calls["decode"] += np.dtype(dtype).kind == "U"
                return super().astype(dtype, *args, **kwargs)

        labels = table.columns[1].values.view(Labels)
        table.columns[1:3] = [CodedColumn(c.codes, labels)
                              for c in table.columns[1:3]]
        for name in ("_check_text", "_cells"):
            def spy(part, *args, real=getattr(persist, name), name=name):
                calls[name] += part is labels
                return real(part, *args)
            monkeypatch.setattr(persist, name, spy)
        got = write_table(tmp_path / "again", table, fmt).read_bytes()
        assert calls == {"_check_text": 1, "_cells": 1,
                         "decode": int(fmt == "json")}
        assert got == (tmp_path / f"p_matrix.{fmt}").read_bytes()
        if fmt == "csv":
            assert got == reference_write_table(tmp_path / "want",
                                                table).read_bytes()

    @pytest.mark.parametrize("damage, message", [
        (lambda p: p.unlink(), "sequence.npz is missing"),
        (lambda p: p.write_bytes(p.read_bytes()[:200]), "not an .npz"),
        (lambda p: p.write_text("t,u,v,p\n0,0,1,0.5\n"), "not an .npz"),
        (lambda p: rewrite_store(p, indptr=None),
         "lacks a 1-d member 'indptr'"),
        (lambda p: rewrite_store(p, data=np.array([0.5, None], dtype=object)),
         "cannot read .*allow_pickle"),
        (lambda p: rewrite_store(p, indices=np.arange(3.0)),
         "lacks a 1-d member 'indices' of dtype kind 'i'"),
        # a store written before the graph travelled with it
        (lambda p: rewrite_store(p, port_offsets=None, heads=None,
                                 num_base_vertices=np.int64(4)),
         "lacks a 1-d member 'port_offsets'"),
        (lambda p: rewrite_store(p, heads=np.array([1, 3, 2, 0, 3, 1, 0,
                                                    1])),
         "holds no valid sequence: .*without its reverse"),
        (lambda p: rewrite_store(p, num_walkers=np.int64(2)),
         "holds no valid sequence: rho has shape \\(7, 4\\)"),
    ], ids=["missing", "truncated", "not-a-zip", "missing-member",
            "object-member", "float-indices", "old-store", "asymmetric-graph",
            "walker-count"])
    def test_malformed_store_is_a_validation_error(self, tmp_path, c4_seq,
                                                   damage, message, capsys):
        save_sequence(tmp_path, c4_seq)
        damage(tmp_path / "sequence.npz")
        with pytest.raises(ValidationError, match=message):
            load_sequence(tmp_path)
        assert main(["verify", "--in-dir", str(tmp_path)]) == 2
        assert "sequence.npz" in capsys.readouterr().err


class TestManifest:
    def test_sha_stable_and_round_trip(self, tmp_path, c4):
        config = {"graph": {"type": "cycle", "n": 4},
                  "coin": {"type": "hadamard"},
                  "shift": {"type": "moving"}, "horizon": 5, "seed": 1}
        m1 = manifest_for(config, "equivalence", c4)
        m2 = manifest_for(config, "equivalence", c4)
        assert m1.sha256 == m2.sha256
        m1.save(tmp_path)
        back = RunManifest.load(tmp_path)
        assert back.sha256 == m1.sha256
        assert back.rng_algorithm == "numpy-PCG64"

    def test_params_change_the_hash(self, c4):
        config = {"graph": {"type": "cycle", "n": 4}}
        m1 = manifest_for(config, "sample", c4, ensemble_size=10)
        m2 = manifest_for(config, "sample", c4, ensemble_size=20)
        assert m1.sha256 != m2.sha256

    def test_a_store_is_matched_to_its_manifest_by_the_file_bytes(
            self, tmp_path, c4, monkeypatch):
        # the saved bytes match without serialising the manifest again; a
        # manifest spelled otherwise is serialised and still matches
        config = {"graph": {"type": "cycle", "n": 4},
                  "coin": {"type": "hadamard"},
                  "shift": {"type": "moving"}, "horizon": 3, "seed": 1}
        manifest = manifest_for(config, "equivalence", c4)
        seq = build_sequence(c4, CoinSpec.hadamard(c4), ShiftSpec.moving(c4),
                             WaveFunction.localized(c4, 0, 0), 3)
        save_sequence(tmp_path, seq, manifest.save(tmp_path))
        compact, serialised = RunManifest._compact, []

        def spy(self):
            serialised.append(self.command)
            return compact(self)
        monkeypatch.setattr(RunManifest, "_compact", spy)
        assert load_sequence(tmp_path).rho.tobytes() == seq.rho.tobytes()
        assert serialised == []
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(json.loads(path.read_text()), indent=1))
        assert load_sequence(tmp_path).rho.tobytes() == seq.rho.tobytes()
        assert serialised == ["equivalence"]

    def test_sample_from_a_store_reads_the_manifest_once(self, tmp_path,
                                                         monkeypatch):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "graph": {"type": "cycle", "n": 6}, "coin": {"type": "hadamard"},
            "shift": {"type": "moving"}, "horizon": 3, "seed": 1}))
        assert main(["equivalence", "--config", str(config), "--out-dir",
                     str(tmp_path / "eq")]) == 0
        reads, read_bytes = [], Path.read_bytes

        def spy(path):
            reads.append(path.name)
            return read_bytes(path)
        monkeypatch.setattr(Path, "read_bytes", spy)
        monkeypatch.setattr(Path, "read_text",
                            lambda path, *args, **kwargs: spy(path).decode())
        assert main(["sample", "--from", str(tmp_path / "eq"), "--out-dir",
                     str(tmp_path / "s")]) == 0
        assert reads.count("manifest.json") == 1


class TestSpecParsing:
    def test_named_coins(self, c4):
        assert coin_from_json({"type": "hadamard"}, c4).name == "hadamard"
        assert coin_from_json({"type": "grover"}, c4).name == "grover"

    def test_explicit_coin_blocks(self, c4):
        h = (1 / np.sqrt(2)) * np.array([[1, 1], [1, -1]])
        doc = {"type": "explicit",
               "blocks": [[[float(x), 0.0] for x in row] for row in h]}
        spec = coin_from_json({"type": "explicit",
                               "blocks": [doc["blocks"]] * 4}, c4)
        assert np.allclose(spec.blocks[0], h)

    def test_coin_schedule(self, c4):
        coin = coin_from_json({"schedule": {"2": {"type": "grover"}},
                               "default": {"type": "hadamard"}}, c4)
        assert coin(0).name == "hadamard"
        assert coin(2).name == "grover"
        for keys, message in ((["1", "01"], "one step"),
                              (["1", "x"], "'x'")):
            with pytest.raises(ConfigError, match=message):
                coin_from_json({"schedule": {k: {"type": "grover"}
                                             for k in keys},
                                "default": {"type": "hadamard"}}, c4)

    def test_unknown_coin_type(self, c4):
        with pytest.raises(ConfigError):
            coin_from_json({"type": "fourier"}, c4)

    def test_shifts(self, c4):
        assert shift_from_json({"type": "moving"}, c4).name == "moving"
        assert shift_from_json({"type": "flip-flop"}, c4).name == "flip-flop"
        perm = shift_from_json(
            {"type": "explicit",
             "permutation": ShiftSpec.flip_flop(c4).permutation.tolist()},
            c4)
        assert perm.name == "explicit"

    def test_interaction_parsing(self, c4):
        pg = ProductGraph(c4, 2)
        spec = interaction_from_json({"type": "coincidence-phase",
                                      "phi": 3.14}, pg)
        assert spec.phase == 3.14
        assert interaction_from_json(None, pg) is None

    def test_initial_state_default_is_origin(self, c4):
        psi = initial_state_from_json(None, c4)
        assert psi.amplitudes[0] == 1.0

    def test_initial_state_components(self, c4):
        amp = 1.0 / np.sqrt(2.0)
        doc = [{"vertex": 0, "port": 0, "re": amp},
               {"vertex": 0, "port": 1, "im": amp}]
        psi = initial_state_from_json(doc, c4)
        assert abs(abs(psi.amplitudes[0]) ** 2 - 0.5) < 1e-12

    def test_initial_state_renormalisation_warns(self, c4):
        with pytest.warns(UserWarning, match="renormalised"):
            initial_state_from_json([{"vertex": 0, "port": 0, "re": 2.0}], c4)

    def test_multiwalker_initial_state(self, c4):
        pg = ProductGraph(c4, 2)
        psi = initial_state_from_json(
            [{"vertex": [0, 1], "port": [0, 1], "re": 1.0}], pg)
        assert psi.num_walkers == 2

    def test_graph_and_spaces(self):
        base, space, walkers = graph_and_spaces(
            {"graph": {"type": "cycle", "n": 4}, "walkers": 2})
        assert walkers == 2
        assert space == ProductGraph(base, 2)
        base, space, walkers = graph_and_spaces(
            {"graph": {"type": "cycle", "n": 4}})
        assert (space, walkers) == (ProductGraph(base, 1), 1)
        with pytest.raises(ConfigError):
            graph_and_spaces({})
