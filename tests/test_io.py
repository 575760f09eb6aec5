"""io tests: bit-exact round trips, hand-unpacked headers, malformed files."""

import io as stdio
import json
import math
import os
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qperiod import circuit, classifier, io, linalg


class TestUnitaryFiles:
    def test_round_trip_is_bit_exact(self, tmp_path):
        m = linalg.haar_random_unitary(3, 0)
        path = tmp_path / "m.umat"
        io.write_unitary(path, m, 3)
        back, n = io.read_unitary(path)
        assert n == 3
        assert np.array_equal(back, m)
        assert back.dtype == np.complex128

    def test_header_layout_by_hand(self, tmp_path):
        m = linalg.haar_random_unitary(2, 1)
        path = tmp_path / "m.umat"
        io.write_unitary(path, m, 2)
        blob = path.read_bytes()
        magic, n_qubits, rows, cols, reserved = struct.unpack_from("<8sIIII", blob, 0)
        assert magic == b"UMAT0001"
        assert (n_qubits, rows, cols, reserved) == (2, 4, 4, 0)
        assert len(blob) == 24 + 16 * rows * cols
        re0, im0 = struct.unpack_from("<dd", blob, 24)
        assert re0 == m[0, 0].real
        assert im0 == m[0, 0].imag
        # last element sits at the end of the payload
        re_last, im_last = struct.unpack_from("<dd", blob, len(blob) - 16)
        assert re_last == m[3, 3].real
        assert im_last == m[3, 3].imag

    def test_write_rejects_shape_mismatch(self, tmp_path):
        with pytest.raises(ValueError):
            io.write_unitary(tmp_path / "m.umat", np.eye(4), 3)

    def test_write_rejects_non_finite(self, tmp_path):
        bad = np.eye(2, dtype=complex)
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            io.write_unitary(tmp_path / "m.umat", bad, 1)

    def test_read_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "m.umat"
        io.write_unitary(path, np.eye(2, dtype=complex), 1)
        blob = bytearray(path.read_bytes())
        blob[:8] = b"XMAT0001"
        path.write_bytes(bytes(blob))
        with pytest.raises(io.DataFormatError, match="offset 0"):
            io.read_unitary(path)

    def test_read_rejects_truncation(self, tmp_path):
        path = tmp_path / "m.umat"
        io.write_unitary(path, np.eye(2, dtype=complex), 1)
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(io.DataFormatError):
            io.read_unitary(path)

    def test_read_rejects_trailing_bytes(self, tmp_path):
        path = tmp_path / "m.umat"
        io.write_unitary(path, np.eye(2, dtype=complex), 1)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(io.DataFormatError):
            io.read_unitary(path)

    def test_read_rejects_inconsistent_header(self, tmp_path):
        path = tmp_path / "m.umat"
        payload = np.zeros(9, dtype="<c16").tobytes()
        path.write_bytes(struct.pack("<8sIIII", b"UMAT0001", 2, 3, 3, 0) + payload)
        with pytest.raises(io.DataFormatError):
            io.read_unitary(path)

    def test_read_rejects_a_register_wider_than_a_u32_row_count_before_any_power(self, tmp_path):
        # 2 ** 0xFFFFFFFF alone would take seconds and hundreds of megabytes
        path = tmp_path / "m.umat"
        payload = np.zeros(16, dtype="<c16").tobytes()
        path.write_bytes(struct.pack("<8sIIII", b"UMAT0001", 0xFFFFFFFF, 4, 4, 0) + payload)
        with pytest.raises(io.DataFormatError) as err:
            io.read_unitary(path)
        assert str(err.value) == f"{path}: n_qubits=4294967295 is above 31, the u32 limit"

    def test_read_rejects_non_finite_payload(self, tmp_path):
        path = tmp_path / "m.umat"
        payload = np.full(4, np.nan, dtype="<c16").tobytes()
        path.write_bytes(struct.pack("<8sIIII", b"UMAT0001", 1, 2, 2, 0) + payload)
        with pytest.raises(io.DataFormatError):
            io.read_unitary(path)

    def test_read_rejects_empty_file(self, tmp_path):
        path = tmp_path / "m.umat"
        path.write_bytes(b"")
        with pytest.raises(io.DataFormatError):
            io.read_unitary(path)

    def test_read_matches_frombuffer_of_the_file(self, tmp_path):
        # exact: the payload is read in place, not decoded
        for n in range(1, 9):
            path = tmp_path / f"m{n}.umat"
            io.write_unitary(path, linalg.haar_random_unitary(n, n), n)
            want = np.frombuffer(path.read_bytes(), dtype="<c16", offset=24)
            back, back_n = io.read_unitary(path)
            assert back_n == n
            assert back.dtype == np.complex128 and back.shape == (2 ** n, 2 ** n)
            assert back.flags.c_contiguous and back.flags.writeable
            assert back.tobytes() == want.tobytes()

    @pytest.mark.parametrize("edit,message", [
        (lambda blob: blob[:-1], "length 87 != expected 88"),
        (lambda blob: blob + b"\x00", "length 89 != expected 88"),
        (lambda blob: blob[:24] + np.full(4, np.inf, dtype="<c16").tobytes(),
         "non-finite matrix entries"),
        (lambda blob: b"XMAT0001" + blob[8:], "bad magic b'XMAT0001' at offset 0"),
        (lambda blob: blob[:10], "truncated header (10 bytes, need 24)"),
    ])
    def test_read_error_messages(self, tmp_path, edit, message):
        path = tmp_path / "m.umat"
        io.write_unitary(path, np.eye(2, dtype=complex), 1)
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(io.DataFormatError) as err:
            io.read_unitary(path)
        assert str(err.value) == f"{path}: {message}"

    def test_read_rejects_short_read(self, tmp_path, monkeypatch):
        # a file that shrinks after its size was checked
        path = tmp_path / "m.umat"
        io.write_unitary(path, np.eye(2, dtype=complex), 1)
        path.write_bytes(path.read_bytes()[:-16])
        claimed = os.stat_result((0,) * 6 + (88,) + (0,) * 3)  # st_size is field 6
        monkeypatch.setattr(io.os, "fstat", lambda fd: claimed)
        with pytest.raises(io.DataFormatError) as err:
            io.read_unitary(path)
        assert str(err.value) == f"{path}: short read (48 of 64 payload bytes)"

    @given(seed=st.integers(0, 10 ** 6), n=st.integers(1, 3))
    @settings(max_examples=20)
    def test_property_round_trip(self, seed, n, tmp_path_factory):
        m = linalg.haar_random_unitary(n, seed)
        path = tmp_path_factory.mktemp("umat") / "m.umat"
        io.write_unitary(path, m, n)
        back, back_n = io.read_unitary(path)
        assert back_n == n
        assert np.array_equal(back, m)


def mlp_of_zeros(weight_shapes, bias_lengths):
    return classifier.MLP(weights=[np.zeros(shape) for shape in weight_shapes],
                          biases=[np.zeros(length) for length in bias_lengths])


def mlp_with_entry(tensors, value):
    """A 2-3-1 net of zeros but for one entry of its first weight or bias."""
    net = mlp_of_zeros([(2, 3), (3, 1)], [3, 1])
    getattr(net, tensors)[0].flat[1] = value
    return net


class TestMlpFiles:
    def test_round_trip_is_bit_exact(self, tmp_path):
        net = classifier.initialize_mlp(
            classifier.MLPConfig(input_dim=8, hidden_dims=(5, 3), seed=4))
        net.biases[0][:] = 0.25
        path = tmp_path / "net.mlpc"
        io.write_mlp(path, net)
        back = io.read_mlp(path)
        assert len(back.weights) == 3
        for got, want in zip(back.weights, net.weights):
            assert np.array_equal(got, want)
        for got, want in zip(back.biases, net.biases):
            assert np.array_equal(got, want)

    def test_header_layout_by_hand(self, tmp_path):
        net = classifier.initialize_mlp(
            classifier.MLPConfig(input_dim=4, hidden_dims=(2,), seed=5))
        path = tmp_path / "net.mlpc"
        io.write_mlp(path, net)
        blob = path.read_bytes()
        assert blob[:8] == b"MLPC0001"
        (layers,) = struct.unpack_from("<I", blob, 8)
        assert layers == 2
        dims = struct.unpack_from("<3I", blob, 12)
        assert dims == (4, 2, 1)
        expected = 8 + 4 + 12 + 8 * (4 * 2 + 2 + 2 * 1 + 1)
        assert len(blob) == expected

    def test_read_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "net.mlpc"
        path.write_bytes(b"XLPC0001" + struct.pack("<I", 1))
        with pytest.raises(io.DataFormatError):
            io.read_mlp(path)

    def test_read_rejects_trailing_bytes(self, tmp_path):
        net = classifier.MLP(weights=[np.zeros((2, 1))], biases=[np.zeros(1)])
        path = tmp_path / "net.mlpc"
        io.write_mlp(path, net)
        path.write_bytes(path.read_bytes() + b"\x01")
        with pytest.raises(io.DataFormatError):
            io.read_mlp(path)

    def test_read_rejects_truncated_payload(self, tmp_path):
        net = classifier.MLP(weights=[np.zeros((2, 1))], biases=[np.zeros(1)])
        path = tmp_path / "net.mlpc"
        io.write_mlp(path, net)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(io.DataFormatError):
            io.read_mlp(path)

    @pytest.mark.parametrize("dims", [(32, 4, 2), (8, 3), (0, 4, 1), (8, 0, 1), (8, 4, 0),
                                      (8, 0)])
    def test_read_rejects_a_zero_width_or_an_output_other_than_one(self, tmp_path, dims):
        # a well-sized payload, so only the widths are wrong
        size = sum(din * dout + dout for din, dout in zip(dims[:-1], dims[1:]))
        path = tmp_path / "net.mlpc"
        path.write_bytes(b"MLPC0001" + struct.pack(f"<I{len(dims)}I", len(dims) - 1, *dims)
                         + b"\x00" * (8 * size))
        with pytest.raises(io.DataFormatError, match="layer widths"):
            io.read_mlp(path)

    @pytest.mark.parametrize("make, match", [
        (lambda: classifier.initialize_mlp(
            classifier.MLPConfig(input_dim=8, hidden_dims=(0,))), "layer widths"),
        (lambda: mlp_of_zeros([(4, 3), (3, 2)], [3, 2]), "layer widths"),
        (lambda: mlp_of_zeros([(1, 1)] * 65, [1] * 65), "implausible layer count 65"),
        (lambda: classifier.MLP(weights=[], biases=[]), "implausible layer count 0"),
        (lambda: mlp_of_zeros([(4, 3), (3, 1)], [2, 1]), "not chained"),
        (lambda: mlp_of_zeros([(4, 3), (3, 1)], [3]), "not chained"),
        (lambda: mlp_of_zeros([(4, 3), (2, 1)], [3, 1]), "not chained"),
        (lambda: mlp_of_zeros([(4,)], [4]), "not chained"),
        (lambda: mlp_of_zeros([(1, 4, 1)], [1]), "not chained"),
        (lambda: mlp_with_entry("weights", np.nan), "non-finite"),
        (lambda: mlp_with_entry("biases", np.inf), "non-finite"),
    ], ids=["zero-width", "two-outputs", "65-layers", "no-layers", "short-bias",
            "missing-bias", "unchained", "1-d-weights", "3-d-weights", "nan-weight",
            "inf-bias"])
    def test_write_refuses_a_net_that_read_would_refuse(self, tmp_path, make, match):
        # read_mlp refuses each of these nets (or write_mlp could not pack it),
        # so write_mlp refuses it before making a file
        path = tmp_path / "net.mlpc"
        path.write_bytes(b"previous")
        with pytest.raises(ValueError, match=match):
            io.write_mlp(path, make())
        assert path.read_bytes() == b"previous"
        assert [p.name for p in tmp_path.iterdir()] == ["net.mlpc"]

    # payload offsets of a 2-3-1 file (a 24-byte header): a first-layer
    # weight, a hidden bias, the output bias
    @pytest.mark.parametrize("offset", [32, 80, 120])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_read_rejects_non_finite_parameters(self, tmp_path, offset, value):
        # patched in by hand, since write_mlp refuses such a net
        path = tmp_path / "net.mlpc"
        io.write_mlp(path, mlp_of_zeros([(2, 3), (3, 1)], [3, 1]))
        blob = bytearray(path.read_bytes())
        assert len(blob) == 128
        blob[offset:offset + 8] = struct.pack("<d", value)
        path.write_bytes(blob)
        with pytest.raises(io.DataFormatError, match="non-finite"):
            io.read_mlp(path)

    def test_read_rejects_implausible_layer_count(self, tmp_path):
        path = tmp_path / "net.mlpc"
        path.write_bytes(b"MLPC0001" + struct.pack("<I", 65) + b"\x00" * 300)
        with pytest.raises(io.DataFormatError):
            io.read_mlp(path)


class TestRunManifest:
    def manifest(self):
        return {
            "n": 2, "m": 2, "k": 1.0, "target": "qft",
            "gaussian_sigma": 1.0, "alpha": 0.001,
            "beta1": 0.9, "beta2": 0.99, "epsilon": 1e-8, "epochs": 10,
            "seed": 0, "dataset": [], "loss_history": [0.5, 0.25],
        }

    def test_round_trip(self, tmp_path):
        path = tmp_path / "run.json"
        io.write_run_manifest(path, self.manifest())
        assert io.read_run_manifest(path) == self.manifest()

    def test_write_rejects_missing_key(self, tmp_path):
        bad = self.manifest()
        del bad["alpha"]
        with pytest.raises(ValueError, match="alpha"):
            io.write_run_manifest(tmp_path / "run.json", bad)

    def test_write_rejects_extra_key(self, tmp_path):
        bad = self.manifest()
        bad["note"] = "hello"
        with pytest.raises(ValueError, match="note"):
            io.write_run_manifest(tmp_path / "run.json", bad)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_write_rejects_non_finite_and_keeps_the_old_file(self, tmp_path, bad):
        path = tmp_path / "run.json"
        io.write_run_manifest(path, self.manifest())
        before = path.read_bytes()
        manifest = self.manifest()
        manifest["loss_history"] = [0.5, bad]
        with pytest.raises(ValueError, match="JSON compliant"):
            io.write_run_manifest(path, manifest)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]

    def test_read_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "run.json"
        # the second is a manifest that still has the removed `ancilla` key
        for manifest in ({"n": 2}, {**self.manifest(), "ancilla": 0}):
            path.write_text(json.dumps(manifest))
            with pytest.raises(io.DataFormatError, match="keys do not match"):
                io.read_run_manifest(path)


@pytest.mark.parametrize("read", [io.read_run_manifest, io.read_corpus],
                         ids=["run-manifest", "corpus"])
@pytest.mark.parametrize("blob, why", [(b"{not json", "Expecting property name"),
                                       (b"", "Expecting value"),
                                       (b'{"n": 1}\xff', "codec can't decode")],
                         ids=["syntax", "empty", "not-utf8"])
def test_manifest_readers_name_the_file_that_is_not_json(tmp_path, read, blob, why):
    path = tmp_path / "manifest.json"
    path.write_bytes(blob)
    with pytest.raises(io.DataFormatError,
                       match=re.escape(f"{path}: not valid JSON: ") + ".*" + why):
        read(path)


class TestCorpusFiles:
    def small_corpus(self):
        entries = [
            (linalg.haar_random_unitary(1, 0), 1),
            (linalg.haar_random_unitary(1, 1), 0),
        ]
        provenance = [{"source": "training", "attempt": 0},
                      {"source": "haar", "index": 0}]
        return classifier.LabeledUnitaryCorpus(entries=entries, provenance=provenance)

    def test_round_trip(self, tmp_path):
        corpus = self.small_corpus()
        manifest_path = io.write_corpus(tmp_path / "corpus", corpus, 1)
        assert manifest_path.name == "corpus_manifest.json"
        assert (tmp_path / "corpus" / "learned_0000.umat").exists()
        assert (tmp_path / "corpus" / "haar_0000.umat").exists()
        back, n = io.read_corpus(manifest_path)
        assert n == 1
        assert [label for _, label in back.entries] == [1, 0]
        for (got, _), (want, _) in zip(back.entries, corpus.entries):
            assert np.array_equal(got, want)
        assert back.provenance == corpus.provenance

    def test_a_rewrite_that_fails_part_way_leaves_no_manifest(self, tmp_path, monkeypatch):
        # the old manifest would otherwise describe a mix of old and new matrices
        def corpus(seed):
            entries = [(linalg.haar_random_unitary(1, (seed, i)), i % 2) for i in range(4)]
            return classifier.LabeledUnitaryCorpus(
                entries=entries, provenance=[{"seed": seed}] * 4)

        io.write_corpus(tmp_path, corpus(1), 1)
        write_unitary, calls = io.write_unitary, []

        def failing_third_write(*args):
            calls.append(args)
            if len(calls) == 3:
                raise OSError(28, "No space left on device")
            write_unitary(*args)

        monkeypatch.setattr(io, "write_unitary", failing_third_write)
        with pytest.raises(OSError):
            io.write_corpus(tmp_path, corpus(2), 1)
        assert not (tmp_path / "corpus_manifest.json").exists()
        with pytest.raises(FileNotFoundError):
            io.read_corpus(tmp_path / "corpus_manifest.json")

    def test_a_smaller_rewrite_removes_the_earlier_matrices(self, tmp_path):
        def corpus(per_class):
            entries = [(linalg.haar_random_unitary(1, i), i % 2) for i in range(2 * per_class)]
            return classifier.LabeledUnitaryCorpus(
                entries=entries, provenance=[{}] * len(entries))

        io.write_corpus(tmp_path, corpus(3), 1)
        (tmp_path / "mine.umat").write_bytes(b"not the writer's")
        manifest_path = io.write_corpus(tmp_path, corpus(1), 1)
        named = {rec["matrix_path"] for rec in json.loads(manifest_path.read_text())["entries"]}
        assert named == {"haar_0000.umat", "learned_0000.umat"}
        assert {p.name for p in tmp_path.glob("*.umat")} == named | {"mine.umat"}
        assert len(io.read_corpus(manifest_path)[0].entries) == 2

    def test_read_rejects_qubit_mismatch(self, tmp_path):
        manifest_path = io.write_corpus(tmp_path / "corpus", self.small_corpus(), 1)
        manifest = json.loads(manifest_path.read_text())
        manifest["n_qubits"] = 2
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(io.DataFormatError):
            io.read_corpus(manifest_path)

    @pytest.mark.parametrize("label", [2, -1, True, 1.0, "1", None])
    def test_read_rejects_labels_other_than_zero_or_one(self, tmp_path, label):
        manifest_path = io.write_corpus(tmp_path / "corpus", self.small_corpus(), 1)
        manifest = json.loads(manifest_path.read_text())
        manifest["entries"][1]["label"] = label
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(io.DataFormatError, match=r"entry 1 has label .*, not 0 or 1"):
            io.read_corpus(manifest_path)

    @pytest.mark.parametrize("key, value, match", [
        ("n_qubits", None, "n_qubits None is not an integer"),
        ("n_qubits", "x", "n_qubits 'x' is not an integer"),
        ("n_qubits", 2.5, "n_qubits 2.5 is not an integer"),
        ("n_qubits", 1.0, "n_qubits 1.0 is not an integer"),
        ("n_qubits", True, "n_qubits True is not an integer"),
        ("entries", {"0": {"matrix_path": "learned_0000.umat", "label": 1}},
         "entries is not a list"),
        ("entries", "learned_0000.umat", "entries is not a list"),
        ("matrix_path", 5, "entry 1 has matrix_path 5, not a string"),
        ("matrix_path", None, "entry 1 has matrix_path None, not a string"),
        ("matrix_path", ["haar_0000.umat"], r"entry 1 has matrix_path \['haar_0000.umat'\]"),
    ])
    def test_read_rejects_malformed_fields_naming_the_manifest(self, tmp_path, key, value,
                                                               match):
        manifest_path = io.write_corpus(tmp_path / "corpus", self.small_corpus(), 1)
        manifest = json.loads(manifest_path.read_text())
        if key == "matrix_path":
            manifest["entries"][1][key] = value
        else:
            manifest[key] = value
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(io.DataFormatError, match=re.escape(str(manifest_path)) + ": " + match):
            io.read_corpus(manifest_path)

    def test_read_rejects_a_manifest_that_is_not_an_object(self, tmp_path):
        path = tmp_path / "corpus_manifest.json"
        path.write_text("[1, 2]")
        with pytest.raises(io.DataFormatError, match="missing corpus manifest keys"):
            io.read_corpus(path)

    def test_read_rejects_empty_corpus(self, tmp_path):
        path = tmp_path / "corpus_manifest.json"
        path.write_text(json.dumps({"n_qubits": 1, "entries": []}))
        with pytest.raises(io.DataFormatError):
            io.read_corpus(path)

    def test_read_rejects_missing_keys(self, tmp_path):
        path = tmp_path / "corpus_manifest.json"
        path.write_text(json.dumps({"entries": []}))
        with pytest.raises(io.DataFormatError):
            io.read_corpus(path)


class TestWriteCsv:
    def test_header_and_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        io.write_csv(path, ["a", "b"], [(1, 2), (3, 4)])
        # read_bytes: read_text would fold the \r\n terminators into \n
        assert path.read_bytes() == b"a,b\r\n1,2\r\n3,4\r\n"

    def test_quotes_fields_with_commas(self, tmp_path):
        path = tmp_path / "t.csv"
        io.write_csv(path, ["x"], [("hello, world",)])
        assert '"hello, world"' in path.read_text()

    def test_accepts_open_file_objects(self):
        buffer = stdio.StringIO()
        io.write_csv(buffer, ["a"], [(1,)])
        assert buffer.getvalue().splitlines()[0] == "a"


class TestAtomicWrites:
    """A write that raises part-way keeps the previous file's bytes and
    leaves no temp file in the directory."""

    def test_csv(self, tmp_path):
        path = tmp_path / "t.csv"
        io.write_csv(path, ["a", "b"], [(1, 2)])
        before = path.read_bytes()

        def rows():
            yield (3, 4)
            raise RuntimeError("row source failed")

        with pytest.raises(RuntimeError, match="row source failed"):
            io.write_csv(path, ["a", "b"], rows())
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]

    def test_run_manifest(self, tmp_path):
        path = tmp_path / "run.json"
        manifest = TestRunManifest().manifest()
        io.write_run_manifest(path, manifest)
        before = path.read_bytes()
        # json.dump has written the keys sorted before "loss_history" when it fails
        with pytest.raises(TypeError):
            io.write_run_manifest(path, {**manifest, "loss_history": [0.5, object()]})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]

    def test_mlp(self, tmp_path):
        path = tmp_path / "net.mlpc"
        net = classifier.initialize_mlp(classifier.MLPConfig(input_dim=4, seed=0))
        io.write_mlp(path, net)
        before = path.read_bytes()
        # the header and the first layer are written before the bad weights
        bad = classifier.MLP(weights=[net.weights[0], np.array([[object()]] * 8)],
                             biases=[net.biases[0], np.zeros(1)])
        with pytest.raises(TypeError):
            io.write_mlp(path, bad)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["net.mlpc"]

    def test_unitary_overwrite_leaves_only_the_file(self, tmp_path):
        path = tmp_path / "m.umat"
        io.write_unitary(path, linalg.haar_random_unitary(2, 0), 2)
        m = linalg.haar_random_unitary(2, 1)
        io.write_unitary(path, m, 2)
        assert np.array_equal(io.read_unitary(path)[0], m)
        assert [p.name for p in tmp_path.iterdir()] == ["m.umat"]
