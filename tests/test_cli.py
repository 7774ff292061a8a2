import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from coherentrx import cli, formulator, simulator
from coherentrx.cli import main
from coherentrx.formulator import FormulatorConfig
from coherentrx.photonics import NoiseModel
from coherentrx.tree import load_receiver


# what a Constellation says of a codeword amplitude beyond 1e150, and the
# spec loader of a detected mean beyond 1e300
AMPLITUDE_OUT_OF_RANGE = "codeword amplitudes must be finite and at most 1e+150 in magnitude (1e+300 photons)"
SPEC_OUT_OF_RANGE = (
    "receiver spec out of range: a detected mean photon number exceeds 1e+300; "
    "node displacements and codeword amplitudes must stay below about 1e150"
)


def run(*argv):
    return main([str(a) for a in argv])


def read_csv(path):
    meta, columns, rows = {}, None, []
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, _, val = line[2:].partition(" = ")
            meta[key] = val
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, columns, rows


@pytest.fixture(scope="module")
def bpsk_receiver(tmp_path_factory):
    out = tmp_path_factory.mktemp("opt") / "receiver.json"
    code = run(
        "optimize", "--encoding", "bpsk", "--rounds", 4, "--arity", 2,
        "--mean-photon", 1.2, "--visibility", 0.9975, "--efficiency", 0.85,
        "--dark", 1e-3, "--phase-jitter", 0.02, "--amp-jitter", 0.005,
        "--iters", 60, "--batch", 6, "--seed", 7, "--out", out,
    )
    assert code == 0
    return out


class TestOptimize:
    def test_writes_receiver_and_trace(self, bpsk_receiver):
        trace = bpsk_receiver.parent / "receiver_trace.csv"
        assert bpsk_receiver.exists() and trace.exists()
        doc = json.loads(bpsk_receiver.read_text())
        assert doc["N"] == 4 and doc["M"] == 2
        assert doc["metadata"]["seed"] == 7
        assert doc["metadata"]["tree_parameters"] == 30
        assert doc["metadata"]["table_entries"] == 16
        meta, columns, rows = read_csv(trace)
        assert columns == ["iteration", "loss", "gradient_norm"]
        assert meta["seed"] == "7"
        assert len(rows) >= 10

    def test_byte_identical_rerun(self, bpsk_receiver, tmp_path):
        out2 = tmp_path / "again.json"
        code = run(
            "optimize", "--encoding", "bpsk", "--rounds", 4, "--arity", 2,
            "--mean-photon", 1.2, "--visibility", 0.9975, "--efficiency", 0.85,
            "--dark", 1e-3, "--phase-jitter", 0.02, "--amp-jitter", 0.005,
            "--iters", 60, "--batch", 6, "--seed", 7, "--out", out2,
            "--trace", tmp_path / "trace2.csv",
        )
        assert code == 0
        first = json.loads(bpsk_receiver.read_text())
        second = json.loads(out2.read_text())
        assert first == second

    @pytest.mark.parametrize("flag", ["--dark", "--phase-jitter", "--amp-jitter"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_noise_is_usage_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "r.json"
        code = run(
            "optimize", "--encoding", "bpsk", "--rounds", 2, "--arity", 2,
            "--mean-photon", 1.0, flag, value, "--iters", 3, "--out", out,
        )
        assert code == 2
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    # NaN would pass a "<= 0" check, and inf makes no run either
    @pytest.mark.parametrize(
        "flag, message",
        [
            ("--delta", "convergence_delta must be positive and finite"),
            ("--learning-rate", "learning_rate must be positive and finite"),
            ("--perturbation", "init_perturbation must be non-negative and finite"),
        ],
    )
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_formulator_float_is_usage_error(self, tmp_path, capsys, flag, message, value):
        out = tmp_path / "r.json"
        code = run(
            "optimize", "--encoding", "bpsk", "--rounds", 2, "--arity", 2,
            "--mean-photon", 1.0, flag, value, "--iters", 3, "--out", out,
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_invalid_rounds_is_usage_error(self, tmp_path, capsys):
        code = run(
            "optimize", "--encoding", "bpsk", "--rounds", 0, "--arity", 2,
            "--mean-photon", 1.0, "--seed", 1, "--out", tmp_path / "x.json",
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_oversized_tree_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = run(
            "optimize", "--encoding", "bpsk", "--rounds", 40, "--arity", 2,
            "--mean-photon", 1.0, "--iters", 3, "--out", out,
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "65536 leaves" in err
        assert not out.exists()

    def test_out_in_missing_directory_is_io_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "r.json"
        code = run(
            "optimize", "--encoding", "bpsk", "--rounds", 2, "--arity", 2,
            "--mean-photon", 1.0, "--iters", 3, "--out", out,
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write output file {out}: ") and err.count("\n") == 1
        assert not out.parent.exists()

    def test_trace_in_missing_directory_fails_before_learning(self, tmp_path, capsys, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("learning ran before the outputs were checked")

        monkeypatch.setattr(cli, "formulate", no_work)
        out, trace = tmp_path / "r.json", tmp_path / "missing" / "t.csv"
        code = run(
            "optimize", "--encoding", "bpsk", "--rounds", 2, "--arity", 2,
            "--mean-photon", 1.0, "--iters", 3, "--out", out, "--trace", trace,
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write output file {trace}: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_spec_the_loader_refuses_is_not_written(self, tmp_path, capsys):
        # the spec once got written, and evaluate and metrics then refused it
        out = tmp_path / "r.json"
        code = run(
            "optimize", "--encoding", "bpsk", "--rounds", 2, "--arity", 2,
            "--mean-photon", 1e300, "--iters", 3, "--out", out,
        )
        assert code == 2
        assert capsys.readouterr().err == (
            "error: receiver spec out of range: a detected mean photon number exceeds 1e+300; "
            "node displacements and codeword amplitudes must stay below about 1e150\n"
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("encoding, nbar", [("bpsk", 1e308), ("qam6", 1e305)])
    def test_hopeless_mean_photon_fails_before_learning(self, tmp_path, capsys, monkeypatch, encoding, nbar):
        # it once ran the learning loop, printing numpy's overflow warning,
        # before the spec check refused the result
        def no_work(*args, **kwargs):
            raise AssertionError("learning ran on a design no spec can hold")

        monkeypatch.setattr(cli, "formulate", no_work)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(
                "optimize", "--encoding", encoding, "--rounds", 2, "--arity", 2,
                "--mean-photon", nbar, "--iters", 3, "--out", tmp_path / "r.json",
            )
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {AMPLITUDE_OUT_OF_RANGE}") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("encoding, rounds", [("qam6", 3), ("bpsk", 4)])
    def test_huge_learning_rate_rejects_its_steps_without_a_warning(self, tmp_path, capsys, encoding, rounds):
        # the line search once tried candidates whose detected means overflowed
        # into inf and NaN: numpy warnings, then a refused spec for qam6
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(
                "optimize", "--encoding", encoding, "--rounds", rounds, "--arity", 3,
                "--mean-photon", 1, "--learning-rate", 1e200, "--out", tmp_path / "r.json",
            )
        assert code == 0
        assert capsys.readouterr().err == ""
        load_receiver(str(tmp_path / "r.json"))

    def test_huge_perturbation_fails_before_learning(self, tmp_path, capsys, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("learning ran on a start no spec can hold")

        monkeypatch.setattr(formulator, "_batch_forward", no_work)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(
                "optimize", "--encoding", "qam6", "--rounds", 3, "--arity", 3, "--mean-photon", 1,
                "--perturbation", 1e308, "--out", tmp_path / "r.json",
            )
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_loadable_receiver(self, bpsk_receiver):
        rx = load_receiver(str(bpsk_receiver))
        assert rx.tree.rounds == 4
        assert rx.noise_model.visibility == 0.9975


class TestEvaluate:
    def test_sweep_csv(self, bpsk_receiver, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run(
            "evaluate", "--spec", bpsk_receiver, "--sweep", "0.8,1.2",
            "--mc-samples", 100_000, "--batch", 8, "--seed", 3, "--out", out,
        )
        assert code == 0
        _, columns, rows = read_csv(out)
        assert columns == ["mean_photons", "exact_error", "mc_error", "mc_stderr"]
        assert len(rows) == 2
        for row in rows:
            exact, mc, stderr = float(row[1]), float(row[2]), float(row[3])
            assert abs(mc - exact) < 3.5 * max(stderr, 1e-6)

    def test_single_point_equals_one_point_sweep(self, bpsk_receiver, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run("evaluate", "--spec", bpsk_receiver, "--mean-photon", 1.2,
            "--mc-samples", 2000, "--seed", 5, "--out", a)
        run("evaluate", "--spec", bpsk_receiver, "--sweep", "1.2",
            "--mc-samples", 2000, "--seed", 5, "--out", b)
        assert read_csv(a)[2] == read_csv(b)[2]

    def test_reoptimize_monotone_in_energy(self, bpsk_receiver, tmp_path):
        out = tmp_path / "reopt.csv"
        code = run(
            "evaluate", "--spec", bpsk_receiver, "--sweep", "0.6,1.0,1.4",
            "--reoptimize", "--iters", 60, "--batch", 6,
            "--mc-samples", 1000, "--seed", 2, "--out", out,
        )
        assert code == 0
        errs = [float(r[1]) for r in read_csv(out)[2]]
        assert errs[0] >= errs[1] >= errs[2]

    @pytest.mark.parametrize("reoptimize", [False, True])
    @pytest.mark.parametrize("flag, value", [("--mc-samples", 0), ("--mc-samples", -5), ("--batch", 0)])
    def test_bad_count_fails_before_any_evaluation(
        self, bpsk_receiver, tmp_path, capsys, monkeypatch, flag, value, reoptimize
    ):
        def no_work(*args, **kwargs):
            raise AssertionError("evaluation ran before the counts were checked")

        for name in ("optimize_sweep", "averaged_distribution", "mc_sample"):
            monkeypatch.setattr(cli, name, no_work)
        out = tmp_path / "o.csv"
        extra = ["--reoptimize"] if reoptimize else []
        code = run("evaluate", "--spec", bpsk_receiver, "--sweep", "0.6,1.0", *extra,
                   flag, value, "--out", out)
        assert code == 2
        assert capsys.readouterr().err == f"error: {flag} must be at least 1, got {value}\n"
        assert not out.exists()

    @pytest.mark.parametrize("count", [2**70, 2**62])
    def test_run_count_beyond_memory_is_usage_error(self, bpsk_receiver, tmp_path, capsys, count):
        # the sampler allocates its whole-run arrays before the first draw,
        # so numpy refuses these counts at once, and no file is written
        out = tmp_path / "o.csv"
        code = run("evaluate", "--spec", bpsk_receiver, "--mean-photon", 1.2,
                   "--mc-samples", count, "--batch", 2, "--out", out)
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: the Monte Carlo sampler cannot hold {count} runs: it keeps 21 bytes a run\n"
        )
        assert not out.exists()

    def test_missing_spec_is_io_error(self, tmp_path, capsys):
        code = run("evaluate", "--spec", tmp_path / "nope.json",
                   "--mean-photon", 1.0, "--out", tmp_path / "o.csv")
        assert code == 1
        assert "nope.json" in capsys.readouterr().err
        # a directory as the spec: one error line naming it, no traceback
        for command, args in _SPEC_COMMAND_ARGS.items():
            code = run(command, "--spec", tmp_path, *args, tmp_path / "out")
            assert code == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: cannot read input file {tmp_path}: ")
            assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_out_in_missing_directory_is_io_error(self, bpsk_receiver, tmp_path, capsys):
        out = tmp_path / "missing" / "o.csv"
        code = run("evaluate", "--spec", bpsk_receiver, "--mean-photon", 1.0,
                   "--mc-samples", 100, "--batch", 2, "--out", out)
        assert code == 1
        err = capsys.readouterr().err
        # the path given, not the temp file the write went through
        assert err.startswith(f"error: cannot write output file {out}: ") and err.count("\n") == 1
        assert ".tmp" not in err

    def test_out_in_missing_directory_fails_before_any_evaluation(
        self, bpsk_receiver, tmp_path, capsys, monkeypatch
    ):
        def no_work(*args, **kwargs):
            raise AssertionError("evaluation ran before the output was checked")

        for name in ("optimize_sweep", "averaged_distribution", "mc_sample"):
            monkeypatch.setattr(cli, name, no_work)
        out = tmp_path / "missing" / "o.csv"
        code = run("evaluate", "--spec", bpsk_receiver, "--sweep", "0.6,1.0", "--reoptimize",
                   "--out", out)
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: cannot write output file {out}: ")

    def test_spec_header_is_content_hash(self, bpsk_receiver, tmp_path):
        outs = []
        for name in ("a", "b"):
            spec = tmp_path / name / "receiver.json"
            spec.parent.mkdir()
            spec.write_bytes(bpsk_receiver.read_bytes())
            out = tmp_path / f"{name}.csv"
            assert run("evaluate", "--spec", spec, "--mean-photon", 1.2,
                       "--mc-samples", 2000, "--batch", 4, "--out", out) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        digest = hashlib.sha256(bpsk_receiver.read_bytes()).hexdigest()
        assert read_csv(tmp_path / "a.csv")[0]["spec"] == f"sha256:{digest}"


_SPEC_COMMAND_ARGS = {
    "evaluate": ("--mean-photon", 1.0, "--out"),
    "metrics": ("--out-dir",),
}


class TestSpecValidation:
    @pytest.mark.parametrize("command", ["evaluate", "metrics"])
    def test_spec_missing_key_is_usage_error(self, bpsk_receiver, tmp_path, capsys, command):
        doc = json.loads(bpsk_receiver.read_text())
        del doc["N"]
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps(doc))
        code = run(command, "--spec", spec, *_SPEC_COMMAND_ARGS[command], tmp_path / "out")
        assert code == 2
        assert "missing keys" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["evaluate", "metrics"])
    def test_spec_unknown_noise_key_is_usage_error(self, bpsk_receiver, tmp_path, capsys, command):
        doc = json.loads(bpsk_receiver.read_text())
        doc["noise_model"]["gain"] = 2.0
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps(doc))
        code = run(command, "--spec", spec, *_SPEC_COMMAND_ARGS[command], tmp_path / "out")
        assert code == 2
        assert "unknown noise model keys" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "mutate",
        [
            lambda doc: doc["nodes"][0].pop("re"),
            lambda doc: doc["nodes"][0].update(re="abc"),
            lambda doc: doc.update(nodes=5),
            lambda doc: doc.update(constellation=3),
            lambda doc: doc.update(metadata=5),
            # int() would truncate each of these to a valid spec
            lambda doc: doc.update(N=doc["N"] + 0.9),
            lambda doc: doc.update(M=doc["M"] + 0.5),
            lambda doc: doc.update(table=[g + 0.2 for g in doc["table"]]),
            lambda doc: [r.update(label=r["label"] + 0.2) for r in doc["constellation"]],
            lambda doc: doc.update(N=True),
            lambda doc: doc.update(table=[bool(g) for g in doc["table"]]),
            lambda doc: [r.update(label=bool(r["label"])) for r in doc["constellation"]],
        ],
        ids=[
            "node_without_re",
            "non_numeric_re",
            "nodes_not_a_list",
            "constellation_not_a_list",
            "metadata_not_an_object",
            "fractional_N",
            "fractional_M",
            "fractional_table_entries",
            "fractional_labels",
            "boolean_N",
            "boolean_table_entries",
            "boolean_labels",
        ],
    )
    def test_malformed_spec_part_is_usage_error(self, bpsk_receiver, tmp_path, capsys, mutate):
        doc = json.loads(bpsk_receiver.read_text())
        mutate(doc)
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps(doc))
        code = run("evaluate", "--spec", spec, *_SPEC_COMMAND_ARGS["evaluate"], tmp_path / "out")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed receiver spec") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["evaluate", "metrics"])
    @pytest.mark.parametrize("encoding", [["qam6"], {"name": "bpsk"}, 6], ids=["list", "object", "number"])
    def test_non_string_encoding_is_usage_error(self, bpsk_receiver, tmp_path, capsys, command, encoding):
        doc = json.loads(bpsk_receiver.read_text())
        doc["metadata"]["encoding"] = encoding
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps(doc))
        code = run(command, "--spec", spec, *_SPEC_COMMAND_ARGS[command], tmp_path / "out")
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: malformed receiver spec: encoding must be a string, got {encoding!r}\n"

    @pytest.mark.parametrize("command", ["evaluate", "metrics"])
    @pytest.mark.parametrize("entry", [2**70, -(2**63) - 1])
    def test_table_entry_beyond_int64_is_usage_error(self, bpsk_receiver, tmp_path, capsys, command, entry):
        doc = json.loads(bpsk_receiver.read_text())
        doc["table"][0] = entry
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps(doc))
        code = run(command, "--spec", spec, *_SPEC_COMMAND_ARGS[command], tmp_path / "out")
        assert code == 2
        assert capsys.readouterr().err == "error: guesses must be valid labels\n"

    # float() would take each of these for a number
    @pytest.mark.parametrize(
        "mutate",
        [
            lambda doc: doc["noise_model"].update(visibility=True),
            lambda doc: doc["noise_model"].update(efficiency="0.9"),
            lambda doc: doc["constellation"][0].update(re=True),
            lambda doc: doc["constellation"][1].update(im="0"),
            lambda doc: doc["constellation"][0].update(prior="0.5"),
            lambda doc: [r.update(prior=True) for r in doc["constellation"]],
            lambda doc: doc["nodes"][0].update(re=False),
            lambda doc: doc["nodes"][0].update(im="0.0"),
        ],
        ids=[
            "boolean_noise_field",
            "string_noise_field",
            "boolean_codeword_re",
            "string_codeword_im",
            "string_prior",
            "boolean_priors",
            "boolean_node_re",
            "string_node_im",
        ],
    )
    def test_non_number_spec_float_is_usage_error(self, bpsk_receiver, tmp_path, capsys, mutate):
        doc = json.loads(bpsk_receiver.read_text())
        mutate(doc)
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps(doc))
        code = run("evaluate", "--spec", spec, *_SPEC_COMMAND_ARGS["evaluate"], tmp_path / "out")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed receiver spec: TypeError: ")
        assert "must be a number" in err and err.count("\n") == 1

    @staticmethod
    def _run_without_warnings(*argv):
        # any numpy warning becomes an exception, so it cannot pass unseen
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return run(*argv)

    @pytest.mark.parametrize("value", [1e10, -3e12, 1e140])
    def test_node_beyond_the_sampler_is_usage_error(self, bpsk_receiver, tmp_path, capsys, value):
        doc = json.loads(bpsk_receiver.read_text())
        doc["nodes"][0]["re"] = value
        spec = tmp_path / "big.json"
        spec.write_text(json.dumps(doc))
        code = self._run_without_warnings(
            "evaluate", "--spec", spec, "--mean-photon", 1.0, "--mc-samples", 1000, "--out", tmp_path / "o.csv"
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err == (
            "error: a detected mean photon number is beyond what the Monte Carlo sampler "
            "can draw (about 9.2e18); the receiver's displacements are out of its range\n"
        )
        assert not (tmp_path / "o.csv").exists()
        # the exact diagnostics need no sampling, so they still run
        assert self._run_without_warnings("metrics", "--spec", spec, "--out-dir", tmp_path / "m") == 0

    @pytest.mark.parametrize("command", ["evaluate", "metrics"])
    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda doc: doc["nodes"][0].update(re=1e155), SPEC_OUT_OF_RANGE),
            (lambda doc: doc["nodes"][-1].update(im=-1e300), SPEC_OUT_OF_RANGE),
            (lambda doc: doc["constellation"][0].update(re=1e200), AMPLITUDE_OUT_OF_RANGE),
            # finite without jitter, but a jitter draw's scale would overflow it
            (
                lambda doc: [doc["nodes"][0].update(re=1.3e154), doc["noise_model"].update(amplitude_jitter=0.05)],
                SPEC_OUT_OF_RANGE,
            ),
            # efficiency scales the mean into range, but not the square before it
            (
                lambda doc: [doc["nodes"][0].update(re=2e154), doc["noise_model"].update(efficiency=1e-10)],
                SPEC_OUT_OF_RANGE,
            ),
        ],
        ids=["node_re", "node_im", "codeword", "node_with_jitter", "node_at_tiny_efficiency"],
    )
    def test_out_of_range_detected_mean_is_usage_error(
        self, bpsk_receiver, tmp_path, capsys, command, mutate, message
    ):
        doc = json.loads(bpsk_receiver.read_text())
        mutate(doc)
        spec = tmp_path / "big.json"
        spec.write_text(json.dumps(doc))
        code = self._run_without_warnings(command, "--spec", spec, *_SPEC_COMMAND_ARGS[command], tmp_path / "out")
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestBaseline:
    def test_analytic_curves(self, tmp_path):
        out = tmp_path / "curves"
        code = run(
            "baseline", "--receivers", "helstrom,homodyne,kennedy",
            "--sweep", "0.0,0.95,1.2", "--out-dir", out,
        )
        assert code == 0
        _, cols, h_rows = read_csv(out / "helstrom.csv")
        assert cols == ["receiver", "mean_photons", "error"]
        assert float(h_rows[0][2]) == 0.5
        _, _, k_rows = read_csv(out / "kennedy.csv")
        assert abs(float(k_rows[2][2]) - 0.004114873524510015) < 1e-15
        _, _, s_rows = read_csv(out / "homodyne.csv")
        assert abs(float(s_rows[1][2]) - 0.025626291428684757) < 1e-15

    def test_simulated_receivers(self, tmp_path):
        out = tmp_path / "curves"
        code = run(
            "baseline", "--receivers", "cn,dolinar", "--encoding", "bpsk",
            "--rounds", 2, "--arity", 2, "--sweep", "0.5,1.0", "--out-dir", out,
        )
        assert code == 0
        for name in ("cn", "dolinar"):
            _, _, rows = read_csv(out / f"{name}.csv")
            errs = [float(r[2]) for r in rows]
            assert errs[0] > errs[1] > 0

    # the Dolinar DP once scanned an empty fallback set at high photon
    # numbers, and the CN error came out as 1 - sum = -2.2e-16 at (16, N = 6)
    @pytest.mark.parametrize("receiver, rounds, sweep", [("dolinar", 4, "100"), ("cn", 6, "16")])
    def test_designed_receivers_at_high_photon_numbers(
        self, tmp_path, capsys, receiver, rounds, sweep
    ):
        out = tmp_path / "curves"
        code = run("baseline", "--receivers", receiver, "--rounds", rounds,
                   "--sweep", sweep, "--out-dir", out)
        assert code == 0, capsys.readouterr().err
        _, _, rows = read_csv(out / f"{receiver}.csv")
        assert 0.0 <= float(rows[0][2]) <= 1.0

    def test_binary_only_receivers_reject_qam(self, tmp_path, capsys):
        code = run("baseline", "--receivers", "helstrom", "--encoding", "qam6",
                   "--sweep", "1.0", "--out-dir", tmp_path / "x")
        assert code == 2

    def test_bpsk_only_receiver_rejected_before_any_output(self, tmp_path, capsys):
        out = tmp_path / "x"
        code = run("baseline", "--receivers", "cn,dolinar", "--encoding", "qam6",
                   "--rounds", 2, "--arity", 2, "--sweep", "1.0", "--out-dir", out)
        assert code == 2
        assert "dolinar" in capsys.readouterr().err
        assert not (out / "cn.csv").exists()

    @pytest.mark.parametrize("receivers", ["helstrom,cn", "helstrom,dolinar"])
    def test_bad_batch_fails_before_any_output(self, tmp_path, capsys, receivers):
        out = tmp_path / "x"
        code = run("baseline", "--receivers", receivers, "--sweep", "0.5", "--batch", 0,
                   "--phase-jitter", 0.02, "--out-dir", out)
        assert code == 2
        assert capsys.readouterr().err == "error: --batch must be at least 1, got 0\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "receivers, flags, message",
        [
            ("helstrom,kennedy", ["--sweep", "0.5,-1"], "mean photon numbers must be non-negative"),
            ("helstrom,dolinar", ["--rounds", 0, "--sweep", "0.5"], "--rounds must be at least 1, got 0"),
            ("helstrom,cn", ["--arity", 1, "--sweep", "0.5"], "--arity must be at least 2, got 1"),
            ("helstrom,cn", ["--rounds", 40, "--sweep", "0.5"], "a tree of arity 2 and 40 rounds exceeds 65536 leaves"),
        ],
        ids=["negative-sweep", "dolinar-rounds-0", "cn-arity-1", "cn-rounds-40"],
    )
    def test_bad_request_fails_before_any_output(self, tmp_path, capsys, receivers, flags, message):
        out = tmp_path / "x"
        code = run("baseline", "--receivers", receivers, *flags, "--out-dir", out)
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_batch_unused_by_closed_form_curves(self, tmp_path):
        out = tmp_path / "x"
        assert run("baseline", "--receivers", "helstrom", "--sweep", "0.5", "--batch", 0,
                   "--out-dir", out) == 0
        assert (out / "helstrom.csv").exists()

    @pytest.mark.parametrize("sweep", ["inf", "nan", "0.5,-inf", "0:inf:3"])
    def test_non_finite_sweep_is_usage_error(self, tmp_path, capsys, sweep):
        out = tmp_path / "x"
        with pytest.raises(SystemExit) as exc:
            run("baseline", "--receivers", "helstrom", "--sweep", sweep, "--out-dir", out)
        assert exc.value.code == 2
        assert "sweep values must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("num", [2**62, 2**63 - 1, 10**12])
    def test_grid_beyond_memory_is_usage_error(self, tmp_path, capsys, monkeypatch, num):
        # numpy refuses 2**62 by arithmetic and misindexes 2**63 - 1; a
        # 10**12-point grid would be allocated, so its allocation is faked
        # to fail
        def no_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(np, "linspace", no_memory)
        out = tmp_path / "x"
        with pytest.raises(SystemExit) as exc:
            run("baseline", "--receivers", "helstrom", "--sweep", f"0:1:{num}", "--out-dir", out)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ")
        assert err.endswith(f"error: argument --sweep: a grid of {num} points is more than memory holds\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "sweep, message",
        [
            ("0:1:1e3", "the grid count must be an integer, got '1e3'"),
            ("a:1:3", "sweep values must be numbers"),
            ("0.5,x", "sweep values must be numbers"),
        ],
    )
    def test_sweep_text_that_is_not_numbers_is_usage_error(self, tmp_path, capsys, sweep, message):
        # each once read "invalid _parse_sweep value", naming a private function
        out = tmp_path / "x"
        with pytest.raises(SystemExit) as exc:
            run("baseline", "--receivers", "helstrom", "--sweep", sweep, "--out-dir", out)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ")
        assert err.endswith(f"error: argument --sweep: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["0:1:1", "0.5:1.5:3", "-2:7:10", "1e-3:3:64"])
    def test_grid_that_fits_is_linspace(self, grid):
        start, stop, num = grid.split(":")
        want = np.linspace(float(start), float(stop), int(num))
        assert np.array(cli._parse_sweep(grid)).tobytes() == want.tobytes()

    def test_heterodyne_beyond_its_range_is_usage_error(self, tmp_path, capsys):
        # once an OverflowError traceback from the quadrature's window sums
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run("baseline", "--receivers", "heterodyne", "--sweep", "1e308",
                       "--out-dir", tmp_path / "x")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {AMPLITUDE_OUT_OF_RANGE}")
        assert err.count("\n") == 1

    def test_refused_sweep_point_leaves_no_partial_output(self, tmp_path, capsys):
        # helstrom's curve is fine; heterodyne refuses 1e20 photons after it
        out = tmp_path / "x"
        code = run("baseline", "--receivers", "helstrom,heterodyne", "--sweep", "0.5,1e20",
                   "--out-dir", out)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: heterodyne_sql takes codeword quadratures")
        assert not out.exists()

    def test_unknown_receiver(self, tmp_path):
        code = run("baseline", "--receivers", "psychic", "--sweep", "1.0",
                   "--out-dir", tmp_path / "x")
        assert code == 2

    @pytest.mark.parametrize(
        "receiver, rounds, nbar, message",
        [
            # the codewords are out of range: refused before the design
            ("dolinar", 3, 1.7e308, AMPLITUDE_OUT_OF_RANGE),
            ("cn", 1, 1.7e308, AMPLITUDE_OUT_OF_RANGE),
            # the designed tree is: refused before it is scored
            ("dolinar", 1, 1e300, "dolinar at 1e+300 mean photons: receiver spec out of range: "),
            ("cn", 1, 1e300, "cn at 1e+300 mean photons: receiver spec out of range: "),
        ],
    )
    def test_designed_receiver_beyond_the_loaders_range(self, tmp_path, capsys, receiver, rounds, nbar, message):
        # each once warned of an overflow and wrote an error of 0.0, or a
        # receiver no spec could hold
        out = tmp_path / "x"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run("baseline", "--receivers", receiver, "--rounds", rounds, f"--sweep={nbar!r}",
                       "--out-dir", out)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1
        assert not out.exists()


class TestMetrics:
    def test_posterior_and_kl_files(self, bpsk_receiver, tmp_path):
        out = tmp_path / "diag"
        code = run("metrics", "--spec", bpsk_receiver, "--batch", 8,
                   "--seed", 1, "--out-dir", out)
        assert code == 0
        meta, cols, rows = read_csv(out / "posterior.csv")
        assert cols[:5] == ["model", "variant", "true_label", "path", "round"]
        # round-0 rows reproduce the priors
        for row in rows:
            if row[4] == "0":
                np.testing.assert_allclose([float(x) for x in row[5:]], 0.5, atol=1e-12)
        _, kcols, krows = read_csv(out / "kl.csv")
        assert kcols == ["model", "label_p", "label_q", "round", "kl_nats"]
        by_pair = {}
        for model, p, q, rnd, val in krows:
            by_pair.setdefault((model, p, q), []).append(float(val))
            if p == q:
                assert float(val) == 0.0
        for vals in by_pair.values():
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("value", [0, -3])
    def test_bad_batch_fails_before_any_output(self, bpsk_receiver, tmp_path, capsys, value):
        out = tmp_path / "diag"
        code = run("metrics", "--spec", bpsk_receiver, "--batch", value, "--out-dir", out)
        assert code == 2
        assert capsys.readouterr().err == f"error: --batch must be at least 1, got {value}\n"
        assert not out.exists()

    def test_deterministic_outputs(self, bpsk_receiver, tmp_path):
        out1, out2 = tmp_path / "d1", tmp_path / "d2"
        for out in (out1, out2):
            assert run("metrics", "--spec", bpsk_receiver, "--batch", 4,
                       "--seed", 9, "--out-dir", out) == 0
        assert (out1 / "kl.csv").read_bytes() == (out2 / "kl.csv").read_bytes()
        assert (out1 / "posterior.csv").read_bytes() == (out2 / "posterior.csv").read_bytes()

    def test_one_exact_distribution_per_noise_model(self, qam6_spec, tmp_path, monkeypatch):
        doc, spec_dir = qam6_spec
        real, models = simulator.exact_distribution, []

        def counted(tree, c, nm, *args, **kwargs):
            models.append(nm)
            return real(tree, c, nm, *args, **kwargs)

        # every binding of the name, wherever a module imported it
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "coherentrx" and hasattr(module, "exact_distribution"):
                monkeypatch.setattr(module, "exact_distribution", counted)
        assert run("metrics", "--spec", spec_dir / "receiver.json", "--batch", 2,
                   "--out-dir", tmp_path / "diag") == 0
        assert models == [NoiseModel(), NoiseModel.from_dict(doc["noise_model"])]


def _batch_command(command, spec):
    """A command that draws jitter at its --batch, up to its output flag."""
    jitter = ["--phase-jitter", 0.02, "--amp-jitter", 0.005]
    return {
        "optimize": ["optimize", "--encoding", "bpsk", "--rounds", 2, "--arity", 2,
                     "--mean-photon", 1.0, *jitter, "--out"],
        "evaluate": ["evaluate", "--spec", spec, "--mean-photon", 1.0, "--out"],
        "reoptimize": ["evaluate", "--spec", spec, "--sweep", "0.6,1.0", "--reoptimize", "--out"],
        "metrics": ["metrics", "--spec", spec, "--out-dir"],
        "baseline": ["baseline", "--receivers", "kennedy,dolinar", "--sweep", 1.0, *jitter, "--out-dir"],
    }[command]


class TestBatchBeyondTheJitterSampler:
    # a learning run draws its held-out batch, ten training batches, first
    @pytest.mark.parametrize("command, factor", [
        ("optimize", 10), ("evaluate", 1), ("reoptimize", 10), ("metrics", 1), ("baseline", 1),
    ])
    def test_batch_is_usage_error_with_no_output(self, bpsk_receiver, tmp_path, capsys, command, factor):
        out = tmp_path / "out"
        code = run(*_batch_command(command, bpsk_receiver), out, "--batch", 2**62)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: the jitter sampler cannot hold {factor * 2**62} draws: it keeps 32 bytes a draw\n"
        )
        assert not out.exists()

    def test_batch_without_jitter_draws_nothing(self, tmp_path):
        out = tmp_path / "out"
        assert run("baseline", "--receivers", "dolinar", "--sweep", 1.0, "--rounds", 2,
                   "--batch", 2**62, "--out-dir", out) == 0
        assert (out / "dolinar.csv").exists()


class TestFlagTables:
    """Each noise and learning flag is declared once, with its field's default."""

    def test_one_flag_a_field(self):
        noise = [field for field, _ in cli._NOISE_FLAGS.values()]
        learning = [field for field, _ in cli._LEARNING_FLAGS.values()]
        assert sorted(noise) == sorted(f.name for f in dataclasses.fields(NoiseModel))
        assert sorted(learning) == sorted(
            f.name for f in dataclasses.fields(FormulatorConfig) if f.name not in ("batch_size", "seed")
        )

    @pytest.mark.parametrize("argv", [
        ["optimize", "--encoding", "bpsk", "--rounds", 2, "--arity", 2, "--mean-photon", 1.0, "--out", "o.json"],
        ["evaluate", "--spec", "r.json", "--mean-photon", 1.0, "--out", "o.csv"],
        ["baseline", "--sweep", 1.0, "--out-dir", "o"],
    ])
    def test_defaults_are_the_dataclasses(self, argv):
        args = cli.build_parser().parse_args([str(a) for a in argv])
        if argv[0] != "evaluate":
            assert cli._from_flags(NoiseModel, cli._NOISE_FLAGS, args) == NoiseModel()
        if argv[0] != "baseline":
            cfg = cli._from_flags(FormulatorConfig, cli._LEARNING_FLAGS, args,
                                  batch_size=args.batch, seed=args.seed)
            assert cfg == FormulatorConfig(batch_size=args.batch, seed=args.seed)

    def test_every_flag_lands_in_its_field(self):
        noise = {"--visibility": 0.9, "--efficiency": 0.8, "--dark": 0.01,
                 "--phase-jitter": 0.03, "--amp-jitter": 0.02}
        learning = {"--iters": 7, "--learning-rate": 0.5, "--perturbation": 0.05,
                    "--window": 3, "--delta": 1e-4}
        argv = ["optimize", "--encoding", "bpsk", "--rounds", 2, "--arity", 2, "--mean-photon", 1.0,
                "--batch", 5, "--seed", 9, "--out", "o.json"]
        for flag, value in (noise | learning).items():
            argv += [flag, value]
        args = cli.build_parser().parse_args([str(a) for a in argv])
        assert cli._from_flags(NoiseModel, cli._NOISE_FLAGS, args) == NoiseModel(0.9, 0.8, 0.01, 0.03, 0.02)
        cfg = cli._from_flags(FormulatorConfig, cli._LEARNING_FLAGS, args, batch_size=5, seed=9)
        assert cfg == FormulatorConfig(max_iterations=7, batch_size=5, learning_rate=0.5,
                                       convergence_window=3, convergence_delta=1e-4,
                                       init_perturbation=0.05, seed=9)
        assert type(cfg.max_iterations) is int and type(cfg.convergence_window) is int


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "coherentrx.cli", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "coherentrx" in proc.stdout


def test_evaluate_requires_sweep_or_point(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run("evaluate", "--spec", tmp_path / "r.json", "--out", tmp_path / "o.csv")
    assert exc.value.code == 2


def test_evaluate_refuses_sweep_and_point_together(bpsk_receiver, tmp_path, capsys):
    # the point used to be dropped while the header still recorded it
    out = tmp_path / "o.csv"
    with pytest.raises(SystemExit) as exc:
        run("evaluate", "--spec", bpsk_receiver, "--sweep", "1.0", "--mean-photon", 2.0,
            "--out", out)
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture(scope="module")
def qam6_spec(tmp_path_factory):
    out = tmp_path_factory.mktemp("qam6") / "receiver.json"
    code = run(
        "optimize", "--encoding", "qam6", "--rounds", 2, "--arity", 2, "--mean-photon", 2.0,
        "--visibility", 0.995, "--phase-jitter", 0.02, "--amp-jitter", 0.01,
        "--iters", 2, "--batch", 2, "--out", out,
    )
    assert code == 0
    return json.loads(out.read_text()), out.parent


def _json_paths(node, prefix=()):
    """Every path to a part of a JSON document, the document itself excluded."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _json_paths(value, prefix + (key,))


_DELETE = "<delete>"
# wrong types, extreme and non-finite numbers, empty and nested parts
_REPLACEMENTS = [
    None, True, False, 0, -1, 3, 7, 2**70, -(2**70), 0.5, -0.5, -0.0, 1e-300, 100.0, 1e10,
    -3e12, 1e150, 1e154, -1e200, 1e308, -1e308, math.nan, math.inf, -math.inf, "", "qam6",
    [], [1.0], {}, {"re": 1.0, "im": 0.0}, _DELETE,
]


class TestSpecMutations:
    """Any mutation of a saved spec is either run or refused in the program's own words."""

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_mutated_spec_exits_0_or_2_with_at_most_one_error_line(self, qam6_spec, data):
        doc, workdir = qam6_spec
        paths = sorted(_json_paths(doc), key=repr)
        mutations = data.draw(
            st.lists(st.tuples(st.sampled_from(paths), st.sampled_from(_REPLACEMENTS)), min_size=1, max_size=3)
        )
        doc = json.loads(json.dumps(doc))
        for path, value in mutations:
            parent = doc
            try:
                for key in path[:-1]:
                    parent = parent[key]
                if value == _DELETE:
                    del parent[path[-1]]
                else:
                    parent[path[-1]] = json.loads(json.dumps(value))
            except (KeyError, IndexError, TypeError):
                pass  # an earlier mutation removed or replaced the path
        spec = workdir / "mutated.json"
        spec.write_text(json.dumps(doc))
        for argv in (
            ["evaluate", "--spec", spec, "--mean-photon", 1.0, "--mc-samples", 200, "--batch", 2,
             "--out", workdir / "sweep.csv"],
            ["metrics", "--spec", spec, "--batch", 2, "--out-dir", workdir / "metrics"],
        ):
            err = io.StringIO()
            with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                warnings.simplefilter("always")
                code = run(*argv)
            text = err.getvalue()
            assert code in (0, 2), text
            assert text.count("error:") <= 1 and "Traceback" not in text, text
            assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize("command", ["evaluate", "metrics"])
    @pytest.mark.parametrize(
        "field, value", [("phase_jitter", 1e308), ("amplitude_jitter", 1e200), ("amplitude_jitter", 1e10)]
    )
    def test_huge_jitter_sigma_is_usage_error(self, qam6_spec, tmp_path, capsys, command, field, value):
        # such sigmas drew infinite phases and scales: NaN rotations, overflowing
        # means and numpy warnings
        doc = json.loads(json.dumps(qam6_spec[0]))
        doc["noise_model"][field] = value
        spec = tmp_path / "jitter.json"
        spec.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(command, "--spec", spec, *_SPEC_COMMAND_ARGS[command], tmp_path / "out")
        assert code == 2
        assert capsys.readouterr().err == "error: jitter sigmas must be at most 100\n"

    @pytest.mark.parametrize("command", ["evaluate", "metrics"])
    @pytest.mark.parametrize("prior", [1e308, math.nan], ids=["overflowing_sum", "nan"])
    def test_prior_outside_the_unit_interval_is_usage_error(self, qam6_spec, tmp_path, capsys, command, prior):
        # two priors of 1e308 overflowed the sum check with a numpy warning; a
        # NaN prior passed every check
        doc = json.loads(json.dumps(qam6_spec[0]))
        doc["constellation"][0]["prior"] = prior
        doc["constellation"][4]["prior"] = prior
        spec = tmp_path / "prior.json"
        spec.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(command, "--spec", spec, *_SPEC_COMMAND_ARGS[command], tmp_path / "out")
        assert code == 2
        assert capsys.readouterr().err == "error: priors must lie in [0, 1]\n"

    def test_huge_jitter_flag_is_usage_error(self, tmp_path, capsys):
        code = run(
            "optimize", "--encoding", "bpsk", "--rounds", 2, "--arity", 2, "--mean-photon", 1.0,
            "--amp-jitter", 1e3, "--iters", 2, "--out", tmp_path / "rx.json",
        )
        assert code == 2
        assert capsys.readouterr().err == "error: jitter sigmas must be at most 100\n"
        assert not (tmp_path / "rx.json").exists()


class TestLearningFlagProperty:
    """Any finite step size and perturbation is either learned from or refused in one line."""

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        encoding=st.sampled_from(["bpsk", "qam6"]),
        learning_rate=st.floats(max_value=1.7e308, allow_nan=False, allow_infinity=False),
        perturbation=st.floats(max_value=1.7e308, allow_nan=False, allow_infinity=False),
    )
    # each warned once: a line-search candidate, or the first forward, overflowed
    @example(encoding="qam6", learning_rate=1e200, perturbation=0.01)
    @example(encoding="bpsk", learning_rate=2.0, perturbation=1e308)
    def test_optimize_exits_0_or_2_with_at_most_one_error_line(self, encoding, learning_rate, perturbation):
        with tempfile.TemporaryDirectory() as workdir:
            err = io.StringIO()
            # a numpy warning is raised, and fails the property with its traceback
            with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                warnings.simplefilter("error")
                code = run(
                    "optimize", "--encoding", encoding, "--rounds", 2, "--arity", 3, "--mean-photon", 1,
                    "--iters", 2, "--batch", 2, f"--learning-rate={learning_rate!r}",
                    f"--perturbation={perturbation!r}", "--out", f"{workdir}/r.json",
                )
            text = err.getvalue()
            assert code in (0, 2), text
            assert text.count("error:") <= 1 and "Traceback" not in text, text
            if code == 2:
                assert os.listdir(workdir) == []


class TestBaselineFlagProperty:
    """Any receivers, tree shape, sweep point and noise flags are either scored or refused in one line."""

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        receivers=st.lists(st.sampled_from(cli._BASELINE_CHOICES), min_size=1, unique=True),
        encoding=st.sampled_from(["bpsk", "qam6"]),
        rounds=st.integers(0, 4),
        arity=st.integers(1, 4),
        batch=st.integers(0, 5),
        nbar=st.floats(max_value=1.7e308, allow_nan=False, allow_infinity=False),
        noise=st.fixed_dictionaries(
            {flag: st.floats(allow_nan=False, allow_infinity=False) for flag in cli._NOISE_FLAGS}
        ),
    )
    # each once warned of an overflow and wrote an error of 0.0: the Dolinar
    # DP's bracket squared, and the detected means of either design
    @example(receivers=["dolinar"], encoding="bpsk", rounds=3, arity=2, batch=32, nbar=1.7e308, noise={})
    @example(receivers=["cn"], encoding="bpsk", rounds=1, arity=2, batch=32, nbar=1.7e308, noise={})
    def test_baseline_exits_0_1_or_2_with_at_most_one_error_line(
        self, receivers, encoding, rounds, arity, batch, nbar, noise
    ):
        with tempfile.TemporaryDirectory() as workdir:
            err = io.StringIO()
            # a numpy warning is raised, and fails the property with its traceback
            with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                warnings.simplefilter("error")
                code = run(
                    "baseline", "--receivers", ",".join(receivers), "--encoding", encoding,
                    "--rounds", rounds, "--arity", arity, "--batch", batch, f"--sweep={nbar!r}",
                    *(f"{flag}={value!r}" for flag, value in noise.items()), "--out-dir", f"{workdir}/out",
                )
            text = err.getvalue()
            assert code in (0, 1, 2), text
            assert text.count("error:") <= 1 and "Traceback" not in text, text
            if code != 0:
                assert os.listdir(workdir) == []


class TestSpecCommandFlagProperty:
    """Any sweep point, count and seed of evaluate and metrics is either scored or refused in one line."""

    @staticmethod
    def _run_quietly(workdir, *argv):
        err = io.StringIO()
        # a numpy warning is raised, and fails the property with its traceback
        with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("error")
            code = run(*argv)
        text = err.getvalue()
        assert code in (0, 1, 2), text
        assert text.count("error:") <= 1 and "Traceback" not in text, text
        if code != 0:
            assert os.listdir(workdir) == []

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        nbar=st.floats(max_value=1.7e308, allow_nan=False, allow_infinity=False),
        reoptimize=st.booleans(),
        iters=st.integers(0, 3),
        batch=st.integers(-1, 4),
        mc_samples=st.integers(-1, 2000),
        seed=st.integers(-1, 2**64),
    )
    # it once warned of an overflow in the Dolinar DP's start, then refused
    @example(nbar=1e308, reoptimize=True, iters=2, batch=2, mc_samples=1000, seed=0)
    def test_evaluate_exits_0_1_or_2_with_at_most_one_error_line(
        self, bpsk_receiver, nbar, reoptimize, iters, batch, mc_samples, seed
    ):
        with tempfile.TemporaryDirectory() as workdir:
            self._run_quietly(
                workdir, "evaluate", "--spec", bpsk_receiver, f"--sweep={nbar!r}",
                *(["--reoptimize", "--iters", iters] if reoptimize else []), "--batch", batch,
                "--mc-samples", mc_samples, "--seed", seed, "--out", f"{workdir}/o.csv",
            )

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(batch=st.integers(-1, 4), seed=st.integers(-1, 2**64))
    def test_metrics_exits_0_1_or_2_with_at_most_one_error_line(self, bpsk_receiver, batch, seed):
        with tempfile.TemporaryDirectory() as workdir:
            self._run_quietly(
                workdir, "metrics", "--spec", bpsk_receiver, "--batch", batch, "--seed", seed,
                "--out-dir", f"{workdir}/out",
            )
