import os
import select
import socket
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dlbac as d
from dlbac.cli import _synth_config, main, read_config
from dlbac.errors import ConfigError

SYNTH_CFG = """\
# small synthesis scenario
num_users = 120
num_resources = 120
num_user_meta = 4
num_res_meta = 4
visible_user_meta = 4
visible_res_meta = 4
num_rules = 3
num_ops = 2
value_set_sizes = 6 6 6 6 6 6 6 6
neg_ratio = 1.0
seed = 12
"""


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Dataset synthesized and a model trained once, through the CLI itself."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "synth.cfg"
    cfg.write_text(SYNTH_CFG)
    data = root / "data.txt"
    assert main(["synth", "--config", str(cfg), "--out", str(data)]) == 0
    model_dir = root / "model"
    rc = main([
        "train", "--data", str(data), "--out", str(model_dir),
        "--hidden", "32,16", "--lr", "0.01", "--epochs", "15",
        "--patience", "15", "--val-fraction", "0",
    ])
    assert rc == 0
    return root, data, model_dir


class TestReadConfig:
    def test_parses_keys_and_comments(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("a = 1  # trailing\n# full line\n\nb = x y\n")
        assert read_config(str(p)) == {"a": "1", "b": "x y"}

    def test_missing_equals_is_an_error(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("just words\n")
        with pytest.raises(ConfigError, match="c.cfg:1"):
            read_config(str(p))


class TestSynth:
    def test_writes_parsable_dataset(self, workdir):
        _, data, _ = workdir
        dset = d.parse_dataset(data.read_text())
        assert dset.num_ops == 2
        assert len(dset.tuples) > 0

    def test_seed_flag_overrides_config(self, workdir, tmp_path):
        root, data, _ = workdir
        out = tmp_path / "other.txt"
        rc = main(["synth", "--config", str(root / "synth.cfg"),
                   "--seed", "99", "--out", str(out)])
        assert rc == 0
        assert out.read_text() != data.read_text()

    def test_same_invocation_byte_identical(self, workdir, tmp_path):
        root, data, _ = workdir
        out = tmp_path / "again.txt"
        main(["synth", "--config", str(root / "synth.cfg"), "--out", str(out)])
        assert out.read_text() == data.read_text()

    def test_missing_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("num_users = 5\n")
        rc = main(["synth", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert rc == 1
        assert capsys.readouterr().err == "error: missing config key 'num_resources'\n"

    @pytest.mark.parametrize(
        "old, new, err",
        [("neg_ratio = 1.0", "neg_ratio = x", "config key 'neg_ratio': expected float, got 'x'"),
         ("6 6 6 6 6 6 6 6", "6 6 y", "config key 'value_set_sizes': expected int, got 'y'"),
         ("seed = 12", "seed = 1.5", "config key 'seed': expected int, got '1.5'")],
    )
    def test_bad_value_names_key_and_type(self, tmp_path, capsys, old, new, err):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(SYNTH_CFG.replace(old, new))
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err == f"error: {err}\n"

    def test_unset_keys_take_the_dataclass_defaults(self, tmp_path):
        given = dict(num_users=60, num_resources=60, num_user_meta=8, num_res_meta=8, num_rules=3)
        cfg, out = tmp_path / "min.cfg", tmp_path / "min.txt"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in given.items()))
        assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 0
        expected = d.synthesize(d.SynthConfig(**given))[0]
        assert out.read_text() == d.serialize_dataset(expected)

    def test_non_integer_value_is_single_line_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(SYNTH_CFG.replace("num_users = 120", "num_users = abc"))
        rc = main(["synth", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "num_users" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("line", ["neg_ration = 0.9", "sed = 5"])
    def test_unknown_config_key_is_single_line_error(self, tmp_path, capsys, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(SYNTH_CFG + line + "\n")
        rc = main(["synth", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert rc == 1
        key = line.split()[0]
        assert capsys.readouterr().err == f"error: unknown config key {key!r}\n"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_neg_ratio_is_single_line_error(self, tmp_path, capsys, value):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(SYNTH_CFG.replace("neg_ratio = 1.0", f"neg_ratio = {value}"))
        rc = main(["synth", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "neg_ratio" in err
        assert err.count("\n") == 1


class TestIngest:
    SCHEMA_CFG = "user_meta_cols = dept, level\nresource_id_col = RESOURCE\nlabel_cols = ACTION\n"

    def run(self, tmp_path, csv_text):
        (tmp_path / "schema.cfg").write_text(self.SCHEMA_CFG)
        (tmp_path / "in.csv").write_text(csv_text)
        return main(["ingest", "--csv", str(tmp_path / "in.csv"),
                     "--config", str(tmp_path / "schema.cfg"),
                     "--out", str(tmp_path / "out.txt")])

    def test_writes_parsable_dataset(self, tmp_path):
        assert self.run(tmp_path, "dept,level,RESOURCE,ACTION\n3,1,900,1\n4,1,901,0\n") == 0
        assert len(d.parse_dataset((tmp_path / "out.txt").read_text()).tuples) == 2

    def test_oversized_field_is_single_line_error(self, tmp_path, capsys):
        text = "dept,level,RESOURCE,ACTION\n3,1,900,1\n4,1," + "9" * 200_000 + ",0\n"
        assert self.run(tmp_path, text) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: row 3: field larger") and err.count("\n") == 1

    def test_value_outside_int64_is_single_line_error(self, tmp_path, capsys):
        text = "dept,level,RESOURCE,ACTION\n3,1,900,1\n99999999999999999999,1,901,0\n"
        assert self.run(tmp_path, text) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: row 3:") and err.count("\n") == 1
        assert not (tmp_path / "out.txt").exists()

    def test_unknown_config_key_is_single_line_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(self, "SCHEMA_CFG", self.SCHEMA_CFG + "res_meta_col = level\n")
        assert self.run(tmp_path, "dept,level,RESOURCE,ACTION\n3,1,900,1\n") == 1
        assert capsys.readouterr().err == "error: unknown config key 'res_meta_col'\n"
        assert not (tmp_path / "out.txt").exists()

    def test_missing_config_key_is_named(self, tmp_path, capsys, monkeypatch):
        schema = "user_meta_cols = dept\nresource_id_col = RESOURCE\n"
        monkeypatch.setattr(self, "SCHEMA_CFG", schema)
        assert self.run(tmp_path, "dept,RESOURCE,ACTION\n3,900,1\n") == 1
        assert capsys.readouterr().err == "error: missing config key 'label_cols'\n"


class TestTrain:
    def test_artifacts_exist_and_load(self, workdir):
        _, _, model_dir = workdir
        net = d.load_model((model_dir / "model.txt").read_text())
        enc = d.load_encoder((model_dir / "encoder.txt").read_text())
        assert net.config.input_width == enc.width
        report = (model_dir / "train_report.csv").read_text()
        assert report.startswith("epoch,train_loss,val_loss,learning_rate")

    def test_paths_printed(self, workdir, tmp_path, capsys):
        _, data, _ = workdir
        out = tmp_path / "m2"
        main(["train", "--data", str(data), "--out", str(out),
              "--hidden", "8", "--epochs", "1"])
        printed = capsys.readouterr().out
        for name in ("model.txt", "encoder.txt", "train_report.csv"):
            assert name in printed

    @pytest.mark.parametrize(
        "text",
        ["dlbac-ds v1 2 1 1\n0 0 | 1 99999999999999999999 | 2 | 1\n", "dlbac-ds v1 -3 1 1\n"],
    )
    def test_out_of_range_dataset_is_single_line_error(self, tmp_path, capsys, text):
        data = tmp_path / "data.txt"
        data.write_text(text)
        rc = main(["train", "--data", str(data), "--out", str(tmp_path / "m"), "--epochs", "1"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: line ") and err.count("\n") == 1

    @pytest.mark.parametrize("weights", ["1", "1,2,3", "1,x", "1,nan", "0,1"])
    def test_malformed_weights_is_single_line_error(self, workdir, tmp_path, capsys, weights):
        _, data, _ = workdir
        rc = main(["train", "--data", str(data), "--out", str(tmp_path / "m"),
                   "--hidden", "8", "--epochs", "1", "--weights", weights])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "flag, value",
        [("--batch-size", "0"), ("--batch-size", "-4"), ("--epochs", "0"),
         ("--epochs", "-3"), ("--lr", "nan")],
    )
    def test_bad_train_config_is_single_line_error(self, workdir, tmp_path, capsys, flag, value):
        _, data, _ = workdir
        out = tmp_path / "m"
        rc = main(["train", "--data", str(data), "--out", str(out), "--hidden", "8", flag, value])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out.exists()


    @pytest.mark.parametrize(
        "flags", [["--visible-user", "0"], ["--visible-user", "-1"], ["--visible-res", "0"]]
    )
    def test_visible_count_below_one_is_single_line_error(
        self, workdir, tmp_path, capsys, flags
    ):
        _, data, _ = workdir
        out = tmp_path / "m"
        rc = main(["train", "--data", str(data), "--out", str(out), "--hidden", "8", *flags])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: visible metadata counts must be positive")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_one_visible_flag_keeps_the_other_side_whole(self, workdir, tmp_path):
        _, data, _ = workdir
        out = tmp_path / "m"
        rc = main(["train", "--data", str(data), "--out", str(out), "--hidden", "8",
                   "--epochs", "1", "--visible-res", "2"])
        assert rc == 0
        header = (out / "encoder.txt").read_text().splitlines()[0]
        assert header == "dlbac-encoder v1 onehot 4 2"


class TestEval:
    def test_writes_metrics_csv(self, workdir, tmp_path):
        _, data, model_dir = workdir
        out = tmp_path / "metrics.csv"
        rc = main(["eval", "--data", str(data), "--model", str(model_dir),
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "row,tp,fp,tn,fn,precision,tpr,fpr,f1"
        assert lines[-1].startswith("micro,")


    def test_op_count_mismatch_is_single_line_error(self, workdir, tmp_path, capsys):
        _, data, model_dir = workdir
        dset = d.parse_dataset(data.read_text())
        one_op = tmp_path / "one_op.txt"
        one_op.write_text(d.serialize_dataset(d.Dataset._of(4, 4, 1, dset.ids, dset.M, dset.Y[:, :1])))
        out = tmp_path / "metrics.csv"
        rc = main(["eval", "--data", str(one_op), "--model", str(model_dir), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == "error: dataset operation count 1 differs from the model's 2\n"
        assert not out.exists()


class TestDecide:
    def test_prints_single_decision_line(self, workdir, capsys):
        _, data, model_dir = workdir
        dset = d.parse_dataset(data.read_text())
        t = dset.tuples[0]
        rc = main(["decide", "--model", str(model_dir), "--store", str(data),
                   "--uid", str(t.uid), "--rid", str(t.rid), "--op", "0"])
        assert rc == 0
        line = capsys.readouterr().out.strip()
        verdict, prob = line.split()
        assert verdict in ("GRANT", "DENY")
        assert 0.0 <= float(prob) <= 1.0

    def test_unknown_user_is_single_line_error(self, workdir, capsys):
        _, data, model_dir = workdir
        rc = main(["decide", "--model", str(model_dir), "--store", str(data),
                   "--uid", "123456789", "--rid", "0", "--op", "0"])
        assert rc == 1
        err = capsys.readouterr().err.strip()
        assert err == "error: unknown user 123456789"
        assert "\n" not in err


class TestThreshold:
    @pytest.mark.parametrize("command", ["eval", "decide", "serve", "flip-study", "distill"])
    @pytest.mark.parametrize("threshold", ["0", "1", "-0.5", "1.5", "nan"])
    def test_outside_unit_interval_is_single_line_error(
        self, workdir, tmp_path, capsys, command, threshold
    ):
        _, data, model_dir = workdir
        out = ["--out", str(tmp_path / "out.txt")]
        extra = {
            "eval": ["--data", str(data), *out],
            "decide": ["--store", str(data), "--uid", "0", "--rid", "0", "--op", "0"],
            "serve": ["--store", str(data), "--listen", "127.0.0.1:0"],
            "flip-study": ["--data", str(data), "--op", "0", "--donor-uid", "0",
                           "--donor-rid", "0", *out],
            "distill": ["--data", str(data), "--op", "0", *out],
        }[command]
        rc = main([command, "--model", str(model_dir), "--threshold", threshold, *extra])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --threshold") and err.count("\n") == 1


class TestServe:
    def test_announces_bound_port_on_a_pipe(self, workdir):
        _, data, model_dir = workdir
        env = dict(os.environ)
        env.pop("PYTHONUNBUFFERED", None)
        src = str(Path(d.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "dlbac.cli", "serve", "--model", str(model_dir),
             "--store", str(data), "--listen", "127.0.0.1:0"],
            stdout=subprocess.PIPE, env=env, text=True,
        )
        try:
            ready, _, _ = select.select([proc.stdout], [], [], 60)
            assert ready, "no announcement within 60 s"
            line = proc.stdout.readline().strip()
            host, _, port = line.removeprefix("listening on ").rpartition(":")
            assert host == "127.0.0.1" and int(port) > 0
            with socket.create_connection((host, int(port)), timeout=10) as sock, \
                    sock.makefile("rw", encoding="utf-8", newline="\n") as f:
                f.write("PING\n")
                f.flush()
                assert f.readline().strip() == "PONG"
        finally:
            proc.terminate()
            proc.wait(timeout=10)
            proc.stdout.close()


class TestExplain:
    def test_local(self, workdir, tmp_path):
        _, data, model_dir = workdir
        dset = d.parse_dataset(data.read_text())
        t = dset.tuples[0]
        out = tmp_path / "attr.csv"
        rc = main(["explain", "--local", "--model", str(model_dir),
                   "--store", str(data), "--uid", str(t.uid), "--rid", str(t.rid),
                   "--op", "0", "--steps", "16", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "metadata_name,normalized_score"
        assert len(lines) == 1 + dset.num_user_meta + dset.num_res_meta

    def test_global(self, workdir, tmp_path):
        _, data, model_dir = workdir
        out = tmp_path / "gattr.csv"
        rc = main(["explain", "--global", "--model", str(model_dir),
                   "--data", str(data), "--op", "0", "--samples", "20",
                   "--steps", "8", "--out", str(out)])
        assert rc == 0
        assert out.exists()

    @pytest.mark.parametrize(
        "command, flags",
        [("explain", ["--global", "--op", "9"]), ("explain", ["--global", "--op", "-1"]),
         ("explain", ["--global", "--op", "0", "--samples", "0"]),
         ("explain", ["--global", "--op", "0", "--samples", "-2"]),
         ("flip-study", ["--op", "9"])],
    )
    def test_bad_op_or_samples_is_single_line_error(self, workdir, tmp_path, capsys, command, flags):
        _, data, model_dir = workdir
        if command == "flip-study":  # a donor that exists, so the op is what fails
            t = d.parse_dataset(data.read_text()).tuples[0]
            flags = [*flags, "--donor-uid", str(t.uid), "--donor-rid", str(t.rid)]
        out = tmp_path / "out.csv"
        rc = main([command, "--model", str(model_dir), "--data", str(data), *flags,
                   "--steps", "4", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out.exists()

    def test_threshold_is_refused(self, workdir, tmp_path, capsys):
        # explain reads no threshold, so the flag is as unknown as any other
        _, data, model_dir = workdir
        out = tmp_path / "gattr.csv"
        with pytest.raises(SystemExit) as e:
            main(["explain", "--global", "--model", str(model_dir), "--data", str(data),
                  "--op", "0", "--threshold", "0.5", "--out", str(out)])
        assert e.value.code == 2
        assert "unrecognized arguments: --threshold 0.5" in capsys.readouterr().err
        assert not out.exists()

    def test_local_without_store_errors(self, workdir, capsys):
        _, data, model_dir = workdir
        rc = main(["explain", "--local", "--model", str(model_dir),
                   "--op", "0", "--out", "x.csv"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestFlipStudy:
    def test_writes_curve(self, workdir, tmp_path):
        _, data, model_dir = workdir
        dset = d.parse_dataset(data.read_text())
        net = d.load_model((model_dir / "model.txt").read_text())
        enc = d.load_encoder((model_dir / "encoder.txt").read_text())
        donor = next(
            t for t in dset.tuples
            if float(d.forward(net, d.encode_pair(enc, t.umeta, t.rmeta))[0]) > 0.5
        )
        out = tmp_path / "curve.csv"
        rc = main(["flip-study", "--model", str(model_dir), "--data", str(data),
                   "--op", "0", "--donor-uid", str(donor.uid),
                   "--donor-rid", str(donor.rid), "--samples", "20",
                   "--steps", "8", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "step,metadata_replaced,fraction_granted"
        assert lines[1] == "0,,0.000000"

    def test_never_builds_a_tuple(self, workdir, tmp_path, monkeypatch):
        # the donor is the row of positions the dataset holds
        _, data, model_dir = workdir
        dset = d.parse_dataset(data.read_text())
        net = d.load_model((model_dir / "model.txt").read_text())
        enc = d.load_encoder((model_dir / "encoder.txt").read_text())
        probs = d.forward(net, d.encode_dataset(enc, dset))[:, 0]
        uid, rid = dset.ids[int(probs.argmax())]

        def refuse(*args, **kwargs):
            raise AssertionError("an AuthorizationTuple was built")

        monkeypatch.setattr(d.dataset, "AuthorizationTuple", refuse)
        out = tmp_path / "curve.csv"
        rc = main(["flip-study", "--model", str(model_dir), "--data", str(data),
                   "--op", "0", "--donor-uid", str(uid), "--donor-rid", str(rid),
                   "--samples", "5", "--steps", "4", "--out", str(out)])
        assert rc == 0
        assert out.read_text().startswith("step,metadata_replaced,fraction_granted\n0,,")

    @pytest.mark.parametrize("pick", ["absent uid", "uid and rid of different tuples"])
    def test_donor_not_in_dataset_is_single_line_error(self, workdir, tmp_path, capsys, pick):
        _, data, model_dir = workdir
        ids = d.parse_dataset(data.read_text()).ids
        pairs = set(map(tuple, ids.tolist()))
        if pick == "absent uid":
            uid, rid = 123456789, int(ids[0, 1])
        else:
            uid, rid = next((u, r) for u in ids[:, 0].tolist() for r in ids[:, 1].tolist()
                            if (u, r) not in pairs)
        out = tmp_path / "curve.csv"
        rc = main(["flip-study", "--model", str(model_dir), "--data", str(data), "--op", "0",
                   "--donor-uid", str(uid), "--donor-rid", str(rid), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: donor ({uid}, {rid}) not in dataset\n"
        assert not out.exists()


class TestDistill:
    def test_writes_tree_and_prints_scores(self, workdir, tmp_path, capsys):
        _, data, model_dir = workdir
        out = tmp_path / "tree.txt"
        rc = main(["distill", "--model", str(model_dir), "--data", str(data),
                   "--op", "0", "--max-depth", "6", "--out", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "training mse" in printed and "fidelity" in printed
        tree = d.load_tree(out.read_text())
        assert tree.max_depth == 6

    def test_max_depth_zero_means_unlimited(self, workdir, tmp_path):
        _, data, model_dir = workdir
        out = tmp_path / "tree.txt"
        main(["distill", "--model", str(model_dir), "--data", str(data),
              "--op", "0", "--max-depth", "0", "--min-samples-leaf", "1",
              "--out", str(out)])
        assert d.load_tree(out.read_text()).max_depth is None

    def test_negative_max_depth_is_single_line_error(self, workdir, tmp_path, capsys):
        _, data, model_dir = workdir
        out = tmp_path / "tree.txt"
        rc = main(["distill", "--model", str(model_dir), "--data", str(data),
                   "--op", "0", "--max-depth", "-2", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out.exists()


class TestTopLevel:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as e:
            main(["frobnicate"])
        assert e.value.code == 2

    def test_missing_file_is_single_line_error(self, capsys):
        rc = main(["eval", "--data", "/no/such/file", "--model", "/no/such/model",
                   "--out", "x.csv"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")


@pytest.fixture(scope="module")
def cfg_path(tmp_path_factory):
    return tmp_path_factory.mktemp("cfg") / "synth.cfg"


@settings(max_examples=300, deadline=None)
@given(
    cut=st.integers(0, 400),
    at=st.integers(0, 400),
    # weighted toward separators and line breaks, where parsers go wrong
    char=st.one_of(
        st.sampled_from("\r\n\t ,|=#\"-"), st.characters(min_codepoint=9, max_codepoint=126)
    ),
    truncate=st.booleans(),
)
def test_damaged_synth_config_loads_or_raises_dlbac_error(cfg_path, cut, at, char, truncate):
    if truncate:
        text = SYNTH_CFG[:cut]
    else:
        at %= len(SYNTH_CFG)
        text = SYNTH_CFG[:at] + char + SYNTH_CFG[at + 1 :]
    cfg_path.write_text(text)
    try:
        config = _synth_config(read_config(str(cfg_path)), None)
    except d.DlbacError:
        return
    assert isinstance(config, d.SynthConfig)


def test_pipeline_never_reads_the_tuple_view(tmp_path, monkeypatch):
    """Every stage runs on the columns; `Dataset.tuples` is only for callers."""

    def refuse(self):
        raise AssertionError("Dataset.tuples was read")

    monkeypatch.setattr(d.Dataset, "tuples", property(refuse))
    full = d.synthesize(d.SynthConfig(
        num_users=120, num_resources=120, num_user_meta=4, num_res_meta=4, num_rules=3,
        num_ops=2, value_set_sizes=(6,) * 8, visible_user_meta=4, visible_res_meta=4,
        neg_ratio=1.0, seed=12,
    ))[0]
    parsed = d.parse_dataset(d.serialize_dataset(full))
    assert parsed == full
    train, test = (d.project_visible(x, 4, 3) for x in d.split_dataset(parsed, 0.25, 3))
    enc = d.build_encoder(train)
    net = d.init_network(d.NetworkConfig(enc.width, train.num_ops, (16,), init_seed=1))
    net, _ = d.train(net, train, enc, d.TrainConfig(epochs=1))
    d.evaluate(net, enc, test)
    store = d.build_store(test)
    uid, rid = (int(v) for v in test.ids[0])
    d.decide(net, enc, store, uid, rid, 0)
    d.global_explain(net, enc, test, 0, 1, 5, 0, 4)

    # flip-study through the CLI, with the most granted pair as the donor and
    # the median probability as the threshold, so both sides are non-empty
    model_dir = tmp_path / "model"
    model_dir.mkdir()
    (model_dir / "model.txt").write_text(d.save_model(net))
    (model_dir / "encoder.txt").write_text(d.save_encoder(enc))
    data = tmp_path / "data.txt"
    data.write_text(d.serialize_dataset(test))
    probs = d.forward(net, d.encode_dataset(enc, test))[:, 0]
    donor = test.ids[int(probs.argmax())]
    rc = main(["flip-study", "--model", str(model_dir), "--data", str(data), "--op", "0",
               "--donor-uid", str(donor[0]), "--donor-rid", str(donor[1]), "--samples", "5",
               "--steps", "4", "--threshold", str(float(np.median(probs))),
               "--out", str(tmp_path / "curve.csv")])
    assert rc == 0

    tree = d.distill(net, enc, train, 0, 4, 2)
    d.fidelity(tree, net, enc, test, 0)
