import os
import select
import socket
import subprocess
import sys
from pathlib import Path

import pytest

import dlbac as d
from dlbac.cli import main, read_config
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
        assert capsys.readouterr().err.startswith("error:")

    def test_non_integer_value_is_single_line_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(SYNTH_CFG.replace("num_users = 120", "num_users = abc"))
        rc = main(["synth", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "num_users" in err
        assert err.count("\n") == 1


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

    @pytest.mark.parametrize("weights", ["1", "1,2,3", "1,x", "1,nan", "0,1"])
    def test_malformed_weights_is_single_line_error(self, workdir, tmp_path, capsys, weights):
        _, data, _ = workdir
        rc = main(["train", "--data", str(data), "--out", str(tmp_path / "m"),
                   "--hidden", "8", "--epochs", "1", "--weights", weights])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1


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
    @pytest.mark.parametrize("command", ["eval", "decide", "serve"])
    @pytest.mark.parametrize("threshold", ["0", "1", "-0.5", "1.5", "nan"])
    def test_outside_unit_interval_is_single_line_error(
        self, workdir, tmp_path, capsys, command, threshold
    ):
        _, data, model_dir = workdir
        extra = {
            "eval": ["--data", str(data), "--out", str(tmp_path / "m.csv")],
            "decide": ["--store", str(data), "--uid", "0", "--rid", "0", "--op", "0"],
            "serve": ["--store", str(data), "--listen", "127.0.0.1:0"],
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
