"""The `dlbac` command: one entry point wiring every pipeline stage.

Configuration comes from flat `key = value` files; command-line flags
override file values.  Every subcommand prints the artifact paths it wrote
and exits nonzero with a one-line diagnostic on error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from pathlib import Path

import numpy as np

from . import dataset as ds
from . import encoding as enc
from . import engine as eng
from . import interpret as itp
from . import metrics as mt
from . import neuralnet as nn
from .distill import distill, fidelity, save_tree
from .errors import ConfigError, DlbacError


def read_config(path: str | None) -> dict[str, str]:
    """Flat `key = value` file; '#' starts a comment."""
    if path is None:
        return {}
    out: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _number(kind, text: str, what: str):
    try:
        return kind(text)
    except ValueError:
        raise ConfigError(f"{what}: expected {kind.__name__}, got {text!r}") from None


def _int_list(text: str, what: str) -> tuple[int, ...]:
    return tuple(_number(int, t, what) for t in text.replace(",", " ").split())


def _str_list(text: str, what: str) -> tuple[str, ...]:
    return tuple(text.replace(",", " ").split())


_READERS = {  # config text -> value, by the declared type of the field it fills
    "int": functools.partial(_number, int),
    "float": functools.partial(_number, float),
    "str": lambda text, what: text,
    "tuple[int, ...] | None": _int_list,
    "tuple[str, ...]": _str_list,
}


def _from_config(cfg: dict[str, str], cls, **given):
    """A `cls` dataclass from config text, each value read as its field's type.

    `given` values take precedence over the config's; the dataclass supplies
    every value that neither names.
    """
    fields = dataclasses.fields(cls)
    names = {f.name for f in fields}
    unknown = [key for key in cfg if key not in names]
    if unknown:
        raise ConfigError(f"unknown config key {unknown[0]!r}")
    for f in fields:
        if f.name in given:
            continue
        if f.name in cfg:
            given[f.name] = _READERS[f.type](cfg[f.name], f"config key {f.name!r}")
        elif f.default is dataclasses.MISSING:
            raise ConfigError(f"missing config key {f.name!r}")
    return cls(**given)


def _synth_config(cfg: dict[str, str], seed_override: int | None) -> ds.SynthConfig:
    seed = {} if seed_override is None else {"seed": seed_override}
    return _from_config(cfg, ds.SynthConfig, **seed)


def _load_dataset(path: str) -> ds.Dataset:
    return ds.parse_dataset(Path(path).read_text())


def _load_model(args) -> tuple[nn.Network, enc.Encoder]:
    """The network and encoder named by --model and --encoder.

    A directory stands for the `model.txt` or `encoder.txt` inside it, and
    without --encoder the encoder is read from beside the model.
    """

    def text(path: str, name: str) -> str:
        p = Path(path)
        return (p / name if p.is_dir() else p).read_text()

    net = nn.load_model(text(args.model, "model.txt"))
    return net, enc.load_encoder(text(args.encoder or args.model, "encoder.txt"))


def _write(path: str | Path, text: str) -> None:
    Path(path).write_text(text)
    print(f"wrote {path}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_synth(args) -> int:
    cfg = read_config(args.config)
    config = _synth_config(cfg, args.seed)
    dataset, _, _, _ = ds.synthesize(config)
    _write(args.out, ds.serialize_dataset(dataset))
    return 0


def _cmd_ingest(args) -> int:
    schema = _from_config(read_config(args.config), ds.CsvSchema)
    dataset = ds.ingest_csv(Path(args.csv).read_text(), schema)
    _write(args.out, ds.serialize_dataset(dataset))
    return 0


def _train_report_csv(report: nn.TrainReport) -> str:
    lines = ["epoch,train_loss,val_loss,learning_rate"]
    for e, (tl, vl, lr) in enumerate(
        zip(report.train_losses, report.val_losses, report.learning_rates)
    ):
        lines.append(f"{e},{tl:.6f},{vl:.6f},{lr:.6g}")
    lines.append(f"# stopped_epoch={report.stopped_epoch} best_epoch={report.best_epoch}")
    return "\n".join(lines) + "\n"


def _cmd_train(args) -> int:
    data = _load_dataset(args.data)
    if args.visible_user is not None or args.visible_res is not None:
        data = ds.project_visible(
            data,
            data.num_user_meta if args.visible_user is None else args.visible_user,
            data.num_res_meta if args.visible_res is None else args.visible_res,
        )
    encoder = enc.build_encoder(data, args.scheme)
    weights = args.weights.split(",")
    if len(weights) != 2:
        raise ConfigError(f"--weights: expected 'wg,wd', got {args.weights!r}")
    wg, wd = (_number(float, t, "--weights") for t in weights)
    tc = nn.TrainConfig(
        lr0=args.lr,
        epochs=args.epochs,
        batch_size=args.batch_size,
        early_stop_patience=args.patience,
        class_weights=(wg, wd),
        val_fraction=args.val_fraction,
        shuffle_seed=args.seed,
    )
    net = nn.init_network(
        nn.NetworkConfig(
            input_width=encoder.width,
            num_ops=data.num_ops,
            hidden_layers=_int_list(args.hidden, "--hidden"),
            init_seed=args.seed,
        )
    )
    best, report = nn.train(net, data, encoder, tc)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write(out / "model.txt", nn.save_model(best))
    _write(out / "encoder.txt", enc.save_encoder(encoder))
    _write(out / "train_report.csv", _train_report_csv(report))
    return 0


def _cmd_eval(args) -> int:
    data = _load_dataset(args.data)
    net, encoder = _load_model(args)
    report = mt.evaluate(net, encoder, data, args.threshold)
    _write(args.out, mt.report_to_csv(report))
    return 0


def _cmd_decide(args) -> int:
    net, encoder = _load_model(args)
    store = eng.build_store(_load_dataset(args.store))
    decision = eng.decide(net, encoder, store, args.uid, args.rid, args.op, args.threshold)
    print(eng.format_decision(decision))
    return 0


def _cmd_serve(args) -> int:
    net, encoder = _load_model(args)
    store = eng.build_store(_load_dataset(args.store))
    host, _, port = args.listen.rpartition(":")
    if not host or not port.isdigit() or int(port) > 65535:
        raise ConfigError(f"bad --listen endpoint {args.listen!r}, expected HOST:PORT")
    server = eng.DecisionServer((host, int(port)), net, encoder, store, args.threshold)
    with server:
        print(f"listening on {host}:{server.server_address[1]}", flush=True)
        server.serve_forever()
    return 0


def _cmd_explain(args) -> int:
    net, encoder = _load_model(args)
    if args.mode == "local":
        if args.uid is None or args.rid is None or args.store is None:
            raise ConfigError("--local needs --store, --uid, and --rid")
        store = eng.build_store(_load_dataset(args.store))
        attr = itp.local_explain(net, encoder, store, args.uid, args.rid, args.op, args.steps)
    else:
        if args.data is None:
            raise ConfigError("--global needs --data")
        data = _load_dataset(args.data)
        decision_class = 1 if args.decision_class == "grant" else 0
        attr = itp.global_explain(
            net, encoder, data, args.op, decision_class, args.samples, args.seed, args.steps
        )
    _write(args.out, itp.attribution_to_csv(attr))
    return 0


def _cmd_flip_study(args) -> int:
    net, encoder = _load_model(args)
    data = _load_dataset(args.data)
    hits = np.flatnonzero((data.ids[:, 0] == args.donor_uid) & (data.ids[:, 1] == args.donor_rid))
    if not hits.size:
        raise ConfigError(f"donor ({args.donor_uid}, {args.donor_rid}) not in dataset")
    glob = itp.global_explain(
        net, encoder, data, args.op, 1, args.samples, args.seed, args.steps
    )
    order = itp.significance_order(glob)
    curve = itp.flip_study(net, encoder, data, args.op, data.M[hits[0]], order, args.threshold)
    _write(args.out, itp.flip_curve_to_csv(curve))
    return 0


def _cmd_distill(args) -> int:
    net, encoder = _load_model(args)
    data = _load_dataset(args.data)
    max_depth = None if args.max_depth == 0 else args.max_depth
    tree = distill(net, encoder, data, args.op, max_depth, args.min_samples_leaf)
    _write(args.out, save_tree(tree))
    agreement = fidelity(tree, net, encoder, data, args.op, args.threshold)
    print(f"training mse {tree.mse:.6f}")
    print(f"fidelity {agreement:.6f}")
    return 0


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def _add_model_flags(p, store=False, threshold=True):
    p.add_argument("--model", required=True, help="model file or train output directory")
    p.add_argument("--encoder", default=None, help="encoder file (defaults beside the model)")
    if threshold:
        p.add_argument("--threshold", type=float, default=0.5)
    if store:
        p.add_argument("--store", required=True, help="dataset file providing id metadata")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dlbac")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("ingest", help="build a dataset from a CSV file")
    p.add_argument("--csv", required=True)
    p.add_argument("--config", required=True, help="schema: column-mapping keys")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("train", help="train a model on a dataset file")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--scheme", choices=enc.SCHEMES, default="onehot")
    defaults = nn.TrainConfig
    p.add_argument("--hidden", default=",".join(map(str, nn.NetworkConfig.hidden_layers)))
    p.add_argument("--seed", type=int, default=defaults.shuffle_seed)
    p.add_argument("--lr", type=float, default=defaults.lr0)
    p.add_argument("--epochs", type=int, default=defaults.epochs)
    p.add_argument("--batch-size", type=int, default=defaults.batch_size)
    p.add_argument("--patience", type=int, default=defaults.early_stop_patience)
    p.add_argument("--weights", default=",".join(map(str, defaults.class_weights)),
                   help="class weights wg,wd")
    p.add_argument("--val-fraction", type=float, default=defaults.val_fraction)
    p.add_argument("--visible-user", type=int, default=None)
    p.add_argument("--visible-res", type=int, default=None)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="score a model against a dataset file")
    p.add_argument("--data", required=True)
    _add_model_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("decide", help="one grant/deny decision")
    _add_model_flags(p, store=True)
    p.add_argument("--uid", type=int, required=True)
    p.add_argument("--rid", type=int, required=True)
    p.add_argument("--op", type=int, required=True)
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("serve", help="line-protocol decision server")
    _add_model_flags(p, store=True)
    p.add_argument("--listen", default="127.0.0.1:4712")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("explain", help="integrated-gradients attribution CSV")
    _add_model_flags(p, threshold=False)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--local", dest="mode", action="store_const", const="local")
    group.add_argument("--global", dest="mode", action="store_const", const="global")
    p.add_argument("--store", default=None)
    p.add_argument("--uid", type=int, default=None)
    p.add_argument("--rid", type=int, default=None)
    p.add_argument("--data", default=None)
    p.add_argument("--class", dest="decision_class", choices=("grant", "deny"), default="grant")
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--op", type=int, required=True)
    p.add_argument("--steps", type=int, default=128)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_explain)

    p = sub.add_parser("flip-study", help="cumulative metadata replacement curve")
    _add_model_flags(p)
    p.add_argument("--data", required=True)
    p.add_argument("--op", type=int, required=True)
    p.add_argument("--donor-uid", type=int, required=True)
    p.add_argument("--donor-rid", type=int, required=True)
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--steps", type=int, default=128)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_flip_study)

    p = sub.add_parser("distill", help="fit and save a distilled decision tree")
    _add_model_flags(p)
    p.add_argument("--data", required=True)
    p.add_argument("--op", type=int, required=True)
    p.add_argument("--max-depth", type=int, default=8, help="0 means unlimited")
    p.add_argument("--min-samples-leaf", type=int, default=5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_distill)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        threshold = getattr(args, "threshold", 0.5)
        if not 0.0 < threshold < 1.0:
            raise ConfigError(f"--threshold must be strictly between 0 and 1, got {threshold}")
        return args.func(args)
    except DlbacError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
