"""Command-line interface.

Subcommands: synth, evaluate, project, train-toy, gradcheck. Exit codes:
0 success, 1 validation error, 2 I/O error. MONO3DG_SEED sets the default
seed; an explicit --seed always wins.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

import numpy as np

from . import decoder, fusion
from .camera import Point3D, project
from .errors import Mono3DGError
from .jsonio import dumps_canonical, loads_strict
from .metrics import format_report, report_to_json
from .pipeline import (
    ToyTaskConfig,
    build_toy_dataset,
    perfect_raw_predictions,
    run_pipeline,
)
from .scenes import (
    intrinsics_from_json,
    profile_by_name,
    ranges_for_profile,
    read_predictions,
    read_scenes,
    synth_scenes,
    write_predictions,
    write_scenes,
)

GRADCHECK_TOLERANCE = 1e-5
# Central differences at step 1e-6 carry ~1e-9 absolute noise (eps*|loss|/step),
# so coordinates below this magnitude are compared absolutely, not relatively.
GRADCHECK_FLOOR = 1e-3


def _default_seed() -> int:
    value = os.environ.get("MONO3DG_SEED")
    try:
        return int(value) if value else 0
    except ValueError:
        raise ValueError(f"MONO3DG_SEED must be an integer, got {value!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mono3dg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate synthetic scene records")
    p_synth.add_argument("--scenes", type=int, required=True)
    p_synth.add_argument("--seed", type=int, default=None)
    p_synth.add_argument("--profile", choices=["indoor", "outdoor"], default="indoor")
    p_synth.add_argument("--out", type=Path, required=True)
    p_synth.add_argument(
        "--perfect-preds",
        type=Path,
        default=None,
        help="also write the exact raw predictions for the generated scenes",
    )

    p_eval = sub.add_parser("evaluate", help="score predictions against ground truth")
    p_eval.add_argument("--gt", type=Path, required=True)
    p_eval.add_argument("--pred", type=Path, required=True)
    p_eval.add_argument("--mode", choices=["raw", "box"], required=True)
    p_eval.add_argument("--profile", choices=["indoor", "outdoor"], default="indoor")
    p_eval.add_argument("--report", type=Path, default=None)
    p_eval.add_argument("--depth-metric", choices=["z", "euclidean"], default="z")

    p_proj = sub.add_parser("project", help="project a 3D point with given intrinsics")
    p_proj.add_argument("--intrinsics", required=True, help='JSON, e.g. {"fx":1000,...}')
    p_proj.add_argument("--point", required=True, help="X,Y,Z in meters")

    p_train = sub.add_parser("train-toy", help="train the toy decoder on scene records")
    p_train.add_argument("--data", type=Path, required=True)
    p_train.add_argument("--epochs", type=int, default=500)
    p_train.add_argument("--seed", type=int, default=None)
    p_train.add_argument("--out", type=Path, required=True)
    p_train.add_argument("--profile", choices=["indoor", "outdoor"], default="indoor")
    p_train.add_argument("--batch-size", type=int, default=16)
    p_train.add_argument("--loss-csv", type=Path, default=None)

    p_grad = sub.add_parser("gradcheck", help="finite-difference check of all gradients")
    p_grad.add_argument("--seed", type=int, default=None)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` uses, built once per process; parsing does not change it."""
    return build_parser()


def _cmd_synth(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    records = synth_scenes(args.scenes, seed, profile_name=args.profile)
    write_scenes(args.out, records)
    if args.perfect_preds is not None:
        profile = profile_by_name(args.profile)
        write_predictions(args.perfect_preds, perfect_raw_predictions(records, profile))
    print(f"wrote {len(records)} scenes to {args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    scenes = read_scenes(args.gt)
    preds = read_predictions(args.pred, args.mode)
    profile = profile_by_name(args.profile)
    report = run_pipeline(scenes, preds, profile, depth_metric=args.depth_metric)
    print(format_report(report))
    if args.report is not None:
        args.report.write_text(dumps_canonical(report_to_json(report)) + "\n", encoding="utf-8")
    return 0


def _cmd_project(args) -> int:
    try:
        cam = intrinsics_from_json(loads_strict(args.intrinsics))
    except ValueError as exc:  # from the JSON decoder; a bad field raises SchemaError
        raise ValueError(f"--intrinsics is not JSON: {exc}") from None
    try:
        coords = [float(part) for part in args.point.split(",")]
    except ValueError:
        coords = []
    if len(coords) != 3:
        raise ValueError(f"--point expects three numbers X,Y,Z, got {args.point}")
    if not np.isfinite(coords).all():
        raise ValueError(f"--point coordinates must be finite, got {args.point}")
    pix = project(Point3D(*coords), cam)
    print(dumps_canonical({"u": pix.u, "v": pix.v}))
    return 0


def _cmd_train_toy(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    scenes = read_scenes(args.data)
    profile = profile_by_name(args.profile)
    ranges = ranges_for_profile(args.profile)
    embeddings, targets, _ = build_toy_dataset(scenes, profile, ranges, ToyTaskConfig())
    rng = np.random.default_rng(seed)
    params = decoder.init_params(decoder.DecoderConfig(), rng)
    cfg = decoder.TrainConfig(epochs=args.epochs, batch_size=args.batch_size, seed=seed)
    trained, history = decoder.train(embeddings, targets, params, cfg)
    decoder.save_checkpoint(args.out, trained, seed)
    loss_csv = args.loss_csv or args.out.with_suffix(args.out.suffix + ".loss.csv")
    decoder.write_loss_history(loss_csv, history)
    print(
        f"trained on {len(targets)} samples for {args.epochs} epochs: "
        f"loss {history[0]:.4f} -> {history[-1]:.4f}"
    )
    return 0


def _fd_error(loss, array: np.ndarray, grad: np.ndarray, rng: np.random.Generator) -> float:
    """Relative error, floored at GRADCHECK_FLOOR, of grad at one entry of
    array drawn from rng, against a central difference of loss()."""
    step = 1e-6
    flat = array.reshape(-1)
    idx = int(rng.integers(flat.size))
    original = flat[idx]
    flat[idx] = original + step
    up = loss()
    flat[idx] = original - step
    down = loss()
    flat[idx] = original
    fd = (up - down) / (2 * step)
    analytic = grad.reshape(-1)[idx]
    return abs(fd - analytic) / max(abs(fd), abs(analytic), GRADCHECK_FLOOR)


def _run_gradchecks(seed: int) -> float:
    """Max relative FD error across decoder and fusion parameter groups."""
    rng = np.random.default_rng(seed)

    config = decoder.DecoderConfig(d_model=8, n_layers=1, d_ff=12, head_hidden=6)
    params = decoder.init_params(config, rng)
    kinds = (decoder.KIND_CAPTION, decoder.KIND_IMAGE, decoder.KIND_IMAGE,
             decoder.KIND_POS, decoder.KIND_QUERY)
    seq = decoder.TokenSequence(rng.standard_normal((5, 8)), kinds)
    target = np.concatenate([[0.4, 0.6, 1.5, 0.8, 0.6, 1.1], rng.standard_normal(6)])
    _, grads = decoder.backward(seq, params, target)

    def decoder_loss():
        return decoder.backward(seq, params, target)[0]

    errors = [_fd_error(decoder_loss, base, grad, rng)
              for (_, base), (_, grad) in zip(params.named_arrays(), grads.named_arrays())]

    f_sl = rng.standard_normal((3, 3, 5))
    t_vit = rng.standard_normal((2, 5))
    att = fusion.AttentionParams(*(rng.standard_normal((5, 4)) for _ in range(3)))
    d_out = rng.standard_normal((2, 4))
    grads_att = fusion.cross_branch_attention_grads(t_vit, f_sl, att, d_out)

    def fusion_loss():
        return float(np.sum(fusion.cross_branch_attention(t_vit, f_sl, att) * d_out))

    errors += [_fd_error(fusion_loss, getattr(att, name), getattr(grads_att, name), rng)
               for name in ("w_q", "w_k", "w_v")]
    return max(errors)


def _cmd_gradcheck(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    worst = _run_gradchecks(seed)
    print(f"max relative gradient error: {worst:.3e}")
    if worst > GRADCHECK_TOLERANCE:
        print(f"gradcheck FAILED (tolerance {GRADCHECK_TOLERANCE})", file=sys.stderr)
        return 1
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "evaluate": _cmd_evaluate,
    "project": _cmd_project,
    "train-toy": _cmd_train_toy,
    "gradcheck": _cmd_gradcheck,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2
    except (Mono3DGError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:  # console_scripts target
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
