"""Config layering rules plus end-to-end command-line runs in a scratch dir.

The CLI checks run the real entry point in a subprocess and chain artifacts:
generated corpus -> pretrained checkpoint -> fine-tune / text / ensemble.
"""

import ast
import collections
import configparser
import contextlib
import dataclasses
import glob
import json
import os
import platform
import re
import shlex
import subprocess
import sys
import types

import numpy as np
import pytest

from docbench import __version__, cli, layers
from docbench.config import Config, ConfigError, profile_path
from docbench.data import AugmentConfig, load_corpus
from docbench.ensemble import FusionWeights, report_csv
from docbench.optim import SgdConfig, StlrConfig
from docbench.tensor import load_tensors
from helpers import ensemble_rows_oracle

# -- config layering -----------------------------------------------------------------


def test_desk_profile_is_the_default_base():
    cfg = Config.load()
    assert cfg.getint("corpus", "num_classes") == 4


def test_override_beats_profile():
    cfg = Config.load(overrides=["corpus.num_classes=7"])
    assert cfg.getint("corpus", "num_classes") == 7


def test_config_file_layers_between_profile_and_overrides(tmp_path):
    f = tmp_path / "site.cfg"
    f.write_text("[corpus]\nnum_classes = 9\nimage_size = 24\n")
    cfg = Config.load(config=str(f), overrides=["corpus.num_classes=11"])
    assert cfg.getint("corpus", "num_classes") == 11  # override wins
    assert cfg.getint("corpus", "image_size") == 24   # file beats profile
    assert cfg.getint("corpus", "vocab_size") == 32   # profile fills the rest


def test_unknown_key_in_config_file_is_rejected(tmp_path):
    f = tmp_path / "stale.cfg"
    f.write_text("[corpus]\nnum_classes = 9\n\n[image_model]\nbinding = prose\n")
    with pytest.raises(ConfigError, match=r"^unknown config key image_model\.binding$"):
        Config.load(config=str(f))
    f.write_text("[DEFAULT]\nseed = 5\n")
    with pytest.raises(ConfigError, match=r"^unknown config key DEFAULT\.seed$"):
        Config.load(config=str(f))


def test_named_profile_as_config():
    cfg = Config.load(config="full")
    assert cfg.getint("corpus", "num_classes") == 16
    assert os.path.exists(profile_path("full"))
    with pytest.raises(ConfigError):
        profile_path("enterprise")


def test_bad_override_formats():
    with pytest.raises(ConfigError):
        Config.load(overrides=["corpus.num_classes"])
    with pytest.raises(ConfigError):
        Config.load(overrides=["num_classes=7"])


def test_typed_getters():
    cfg = Config.load(overrides=[
        "bench.k_list=1 2 4", "pretrain.augment=off", "text.eta_body=3e-5"])
    assert cfg.getints("bench", "k_list") == [1, 2, 4]
    assert cfg.getbool("pretrain", "augment") is False
    assert cfg.getfloat("text", "eta_body") == pytest.approx(3e-5)
    with pytest.raises(ConfigError, match="corpus.num_classes"):
        Config.load(overrides=["corpus.num_classes=many"]).getint(
            "corpus", "num_classes")
    with pytest.raises(ConfigError):
        Config.load(overrides=["pretrain.augment=sometimes"]).getbool(
            "pretrain", "augment")
    with pytest.raises(ConfigError, match="missing"):
        cfg.getint("corpus", "nonexistent_key")
    with pytest.raises(ConfigError, match="missing config value corpus.nonexistent_key"):
        cfg.get("corpus", "nonexistent_key")


def test_counts_take_a_minimum():
    cfg = Config.load(overrides=["bench.k_list=1 0 2", "bench.warmup=-1",
                                 "corpus.image_template_map="])
    assert cfg.getint("bench", "warmup", minimum=-1) == -1
    with pytest.raises(ConfigError, match=r"^bench.warmup must be >= 0, got -1$"):
        cfg.getint("bench", "warmup", minimum=0)
    with pytest.raises(ConfigError, match=r"^bench.k_list must be >= 1, got 0$"):
        cfg.getints("bench", "k_list", minimum=1)
    assert cfg.getints("corpus", "image_template_map") == []


def test_build_reads_fields_and_names_the_failing_key():
    cfg = Config.load(overrides=["pretrain.momentum=0.5"])
    assert cfg.build(SgdConfig, "pretrain") == SgdConfig(0.5, 0.0)
    assert cfg.build(SgdConfig, "finetune", momentum=0.1).momentum == 0.1
    assert cfg.build(AugmentConfig, "pretrain") == AugmentConfig(-5.0, 5.0)
    bad = Config.load(overrides=["pretrain.momentum=1.5", "ensemble.w1=0.7"])
    with pytest.raises(ConfigError, match=r"^pretrain\.momentum must be in \[0,1\)"):
        bad.build(SgdConfig, "pretrain")
    with pytest.raises(ConfigError, match="^ensemble: weights must sum to 1"):
        bad.build(FusionWeights, "ensemble")
    with pytest.raises(ConfigError, match="^text: eta_max must be > 0"):
        bad.build(StlrConfig, "text", eta_max=0.0, total_steps=10,
                  cut_frac=0.5, ratio=32.0)
    with pytest.raises(ConfigError, match="missing config value text.momentum"):
        bad.build(SgdConfig, "text")


def _profile_keys(name):
    cp = configparser.ConfigParser(interpolation=None)
    cp.read(profile_path(name))
    return {(section, key) for section in cp.sections() for key in cp[section]}


def _built_keys(sections):
    """(section, key) pairs that cli.py reads through ``cfg.build(cls,
    section, **given)``: the fields of cls not given.  A section passed as a
    variable stands for every section that holds all of those fields."""
    with open(cli.__file__) as fh:
        tree = ast.parse(fh.read())
    keys = set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "build"):
            continue
        cls, section = node.args[:2]
        fields = {f.name for f in dataclasses.fields(getattr(cli, cls.id))}
        fields -= {kw.arg for kw in node.keywords}
        targets = ([section.value] if isinstance(section, ast.Constant)
                   else [s for s, held in sections.items() if fields <= held])
        keys |= {(s, f) for s in targets for f in fields}
    return keys


def test_profiles_have_no_dead_keys():
    """Both profiles list the same keys, and the package reads each one: the
    key is a string literal in its source, or a field that cli.py builds from
    that section with cfg.build."""
    desk = _profile_keys("desk")
    assert desk == _profile_keys("full")
    literals = set()
    for path in glob.glob(os.path.join(os.path.dirname(cli.__file__), "*.py")):
        with open(path) as fh:
            literals |= {node.value for node in ast.walk(ast.parse(fh.read()))
                         if isinstance(node, ast.Constant)
                         and isinstance(node.value, str)}
    sections = {}
    for section, key in desk:
        sections.setdefault(section, set()).add(key)
    built = _built_keys(sections)
    assert sorted(pair for pair in desk
                  if pair[1] not in literals and pair not in built) == []


def test_snapshot_round_trips_sections():
    snap = Config.load().snapshot()
    assert snap["corpus"]["num_classes"] == "4"
    assert set(snap) >= {"run", "corpus", "image_model", "text_model"}


# -- CLI end to end ------------------------------------------------------------------


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(*argv, must_pass=True):
    """Run the CLI in a child that imports docbench from this checkout's src."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "docbench.cli", *argv],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    if must_pass and proc.returncode != 0:
        raise AssertionError(f"cli failed: {proc.stderr}\n{proc.stdout}")
    return proc


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """Shared artifact chain: corpus, pretrained image net, text net."""
    root = tmp_path_factory.mktemp("cli")
    data = str(root / "data")
    run_cli("gen-data", "--out", data)
    pre = str(root / "pre")
    run_cli("pretrain", "--data", data, "--out", pre,
            "--set", "pretrain.epochs=2")
    txt = str(root / "txt")
    run_cli("train-text", "--data", data, "--out", txt)
    return {"root": root, "data": data, "pre": pre, "txt": txt}


def read_manifest(out_dir):
    with open(os.path.join(out_dir, "run.json")) as fh:
        return json.load(fh)


def metrics_lines(out_dir):
    with open(os.path.join(out_dir, "metrics.csv")) as fh:
        return fh.read().strip().split("\n")


def test_gen_data_writes_manifest_and_corpus(work):
    m = read_manifest(work["data"])
    assert m["command"] == "gen-data"
    assert m["seed"] == 0
    assert m["documents"] == 160
    assert "workers" not in m  # recorded by the training commands only
    assert m["config"]["corpus"]["num_classes"] == "4"
    assert m["artifacts"]["corpus_index"] == "manifest.json"
    assert sorted(os.listdir(work["data"])) == ["images.tensors", "manifest.json",
                                                "run.json"]
    with open(os.path.join(work["data"], "manifest.json")) as fh:
        index = json.load(fh)
    assert len(index["documents"]) == 160
    assert [d["id"] for d in index["documents"]] == list(range(160))
    arrays, meta = load_tensors(os.path.join(work["data"], "images.tensors"))
    assert list(arrays) == ["images"]
    assert arrays["images"].shape == (160, 1, 32, 32)
    assert meta == {"spec": index["spec"], "seed": 0}


def test_run_json_records_its_environment(work):
    env = read_manifest(work["data"])["environment"]
    assert env["python"] == ".".join(map(str, sys.version_info[:3]))
    assert env["numpy"] == np.__version__
    assert {"blas", "blas_version"} <= set(env)
    assert env["cpu_count"] == os.cpu_count()
    assert 1 <= env["affinity"] <= os.cpu_count()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        assert env[var] == os.environ.get(var)
    assert env["heap_kept"] is (platform.libc_ver()[0] == "glibc")


def test_run_json_is_strict_json_after_an_empty_val_split(work, tmp_path):
    out = tmp_path / "noval"
    assert cli.main(["pretrain", "--data", work["data"], "--out", str(out),
                     "--set", "pretrain.epochs=1", "--set", "pretrain.val_size=0",
                     "--set", "pretrain.train_size=100"]) == 0

    def reject(name):
        raise ValueError(f"run.json holds {name}")

    with open(out / "run.json") as fh:
        manifest = json.load(fh, parse_constant=reject)
    assert manifest["final_val_acc"] is None


# what each command adds to the keys every run.json holds
SHARED_RUN_KEYS = {"command", "version", "seed", "config", "artifacts",
                   "wall_clock_seconds", "environment"}
TRAINING_RUN_KEYS = {"epochs", "workers", "final_val_acc"}
RUN_KEYS = {
    "gen-data": {"documents"},
    "pretrain": TRAINING_RUN_KEYS,
    "finetune": TRAINING_RUN_KEYS | {"source_checkpoint", "trainable_groups"},
    "train-text": TRAINING_RUN_KEYS | {"batch_size"},
    "ensemble-eval": {"summary", "predicted_documents", "grid_search",
                      "image_checkpoint", "text_checkpoint"},
    "bench-scaling": {"k_list", "n", "blas_pinned"},
}


@pytest.mark.parametrize("command", list(RUN_KEYS))
def test_every_command_writes_one_run_json(work, tmp_path, command):
    """main writes one run.json for whichever command ran: the shared keys,
    the command's own, and artifacts that name files in --out."""
    out = tmp_path / "out"
    image_ck = os.path.join(work["pre"], "checkpoint.tensors")
    flags = {
        "gen-data": [],
        "pretrain": ["--set", "pretrain.epochs=1"],
        "finetune": ["--checkpoint", image_ck],
        "train-text": ["--set", "text.epochs=1"],
        "ensemble-eval": ["--image-checkpoint", image_ck, "--text-checkpoint",
                          os.path.join(work["txt"], "checkpoint.tensors")],
        "bench-scaling": ["--set", "bench.steps=1", "--set", "bench.warmup=0",
                          "--set", "bench.k_list=1"],
    }[command]
    if command != "gen-data":
        flags += ["--data", work["data"]]
    assert cli.main([command, "--out", str(out), *flags]) == 0
    assert glob.glob(str(tmp_path / "**" / "run.json"), recursive=True) == [
        str(out / "run.json")]
    m = read_manifest(out)
    assert set(m) == SHARED_RUN_KEYS | RUN_KEYS[command]
    assert m["command"] == command
    assert m["version"] == __version__
    assert m["seed"] == 0
    assert m["config"]["corpus"]["num_classes"] == "4"
    assert m["wall_clock_seconds"] >= 0
    assert m["environment"]["numpy"] == np.__version__
    assert m["artifacts"]
    for name in m["artifacts"].values():
        assert (out / name).is_file(), name


def tree_digest(root):
    import hashlib
    h = hashlib.sha256()
    for base, _, files in sorted(os.walk(root)):
        for f in sorted(files):
            if f == "run.json":  # wall-clock field differs by design
                continue
            rel = os.path.relpath(os.path.join(base, f), root)
            h.update(rel.encode())
            with open(os.path.join(base, f), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def test_gen_data_reruns_are_byte_identical(work, tmp_path):
    again = str(tmp_path / "data2")
    run_cli("gen-data", "--out", again)
    assert tree_digest(work["data"]) == tree_digest(again)


def test_gen_data_rejects_empty_classes(tmp_path):
    proc = run_cli("gen-data", "--out", str(tmp_path / "bad"),
                   "--set", "corpus.docs_per_class=0", must_pass=False)
    assert proc.returncode == 1
    err = proc.stderr.strip()
    assert err.startswith("error:")
    assert "\n" not in err


def test_pretrain_metrics_schema_and_peak_lr(work):
    lines = metrics_lines(work["pre"])
    assert lines[0] == "epoch,train_loss,val_acc,lr"
    assert len(lines) == 1 + 2  # header + one row per epoch
    # slanted-triangle peak is base_lr * n * k / 256 = 0.2 * 8 / 256
    lrs = [row.split(",")[3] for row in lines[1:]]
    assert max(lrs) == "0.00625000"
    accs = [float(row.split(",")[2]) for row in lines[1:]]
    assert all(0.0 <= a <= 1.0 for a in accs)


def test_pretrain_manifest_references_artifacts(work):
    m = read_manifest(work["pre"])
    assert m["command"] == "pretrain"
    assert m["workers"] == 1
    assert sorted(m["artifacts"]) == ["checkpoint", "metrics"]
    ck = os.path.join(work["pre"], m["artifacts"]["checkpoint"])
    _, meta = load_tensors(ck)
    assert meta["num_classes"] == 4
    assert meta["model"] == "image"


def test_two_workers_match_one_at_equal_global_batch(work, tmp_path):
    """Same global batch split across two workers; the desk image model has
    batch statistics so mid-training losses drift a little, but the final
    validation accuracy must agree within half a point."""
    base = str(tmp_path / "pre_k1")
    run_cli("pretrain", "--data", work["data"], "--out", base)
    twin = str(tmp_path / "pre_k2")
    run_cli("pretrain", "--data", work["data"], "--out", twin,
            "--workers", "2", "--batch-per-worker", "4")
    acc1 = float(metrics_lines(base)[-1].split(",")[2])
    acc2 = float(metrics_lines(twin)[-1].split(",")[2])
    assert abs(acc1 - acc2) <= 0.005


def test_finetune_touches_only_the_head(work, tmp_path):
    out = str(tmp_path / "ft")
    source = os.path.join(work["pre"],
                          read_manifest(work["pre"])["artifacts"]["checkpoint"])
    run_cli("finetune", "--data", work["data"], "--checkpoint", source,
            "--out", out)
    lines = metrics_lines(out)
    assert len(lines) == 1 + 5  # desk profile trains five epochs
    m = read_manifest(out)
    assert m["trainable_groups"] == ["head"]
    assert m["source_checkpoint"] == source
    before, _ = load_tensors(source)
    after, _ = load_tensors(os.path.join(out, m["artifacts"]["checkpoint"]))
    assert set(before) == set(after)
    moved = []
    for name in before:
        same = np.array_equal(before[name], after[name])
        if name.startswith("head."):
            moved.append(not same)
        else:
            assert same, f"froze {name} but it changed"
    assert any(moved)


def test_train_text_manifest_and_rows(work):
    lines = metrics_lines(work["txt"])
    assert len(lines) == 1 + 5
    m = read_manifest(work["txt"])
    assert m["config"]["text"]["batch_size"] == "6"
    ck = os.path.join(work["txt"], m["artifacts"]["checkpoint"])
    _, meta = load_tensors(ck)
    assert meta["model"] == "text"
    assert meta["num_classes"] == 4


def test_train_text_rejects_indivisible_batch(work, tmp_path):
    proc = run_cli("train-text", "--data", work["data"],
                   "--out", str(tmp_path / "t4"), "--workers", "4",
                   must_pass=False)
    assert proc.returncode == 1
    assert proc.stderr.strip().startswith("error:")


@pytest.mark.parametrize("k,n,batch", [(1, 6, 6), (2, 3, 6), (2, 4, 8)])
def test_train_text_batch_per_worker_sets_the_global_batch(work, tmp_path, k, n,
                                                            batch):
    """--batch-per-worker n makes train-text's global batch k*n in place of
    text.batch_size (6 on the desk profile), so k*n = 6 trains as without it."""
    flags = ["--data", work["data"], "--set", "text.epochs=1", "--workers", str(k)]
    out = tmp_path / "given"
    assert cli.main(["train-text", "--out", str(out), *flags,
                     "--batch-per-worker", str(n)]) == 0
    assert read_manifest(out)["batch_size"] == batch
    if batch == 6:
        plain = tmp_path / "plain"
        assert cli.main(["train-text", "--out", str(plain), *flags]) == 0
        assert read_manifest(plain)["batch_size"] == 6
        assert (out / "metrics.csv").read_bytes() == (plain / "metrics.csv").read_bytes()


def test_ensemble_eval_report_and_summary(work, tmp_path):
    out = str(tmp_path / "ens")
    pre_m = read_manifest(work["pre"])
    txt_m = read_manifest(work["txt"])
    run_cli("ensemble-eval", "--data", work["data"],
            "--image-checkpoint",
            os.path.join(work["pre"], pre_m["artifacts"]["checkpoint"]),
            "--text-checkpoint",
            os.path.join(work["txt"], txt_m["artifacts"]["checkpoint"]),
            "--out", out)
    with open(os.path.join(out, "report.csv")) as fh:
        lines = fh.read().strip().split("\n")
    assert lines[0] == "split_id,image_acc,text_acc,ensemble_acc,w1,w2"
    assert len(lines) == 1 + 3 + 1  # desk profile evaluates three splits
    assert lines[-1].startswith("median,")
    m = read_manifest(out)
    assert set(m["summary"]) == {"median", "mean"}
    assert set(m["summary"]["median"]) == {"image_acc", "text_acc",
                                           "ensemble_acc"}


def ensemble_argv(work, out, *overrides):
    argv = ["ensemble-eval", "--data", work["data"], "--out", str(out),
            "--image-checkpoint", os.path.join(work["pre"], "checkpoint.tensors"),
            "--text-checkpoint", os.path.join(work["txt"], "checkpoint.tensors")]
    for item in overrides:
        argv += ["--set", item]
    return argv


@pytest.mark.parametrize("grid", [False, True])
def test_ensemble_eval_forwards_each_document_once(work, tmp_path, monkeypatch,
                                                   grid):
    """Each model forwards every document some split scores once: the
    union of the test sets, and of the val sets too under a grid search."""
    forwarded = collections.Counter()
    for cls in (layers.ImageNetwork, layers.TextNetwork):
        def counted(net, inputs, ctx, *rest, original=cls.logits, name=cls.__name__):
            if not ctx.training:
                forwarded[name] += len(inputs)
            return original(net, inputs, ctx, *rest)
        monkeypatch.setattr(cls, "logits", counted)
    overrides = [f"ensemble.grid_search={str(grid).lower()}"]
    out = tmp_path / "ens"
    assert cli.main(ensemble_argv(work, out, *overrides)) == 0
    cfg = Config.load(None, overrides)
    plans = cli._splits(cfg, "splits", load_corpus(work["data"]),
                        cfg.getint("splits", "n_splits"), cfg.getint("run", "seed"))
    assert len(plans) == 3
    needed = {i for plan in plans for i in plan.test + (plan.val if grid else [])}
    assert forwarded == {"ImageNetwork": len(needed), "TextNetwork": len(needed)}
    assert read_manifest(out)["predicted_documents"] == len(needed)


@pytest.mark.parametrize("grid", [False, True])
def test_ensemble_eval_matches_the_per_split_oracle(work, tmp_path, monkeypatch,
                                                    grid):
    """report.csv is byte-identical to the per-split loop's, and every
    document's probabilities agree with the ones that loop formed in other
    batches to BLAS round-off."""
    predicted, original = [], cli._probs

    def recorded(net, loader):
        predicted.append(original(net, loader))
        return predicted[-1]

    monkeypatch.setattr(cli, "_probs", recorded)
    overrides = [f"ensemble.grid_search={str(grid).lower()}"]
    out = tmp_path / "ens"
    assert cli.main(ensemble_argv(work, out, *overrides)) == 0

    cfg = Config.load(None, overrides)
    seed = cfg.getint("run", "seed")
    corpus = load_corpus(work["data"])
    image_net = cli._build_image_net(cfg, corpus, seed)
    image_net.load(os.path.join(work["pre"], "checkpoint.tensors"))
    text_net = cli._build_text_net(cfg, corpus, seed)
    text_net.load(os.path.join(work["txt"], "checkpoint.tensors"))
    rows, forwarded = ensemble_rows_oracle(
        corpus, cli._splits(cfg, "splits", corpus, cfg.getint("splits", "n_splits"), seed),
        image_net, text_net, cfg.getint("run", "eval_batch"),
        cli._scaled_dims(cfg).input_size, cli._text_max_len(cfg, corpus), seed,
        cfg.build(FusionWeights, "ensemble"),
        cfg.getfloat("ensemble", "grid_step") if grid else None)
    with open(out / "report.csv", "rb") as fh:
        assert fh.read() == report_csv(rows).encode()
    image, text = predicted
    for docs, p_image, p_text in forwarded:
        assert np.max(np.abs(image[docs] - p_image)) <= 1e-15
        assert np.max(np.abs(text[docs] - p_text)) <= 1e-15


# Runs ensemble-eval twice in one process and prints the minor page faults
# of the second, steady-state command on the last line.
FAULT_PROBE = """
import resource, sys
from docbench import cli
assert cli.main(sys.argv[1:]) == 0
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
assert cli.main(sys.argv[1:]) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the heap thresholds are glibc's")
def test_ensemble_eval_keeps_its_heap(work, tmp_path):
    """Freed eval activations stay in the heap: under glibc's dynamic
    thresholds the second command faults about 21,800 pages back in."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", FAULT_PROBE, "ensemble-eval", "--data", work["data"],
         "--image-checkpoint", os.path.join(work["pre"], "checkpoint.tensors"),
         "--text-checkpoint", os.path.join(work["txt"], "checkpoint.tensors"),
         "--out", str(tmp_path / "ens")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout.split()[-1]) < 2000


def test_ensemble_eval_weight_wiring(work, tmp_path):
    """With all weight on the text model the fused score must equal the
    text score on every split."""
    out = str(tmp_path / "ens10")
    pre_m = read_manifest(work["pre"])
    txt_m = read_manifest(work["txt"])
    run_cli("ensemble-eval", "--data", work["data"],
            "--image-checkpoint",
            os.path.join(work["pre"], pre_m["artifacts"]["checkpoint"]),
            "--text-checkpoint",
            os.path.join(work["txt"], txt_m["artifacts"]["checkpoint"]),
            "--out", out, "--set", "ensemble.w1=1.0", "--set", "ensemble.w2=0.0")
    with open(os.path.join(out, "report.csv")) as fh:
        rows = fh.read().strip().split("\n")[1:]
    for row in rows:
        _, _, text_acc, ens_acc, w1, _ = row.split(",")
        assert w1 == "1.00"
        assert ens_acc == text_acc


def test_ensemble_eval_rejects_class_count_mismatch(work, tmp_path):
    data3 = str(tmp_path / "data3")
    run_cli("gen-data", "--out", data3,
            "--set", "corpus.num_classes=3",
            "--set", "text.train_size=60", "--set", "text.val_size=15")
    txt3 = str(tmp_path / "txt3")
    run_cli("train-text", "--data", data3, "--out", txt3,
            "--set", "text.train_size=60", "--set", "text.val_size=15",
            "--set", "text.epochs=1")
    pre_m = read_manifest(work["pre"])
    txt3_m = read_manifest(txt3)
    proc = run_cli("ensemble-eval", "--data", work["data"],
                   "--image-checkpoint",
                   os.path.join(work["pre"], pre_m["artifacts"]["checkpoint"]),
                   "--text-checkpoint",
                   os.path.join(txt3, txt3_m["artifacts"]["checkpoint"]),
                   "--out", str(tmp_path / "mix"), must_pass=False)
    assert proc.returncode == 1
    assert proc.stderr.strip().startswith("error:")


def test_ensemble_eval_rejects_swapped_checkpoints(work, tmp_path, capsys):
    image_ck = os.path.join(work["pre"], "checkpoint.tensors")
    text_ck = os.path.join(work["txt"], "checkpoint.tensors")
    assert cli.main(["ensemble-eval", "--data", work["data"],
                     "--image-checkpoint", text_ck, "--text-checkpoint", image_ck,
                     "--out", str(tmp_path / "swapped")]) == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith(f"error: {text_ck}: ") and "model" in err


@pytest.mark.parametrize("flag,which,expected", [
    ("text_model.heads=2", "txt", "checkpoint heads is 4, this network needs 2"),
    ("image_model.stages=mbconv 3 8 1 1 1 0.25\nmbconv 3 16 2 1 6 0.25", "pre",
     "checkpoint strides is [1, 2, 1], this network needs [1, 1, 1]"),
])
def test_ensemble_eval_rejects_a_checkpoint_built_otherwise(work, tmp_path, capsys,
                                                            flag, which, expected):
    """Head count and block strides change no tensor shape; the meta holds them."""
    out = tmp_path / "out"
    assert cli.main(["ensemble-eval", "--data", work["data"], "--out", str(out),
                     "--image-checkpoint", os.path.join(work["pre"], "checkpoint.tensors"),
                     "--text-checkpoint", os.path.join(work["txt"], "checkpoint.tensors"),
                     "--set", flag]) == 1
    path = os.path.join(work[which], "checkpoint.tensors")
    assert capsys.readouterr().err == f"error: {path}: {expected}\n"
    assert not out.exists()


@pytest.mark.parametrize("flags,expected", [
    (["splits.per_class_quota=40", "splits.train_size=120", "splits.val_size=40"],
     "splits.per_class_quota puts all 160 documents in train and val, "
     "leaving no test documents"),
    (["ensemble.grid_search=true", "splits.train_size=100", "splits.val_size=0"],
     "splits.val_size must be >= 1 for ensemble.grid_search"),
])
def test_ensemble_eval_empty_split_fails_before_loading_checkpoints(
        work, tmp_path, capsys, flags, expected):
    """The checkpoints do not exist: the split check must come first."""
    out = tmp_path / "out"
    argv = ["ensemble-eval", "--data", work["data"], "--out", str(out),
            "--image-checkpoint", str(tmp_path / "none.tensors"),
            "--text-checkpoint", str(tmp_path / "none.tensors")]
    for flag in flags:
        argv += ["--set", flag]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"error: {expected}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["finetune", "ensemble-eval"])
def test_non_network_tensor_file_is_refused_naming_it(work, tmp_path, capsys,
                                                      command):
    image = os.path.join(work["data"], "images.tensors")
    out = tmp_path / "out"
    argv = [command, "--data", work["data"], "--out", str(out)]
    if command == "finetune":
        argv += ["--checkpoint", image]
    else:
        argv += ["--image-checkpoint", image, "--text-checkpoint",
                 os.path.join(work["txt"], "checkpoint.tensors")]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"error: {image}: not a network checkpoint\n"
    assert not out.exists()


@pytest.mark.parametrize("command,key", [("pretrain", "pretrain.epochs"),
                                         ("finetune", "finetune.epochs"),
                                         ("train-text", "text.epochs")])
def test_zero_epochs_fail_before_any_artifact(work, tmp_path, capsys,
                                              command, key):
    out = tmp_path / "zero"
    argv = [command, "--data", work["data"], "--out", str(out),
            "--set", f"{key}=0"]
    if command == "finetune":
        argv += ["--checkpoint", os.path.join(work["pre"], "checkpoint.tensors")]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and key in err
    assert not (out / "checkpoint.tensors").exists()


@pytest.mark.parametrize("command,key,value", [
    ("pretrain", "run.eval_batch", "0"),
    ("train-text", "run.eval_batch", "0"),
    ("train-text", "text.batch_size", "0"),
    ("ensemble-eval", "splits.n_splits", "0"),
    ("ensemble-eval", "run.eval_batch", "0"),
    ("bench-scaling", "bench.steps", "0"),
    ("bench-scaling", "bench.warmup", "-1"),
    ("bench-scaling", "bench.batch_per_worker", "0"),
])
def test_bad_count_fails_before_any_artifact(work, tmp_path, capsys,
                                             command, key, value):
    out = tmp_path / "bad"
    argv = [command, "--data", work["data"], "--out", str(out),
            "--set", f"{key}={value}"]
    if command == "ensemble-eval":
        argv += ["--image-checkpoint", os.path.join(work["pre"], "checkpoint.tensors"),
                 "--text-checkpoint", os.path.join(work["txt"], "checkpoint.tensors")]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith(f"error: {key} must be >= ")
    for name in ("report.csv", "metrics.csv", "scaling.csv"):
        assert not (out / name).exists()


@pytest.mark.parametrize("command,flags,expected", [
    ("pretrain", ["--set", "pretrain.momentum=1.5"],
     "pretrain.momentum must be in [0,1), got 1.5"),
    ("finetune", ["--set", "finetune.cut_frac=0"],
     "finetune.cut_frac must be in (0,1), got 0.0"),
    ("finetune", ["--set", "finetune.keep_trainable="],
     "finetune.keep_trainable must name at least one group"),
    ("train-text", ["--set", "text.beta1=1.5"],
     "text.beta1 must be in [0,1), got 1.5"),
    ("train-text", ["--set", "text_model.heads=3"],
     "text_model.hidden 32 not divisible by heads 3"),
    ("pretrain", ["--set", "image_model.alpha=0.5"],
     "image_model.alpha must be >= 1, got 0.5"),
    ("pretrain", ["--set", "pretrain.shear_min=10"],
     "pretrain.shear_min must be <= shear_max"),
    ("ensemble-eval", ["--set", "ensemble.w1=0.7"],
     "ensemble: weights must sum to 1, got 1.2"),
    ("gen-data", ["--set", "corpus.image_size=4"],
     "corpus.image_size must be >= 8, got 4"),
    ("pretrain", ["--set", "pretrain.split_index=-1"],
     "pretrain.split_index must be >= 0, got -1"),
    ("bench-scaling", ["--set", "bench.k_list=0"],
     "bench.k_list must be >= 1, got 0"),
    ("bench-scaling", ["--set", "bench.batch_per_worker=0"],
     "bench.batch_per_worker must be >= 1, got 0"),
    ("ensemble-eval", ["--set", "splits.train_size=0"],
     "splits: train 0 + val 20 must equal quota 25 x 4 classes"),
    ("pretrain", ["--set", "image_model.binding=x"],
     "unknown config key image_model.binding"),
    ("bench-scaling", ["--set", "bench.mode=x"],
     "unknown config key bench.mode"),
    ("pretrain", ["--set", "image_model.activation=x"],
     "unknown config key image_model.activation"),
    ("train-text", ["--set", "text_model.activation=x"],
     "unknown config key text_model.activation"),
    ("finetune", ["--set", "finetune.keep_trainable=head bogus"],
     "finetune.keep_trainable: unknown group(s) ['bogus']; "
     "have ['stem', 'stage1', 'stage2', 'head_conv', 'head']"),
    ("ensemble-eval", ["--set", "ensemble.reducer=x"],
     "unknown config key ensemble.reducer"),
    ("gen-data", ["--set", "corpus.docs_per_class="],
     "corpus.docs_per_class must list at least one count, each >= 1"),
    ("gen-data", ["--set", "corpus.num_clases=3"],
     "unknown config key corpus.num_clases"),
    ("ensemble-eval", ["--set", "ensemble.grid_search=true",
                       "--set", "ensemble.grid_step=0"],
     "ensemble.grid_step must be in (0, 1], got 0.0"),
    ("pretrain", ["--set", "image_model.dropout=1.5"],
     "image_model.dropout must be in [0, 1), got 1.5"),
    ("bench-scaling", ["--set", "bench.k_list="],
     "bench.k_list must list at least one worker count"),
    ("gen-data", ["--seed", "-1"], "--seed must be >= 0, got -1"),
    ("train-text", ["--workers", "4"],
     "text.batch_size 6 not divisible by 4 workers"),
    ("bench-scaling", ["--set", "bench.k_list=1 0"],
     "bench.k_list must be >= 1, got 0"),
    ("bench-scaling", ["--set", "bench.k_list=2 4"],
     "bench.k_list must start with 1, got [2, 4]"),
    ("pretrain", ["--set", "image_model.stages=conv 3 16 1 1 1 0.25"],
     "image_model.stages: stage kind must be mbconv, got 'conv'; "
     "got 'conv 3 16 1 1 1 0.25'"),
    ("pretrain", ["--set", "image_model.stages="],
     "image_model.stages must list at least one stage"),
    ("train-text", ["--set", "text_model.heads=0"],
     "text_model.heads must be >= 1, got 0"),
    ("train-text", ["--set", "text_model.hidden=0"],
     "text_model.hidden must be >= 1, got 0"),
    ("train-text", ["--set", "text_model.hidden=-4"],
     "text_model.hidden must be >= 1, got -4"),
    ("train-text", ["--set", "text_model.num_layers=0"],
     "text_model.num_layers must be >= 1, got 0"),
    ("pretrain", ["--set", "image_model.input_size=0"],
     "image_model.input_size must be >= 2, got 0"),
    ("pretrain", ["--set", "image_model.stem_channels=0"],
     "image_model.stem_channels must be >= 1, got 0"),
    ("pretrain", ["--set", "image_model.head_channels=-1"],
     "image_model.head_channels must be >= 1, got -1"),
    ("gen-data", ["--set", "corpus.docs_per_class=40 40 40 40 40 40"],
     "corpus.docs_per_class must list one count per class (4), got 6"),
    ("gen-data", ["--set", "corpus.docs_per_class=40 40"],
     "corpus.docs_per_class must list one count per class (4), got 2"),
    ("gen-data", ["--set", "corpus.num_classes=41", "--set", "corpus.vocab_size=64"],
     "corpus.num_classes must be <= 40, the number of distinct page layouts, "
     "got 41"),
    ("train-text", ["--set", "text.weight_decay=-1"],
     "text.weight_decay must be >= 0, got -1.0"),
    ("train-text", ["--set", "text.epsilon=0"], "text.epsilon must be > 0, got 0.0"),
    ("train-text", ["--set", "text.eta_body=0"], "text.eta_body must be > 0, got 0.0"),
    ("train-text", ["--set", "text.eta_top=-1e-6"],
     "text.eta_top must be > 0, got -1e-06"),
    ("pretrain", ["--set", "pretrain.base_lr=0"], "pretrain.base_lr must be > 0, got 0.0"),
    ("pretrain", ["--set", "pretrain.base_lr=-1"],
     "pretrain.base_lr must be > 0, got -1.0"),
    ("pretrain", ["--set", "pretrain.base_lr=nan"], "pretrain.base_lr must be > 0, got nan"),
    ("finetune", ["--set", "finetune.base_lr=0"], "finetune.base_lr must be > 0, got 0.0"),
    ("pretrain", ["--set", "pretrain.epochs=1", "--set", "pretrain.cut_frac=0.05"],
     "pretrain.cut_frac 0.05 too small for 10 total steps"),
    ("finetune", ["--set", "finetune.epochs=1"],
     "finetune.cut_frac 0.5 too small for 1 total steps"),
])
def test_bad_config_fails_up_front_naming_its_key(work, tmp_path, capsys,
                                                  monkeypatch, command, flags,
                                                  expected):
    """One stderr line naming the section (and the key when the check names
    one), no --out directory at all, and no training step or evaluation."""
    def ran(*args):
        pytest.fail("trained or evaluated before the config check")

    for name in ("image_loss", "text_loss", "_probs"):
        monkeypatch.setattr(cli, name, ran)
    out = tmp_path / "out"
    argv = [command, "--out", str(out), *flags]
    if command != "gen-data":
        argv += ["--data", work["data"]]
    image_ck = os.path.join(work["pre"], "checkpoint.tensors")
    if command == "finetune":
        argv += ["--checkpoint", image_ck]
    if command == "ensemble-eval":
        argv += ["--image-checkpoint", image_ck, "--text-checkpoint",
                 os.path.join(work["txt"], "checkpoint.tensors")]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"error: {expected}\n"
    assert not out.exists()


@pytest.mark.parametrize("k", [1, 2])
def test_overflow_prints_only_the_error_line(work, tmp_path, k):
    proc = run_cli("pretrain", "--data", work["data"], "--out", str(tmp_path / "nan"),
                   "--workers", str(k), "--batch-per-worker", str(8 // k),
                   "--set", "pretrain.base_lr=1e12", must_pass=False)
    assert proc.returncode == 1
    # the epoch and step of the first overflow depend on round-off
    assert re.fullmatch(r"error: epoch \d+, step \d+: non-finite gradient for "
                        r"parameter '[^']+'\n", proc.stderr), proc.stderr


def test_deterministic_rerun_reproduces_metrics(work, tmp_path):
    out = str(tmp_path / "re")
    run_cli("pretrain", "--data", work["data"], "--out", out,
            "--set", "pretrain.epochs=2")
    assert metrics_lines(out) == metrics_lines(work["pre"])


def test_bench_scaling_single_worker(work, tmp_path):
    out = str(tmp_path / "bench")
    proc = run_cli("bench-scaling", "--data", work["data"], "--out", out,
                   "--set", "bench.k_list=1", "--set", "bench.steps=2",
                   "--set", "bench.warmup=0")
    with open(os.path.join(out, "scaling.csv")) as fh:
        lines = fh.read().strip().split("\n")
    assert lines[0] == "k,wall_seconds,samples_per_sec,speedup,efficiency"
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert fields[0] == "1"
    assert fields[3] == "1.0000"
    assert "75.4" in proc.stdout


@pytest.mark.parametrize("installed", [False, True])
def test_bench_scaling_records_whether_blas_was_pinned(work, tmp_path, monkeypatch,
                                                       installed):
    pins = []
    fake = types.ModuleType("threadpoolctl")
    fake.threadpool_limits = lambda limits: pins.append(limits) or contextlib.nullcontext()
    # None in sys.modules makes the import raise ImportError
    monkeypatch.setitem(sys.modules, "threadpoolctl", fake if installed else None)
    out = str(tmp_path / "bench")
    assert cli.main(["bench-scaling", "--data", work["data"], "--out", out,
                     "--set", "bench.k_list=1", "--set", "bench.steps=1",
                     "--set", "bench.warmup=0"]) == 0
    assert read_manifest(out)["blas_pinned"] is installed
    assert pins == ([1] if installed else [])


@pytest.mark.parametrize("command,flag", [
    ("gen-data", "--workers"), ("gen-data", "--batch-per-worker"),
    ("ensemble-eval", "--workers"), ("ensemble-eval", "--batch-per-worker"),
    ("bench-scaling", "--workers"), ("bench-scaling", "--k-list"),
    ("bench-scaling", "--batch-per-worker")])
def test_a_command_rejects_the_flags_it_does_not_read(capsys, command, flag):
    needs = {"gen-data": [], "bench-scaling": ["--data", "d"],
             "ensemble-eval": ["--data", "d", "--image-checkpoint", "i",
                               "--text-checkpoint", "t"]}[command]
    assert cli.main([command, "--out", "o", *needs, flag, "2"]) == 1
    assert capsys.readouterr().err == f"error: unrecognized arguments: {flag} 2\n"


TRAINING_FLAGS = {"--data", "--workers", "--batch-per-worker"}
COMMAND_FLAGS = {
    "gen-data": set(),
    "pretrain": TRAINING_FLAGS,
    "finetune": TRAINING_FLAGS | {"--checkpoint"},
    "train-text": TRAINING_FLAGS,
    "ensemble-eval": {"--data", "--image-checkpoint", "--text-checkpoint"},
    "bench-scaling": {"--data"},
}


@pytest.mark.parametrize("command", list(COMMAND_FLAGS))
def test_each_command_takes_exactly_its_flags(command):
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    options = {s for a in sub.choices[command]._actions for s in a.option_strings}
    assert options == {"-h", "--help", "--config", "--set", "--seed", "--out",
                       *COMMAND_FLAGS[command]}


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["pretrain", "--help"]])
def test_help_and_version_exit_zero(capsys, argv):
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 0
    assert capsys.readouterr().out


def test_bench_scaling_ignores_run_batch_per_worker(work, tmp_path):
    """bench-scaling reads bench.batch_per_worker, so a bad
    run.batch_per_worker is not its error."""
    out = str(tmp_path / "bench")
    run_cli("bench-scaling", "--data", work["data"], "--out", out,
            "--set", "run.batch_per_worker=0", "--set", "bench.k_list=1",
            "--set", "bench.steps=1", "--set", "bench.warmup=0")
    assert read_manifest(out)["n"] == 4  # desk bench.batch_per_worker


def test_unknown_profile_fails_cleanly(tmp_path):
    proc = run_cli("gen-data", "--out", str(tmp_path / "x"),
                   "--config", "warehouse", must_pass=False)
    assert proc.returncode == 1
    assert proc.stderr.strip().startswith("error:")


def test_readme_library_example_trains(tmp_path):
    """The README's "Library use" block runs as written and learns."""
    with open(os.path.join(os.path.dirname(SRC), "README.md")) as fh:
        readme = fh.read()
    block = readme.split("## Library use", 1)[1].split("```python\n", 1)[1]
    script = tmp_path / "example.py"
    script.write_text(block.split("```", 1)[0] + (
        "import json\n"
        "print(json.dumps([[r['train_loss'] for r in metrics], val]))\n"))
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(script)], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    losses, val = json.loads(proc.stdout.strip().splitlines()[-1])
    assert len(losses) == 4 and all(np.isfinite(losses))
    assert losses[-1] < losses[0] / 2
    assert 0.5 <= val <= 1.0


def test_readme_commands_parse():
    """Each ``docbench`` line of the README's sh blocks, joined with its
    backslash continuations, parses as written."""
    with open(os.path.join(os.path.dirname(SRC), "README.md")) as fh:
        blocks = re.findall(r"```sh\n(.*?)```", fh.read(), re.S)
    lines = [line for block in blocks for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("docbench ")]
    parser = cli.build_parser()
    commands = {parser.parse_args(shlex.split(line)[1:]).command for line in lines}
    assert commands == set(cli.HANDLERS)
