"""Config layering rules plus end-to-end command-line runs in a scratch dir.

The CLI checks run the real entry point in a subprocess and chain artifacts:
generated corpus -> pretrained checkpoint -> fine-tune / text / ensemble.
"""

import ast
import configparser
import dataclasses
import glob
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from docbench import cli
from docbench.config import Config, ConfigError, profile_path
from docbench.data import AugmentConfig
from docbench.ensemble import FusionWeights
from docbench.optim import SgdConfig, StlrConfig
from docbench.parallel import MAX_WORKERS_ENV
from docbench.tensor import load_tensors

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


def run_cli(*argv, must_pass=True):
    proc = subprocess.run([sys.executable, "-m", "docbench.cli", *argv],
                          capture_output=True, text=True)
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
    assert m["config"]["corpus"]["num_classes"] == "4"
    index = os.path.join(work["data"], m["artifacts"]["corpus_index"])
    assert os.path.exists(index)
    with open(index) as fh:
        docs = json.load(fh)["documents"]
    assert len(docs) == 160
    # the run manifest points at the index; the index points at every payload
    for entry in docs[:3]:
        assert os.path.exists(os.path.join(work["data"], entry["image"]))
        assert os.path.exists(os.path.join(work["data"], entry["tokens"]))


def test_run_json_records_its_environment(work):
    env = read_manifest(work["data"])["environment"]
    assert env["python"] == ".".join(map(str, sys.version_info[:3]))
    assert env["numpy"] == np.__version__
    assert {"blas", "blas_version"} <= set(env)
    assert env["cpu_count"] == os.cpu_count()
    assert 1 <= env["affinity"] <= os.cpu_count()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                MAX_WORKERS_ENV):
        assert env[var] == os.environ.get(var)


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
    ("bench-scaling", ["--k-list", "0"],
     "k_list must be nonempty with every k >= 1, got [0]"),
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
    ("pretrain", ["--set", "image_model.in_channels=3"],
     "image_model.in_channels 3 does not match the corpus's 1 image channel(s)"),
    ("finetune", ["--set", "image_model.in_channels=3"],
     "image_model.in_channels 3 does not match the corpus's 1 image channel(s)"),
    ("bench-scaling", ["--set", "image_model.in_channels=2"],
     "image_model.in_channels 2 does not match the corpus's 1 image channel(s)"),
    ("ensemble-eval", ["--set", "image_model.in_channels=3"],
     "image_model.in_channels 3 does not match the corpus's 1 image channel(s)"),
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


def test_bad_worker_cap_fails_naming_the_variable(work, tmp_path, capsys,
                                                 monkeypatch):
    monkeypatch.setenv(MAX_WORKERS_ENV, "x")
    out = tmp_path / "out"
    assert cli.main(["bench-scaling", "--data", work["data"], "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {MAX_WORKERS_ENV} must be an integer, got 'x'\n"
    assert not out.exists()


@pytest.mark.parametrize("k", [1, 2])
def test_overflow_prints_only_the_error_line(work, tmp_path, k):
    proc = run_cli("pretrain", "--data", work["data"], "--out", str(tmp_path / "nan"),
                   "--workers", str(k), "--batch-per-worker", str(8 // k),
                   "--set", "pretrain.base_lr=1e12", must_pass=False)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: epoch 0, step ")
    assert "non-finite gradient" in proc.stderr
    assert proc.stderr.count("\n") == 1


def test_deterministic_rerun_reproduces_metrics(work, tmp_path):
    out = str(tmp_path / "re")
    run_cli("pretrain", "--data", work["data"], "--out", out,
            "--set", "pretrain.epochs=2")
    assert metrics_lines(out) == metrics_lines(work["pre"])


def test_bench_scaling_single_worker(work, tmp_path):
    out = str(tmp_path / "bench")
    proc = run_cli("bench-scaling", "--data", work["data"], "--out", out,
                   "--k-list", "1", "--set", "bench.steps=2",
                   "--set", "bench.warmup=0")
    with open(os.path.join(out, "scaling.csv")) as fh:
        lines = fh.read().strip().split("\n")
    assert lines[0] == "k,wall_seconds,samples_per_sec,speedup,efficiency"
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert fields[0] == "1"
    assert fields[3] == "1.0000"
    assert "75.4" in proc.stdout


def test_unknown_profile_fails_cleanly(tmp_path):
    proc = run_cli("gen-data", "--out", str(tmp_path / "x"),
                   "--config", "warehouse", must_pass=False)
    assert proc.returncode == 1
    assert proc.stderr.strip().startswith("error:")
