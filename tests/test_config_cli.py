"""Config layering rules plus end-to-end command-line runs in a scratch dir.

The CLI checks run the real entry point in a subprocess and chain artifacts:
generated corpus -> pretrained checkpoint -> fine-tune / text / ensemble.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from docbench import cli
from docbench.config import Config, ConfigError, profile_path
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
    assert cfg.get("corpus", "nonexistent_key") is None


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
