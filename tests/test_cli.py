import json
import subprocess
import sys

import pytest
import yaml

from bookcast import market, synth, transfer
from bookcast.cli import DEFAULT_CONFIG, STAGE_FIELDS, Run, load_config, main
from bookcast.features import FEATURE_NAMES
from bookcast.util import parse_timestamp

BASE_CFG = {
    "seed": 0,
    "seeds": [0, 1],
    "market": "DE",
    "product_type": "60min",
    "horizon_start": "2024-03-01T00:00:00",
    "horizon_end": "2024-03-08T00:00:00",
    "train_end": "2024-03-05T00:00:00",
    "val_end": "2024-03-06T00:00:00",
    "test_end": "2024-03-08T00:00:00",
    "synth": {"liquidity": 15.0, "session_hours": 8.0},
    "selector": {"alpha_grid_size": 5, "max_iter": 300, "stages": 2},
    "model": {"family": "qknn", "search_budget": 2, "feature_set": "naive2",
              "config": {}},
}


def write_cfg(tmp_path, **extra):
    cfg = json.loads(json.dumps(BASE_CFG))
    cfg["workspace"] = str(tmp_path / "ws")
    for key, val in extra.items():
        if isinstance(val, dict):
            cfg[key] = {**cfg.get(key, {}), **val}
        else:
            cfg[key] = val
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path


def run_cli(*args):
    return main(list(args))


def _hash_dir(ws, area):
    dirs = list((ws / area).iterdir())
    assert len(dirs) == 1
    return dirs[0]


def test_synth_writes_canonical_csv(tmp_path):
    cfg = write_cfg(tmp_path)
    assert run_cli("synth", "--config", str(cfg)) == 0
    out = _hash_dir(tmp_path / "ws", "synth") / "trades.csv"
    header = out.read_text().splitlines()[0]
    assert header == "product_start,side,exec_time,price,volume"
    meta = json.loads((out.parent / "meta.json").read_text())
    assert meta["tool_version"]
    assert meta["config_hash"] == out.parent.name


def test_synth_idempotent_bytes(tmp_path):
    cfg = write_cfg(tmp_path)
    run_cli("synth", "--config", str(cfg))
    out = _hash_dir(tmp_path / "ws", "synth") / "trades.csv"
    first = out.read_bytes()
    run_cli("synth", "--config", str(cfg))
    assert out.read_bytes() == first


def test_extract_shape_and_drop_report(tmp_path):
    cfg = write_cfg(tmp_path)
    assert run_cli("extract", "--config", str(cfg)) == 0
    feat_dir = _hash_dir(tmp_path / "ws", "features")
    header = (feat_dir / "features.csv").read_text().splitlines()[0].split(",")
    assert header[:4] == ["t_d", "t_f", "target_id3", "matched_trade_count"]
    assert header[4:4 + 384] == list(FEATURE_NAMES)
    assert header[-2:] == ["config_hash", "tool_version"]
    report = json.loads((feat_dir / "drop_report.json").read_text())
    assert report["n_products"] == 7 * 24
    assert report["n_built"] + report["n_discarded_features"] == report["n_products"]


def test_select_report_and_topk(tmp_path):
    cfg = write_cfg(tmp_path)
    assert run_cli("select", "--config", str(cfg)) == 0
    sel_dir = _hash_dir(tmp_path / "ws", "selection")
    sel = json.loads((sel_dir / "selection.json").read_text())
    assert sel["union"]
    for key in ("by_family", "by_window", "by_side"):
        total = sum(sel["breakdown"][key].values())
        assert abs(total - 1.0) < 1e-9
    table = (sel_dir / "top_features.csv").read_text().splitlines()
    assert table[0].split(",")[:6] == ["market", "product_type", "quantile",
                                       "rank", "feature", "coefficient"]
    # up to 5 per quantile level
    assert 3 <= len(table) - 1 <= 15


def test_train_then_evaluate(tmp_path):
    cfg = write_cfg(tmp_path)
    assert run_cli("train", "--config", str(cfg)) == 0
    model_dir = _hash_dir(tmp_path / "ws", "models")
    assert (model_dir / "qknn_seed0.npz").exists()
    assert (model_dir / "qknn_seed1.npz").exists()
    assert (model_dir / "trials_seed0.jsonl").exists()
    assert run_cli("evaluate", "--config", str(cfg)) == 0
    metrics_dir = _hash_dir(tmp_path / "ws", "metrics")
    payload = json.loads((metrics_dir / "metrics.json").read_text())
    assert set(payload["per_seed"]) == {"0", "1"}
    rows = (metrics_dir / "metrics.csv").read_text().splitlines()
    assert rows[0].startswith("family,AQL,AQCR,RMSE,MAE,R2")
    assert "±" in rows[1]


def test_evaluate_without_checkpoint_exits_2(tmp_path):
    cfg = write_cfg(tmp_path)
    assert run_cli("evaluate", "--config", str(cfg)) == 2


def test_evaluate_reads_features_once(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path, seeds=[0, 1])
    assert run_cli("train", "--config", str(cfg)) == 0
    calls = []
    read = market.read_samples_csv

    def counting_read(fh):
        calls.append(1)
        return read(fh)

    monkeypatch.setattr(market, "read_samples_csv", counting_read)
    assert run_cli("evaluate", "--config", str(cfg)) == 0
    assert len(calls) == 1


def test_unknown_config_field_exits_2(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump({"not_a_field": 1}))
    assert run_cli("synth", "--config", str(path)) == 2


def test_bad_path_exits_2_and_names_field(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump({"trades_csv": str(tmp_path / "missing.csv")}))
    assert run_cli("extract", "--config", str(path)) == 2
    assert "trades_csv" in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path):
    assert run_cli("synth", "--config", str(tmp_path / "nope.yaml")) == 2


def test_flag_overrides_change_hash(tmp_path):
    cfg = write_cfg(tmp_path)
    run_cli("synth", "--config", str(cfg))
    run_cli("synth", "--config", str(cfg), "--market", "AT")
    dirs = list((tmp_path / "ws" / "synth").iterdir())
    assert len(dirs) == 2


def test_naive_feature_sets_skip_selection(tmp_path):
    cfg = write_cfg(tmp_path, model={"feature_set": "naive1"})
    assert run_cli("train", "--config", str(cfg)) == 0
    assert not (tmp_path / "ws" / "selection").exists()


def test_transfer_outputs(tmp_path):
    cfg = write_cfg(
        tmp_path,
        transfer={
            "model_family": "qknn",
            "model_config": {},
            "budget": 2,
            "seeds": [0],
            "strategies": ["A->A", "B->A", "A+B->A"],
            "domain_a": {"name": "A", "synth": {"liquidity": 10.0}},
            "domain_b": {"name": "B", "synth": {"liquidity": 25.0}},
        },
        selector={"alpha_grid_size": 4, "max_iter": 200, "stages": 2},
    )
    assert run_cli("transfer", "--config", str(cfg)) == 0
    tdir = _hash_dir(tmp_path / "ws", "transfer")
    reports = json.loads((tdir / "reports.json").read_text())
    assert reports["loss_ratio"]["A->A"] == 1.0
    assert set(reports["runs"]) == {"A->A", "B->A", "A+B->A"}
    table = (tdir / "table.csv").read_text().splitlines()
    assert len(table) == 4  # header + 3 strategies
    scatter = (tdir / "scatter.csv").read_text().splitlines()
    assert len(scatter) == 3  # header + 2 ordered pairs
    c_vals = [float(line.split(",")[2]) for line in scatter[1:]]
    assert c_vals[0] * c_vals[1] == pytest.approx(1.0, rel=1e-9)


def test_cli_entrypoint_subprocess(tmp_path):
    cfg = write_cfg(tmp_path)
    proc = subprocess.run([sys.executable, "-m", "bookcast.cli", "synth",
                           "--config", str(cfg)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "trades.csv" in proc.stdout


def test_train_parallel_jobs_matches_sequential(tmp_path):
    (tmp_path / "seq").mkdir()
    (tmp_path / "par").mkdir()
    cfg1 = write_cfg(tmp_path / "seq")
    cfg2 = write_cfg(tmp_path / "par", jobs=2)
    assert run_cli("train", "--config", str(cfg1)) == 0
    assert run_cli("evaluate", "--config", str(cfg1)) == 0
    assert run_cli("train", "--config", str(cfg2)) == 0
    assert run_cli("evaluate", "--config", str(cfg2)) == 0
    seq = json.loads((_hash_dir(tmp_path / "seq" / "ws", "metrics") / "metrics.json").read_text())
    par = json.loads((_hash_dir(tmp_path / "par" / "ws", "metrics") / "metrics.json").read_text())
    # jobs keys no workspace area and does not change the experiment outcome
    assert seq["per_seed"] == par["per_seed"]


def test_removed_zero_threshold_exits_2(tmp_path, capsys):
    # selection always uses selection.ZERO_THRESHOLD; the field is not a knob
    cfg = write_cfg(tmp_path, selector={"zero_threshold": 1e-6})
    assert run_cli("select", "--config", str(cfg)) == 2
    assert "selector.zero_threshold" in capsys.readouterr().err


def _counting(calls, name, fn):
    def wrapped(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapped


def test_model_setting_reuses_upstream_areas(tmp_path, monkeypatch):
    calls = {"build_samples": 0, "tune_alpha": 0}
    monkeypatch.setattr(market, "build_samples",
                        _counting(calls, "build_samples", market.build_samples))
    # selection runs tune_alpha through the name transfer imported
    monkeypatch.setattr(transfer, "tune_alpha",
                        _counting(calls, "tune_alpha", transfer.tune_alpha))
    ws = tmp_path / "ws"
    cfg = write_cfg(tmp_path, model={"feature_set": "full", "search_budget": 2})
    assert run_cli("train", "--config", str(cfg)) == 0
    assert calls["build_samples"] == 1 and calls["tune_alpha"] > 0
    first = dict(calls)
    cfg = write_cfg(tmp_path, model={"feature_set": "full", "search_budget": 3})
    assert run_cli("train", "--config", str(cfg)) == 0
    assert calls == first
    for area in ("synth", "features", "selection"):
        _hash_dir(ws, area)
    assert len(list((ws / "models").iterdir())) == 2


def test_stage_fields_cover_the_config():
    # a config field outside every key would let a changed input reuse
    # stale outputs
    keyed = set().union(*STAGE_FIELDS.values())
    assert keyed == set(DEFAULT_CONFIG) - {"workspace", "jobs"}
    upstream = {"features": "synth", "selection": "features",
                "models": "selection", "metrics": "models",
                "transfer": "selection"}
    assert set(STAGE_FIELDS) == set(upstream) | {"synth"}
    for area, up in upstream.items():
        assert set(STAGE_FIELDS[up]) <= set(STAGE_FIELDS[area]), area


def _keys(tmp_path, overrides=None, **extra):
    return Run(load_config(str(write_cfg(tmp_path, **extra)), overrides or {})).keys


def test_stage_keys_follow_their_fields(tmp_path):
    base = _keys(tmp_path)
    moved = _keys(tmp_path, selector={"top_k": 3})
    assert {a for a in base if moved[a] != base[a]} == {
        "selection", "models", "metrics", "transfer"}
    assert _keys(tmp_path, {"workspace": str(tmp_path / "other"), "jobs": 2}) == base


def test_transfer_runs_each_strategy_once(tmp_path, monkeypatch):
    calls = []
    run_strategy = transfer.run_strategy

    def counting(strategy, A, B, *args, **kwargs):
        calls.append((strategy, A.name))
        return run_strategy(strategy, A, B, *args, **kwargs)

    monkeypatch.setattr(transfer, "run_strategy", counting)
    cfg = write_cfg(
        tmp_path,
        transfer={"model_family": "qknn", "budget": 2, "seeds": [0],
                  "domain_a": {"name": "A", "synth": {"liquidity": 10.0}},
                  "domain_b": {"name": "B", "synth": {"liquidity": 25.0}}},
        selector={"alpha_grid_size": 4, "max_iter": 200, "stages": 2},
    )
    assert run_cli("transfer", "--config", str(cfg)) == 0
    # the configured pair, then the reverse direction's baseline and transfer
    assert calls == [("A->A", "A"), ("B->A", "A"), ("A+B->A", "A"),
                     ("A->A", "B"), ("B->A", "B")]


def test_unknown_transfer_strategy_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, transfer={"strategies": ["A->A", "A->B"]})
    assert run_cli("transfer", "--config", str(cfg)) == 2
    err = capsys.readouterr().err
    assert "transfer.strategies" in err and "'A->B'" in err
    assert not (tmp_path / "ws").exists()


def _write_trades(path, seed):
    spec = market.ProductSpec(market=BASE_CFG["market"], product_type=BASE_CFG["product_type"])
    data = synth.generate(synth.SynthConfig(seed=seed, **BASE_CFG["synth"]), spec,
                          parse_timestamp(BASE_CFG["horizon_start"]),
                          parse_timestamp(BASE_CFG["horizon_end"]))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        market.write_trades_csv(data.trades, fh)


def test_replaced_trades_csv_rebuilds_features(tmp_path):
    trades = tmp_path / "trades.csv"
    _write_trades(trades, seed=1)
    cfg = write_cfg(tmp_path, trades_csv=str(trades))
    assert run_cli("extract", "--config", str(cfg)) == 0
    _write_trades(trades, seed=2)
    assert run_cli("train", "--config", str(cfg)) == 0
    features = sorted((tmp_path / "ws" / "features").iterdir())
    assert len(features) == 2
    assert not (tmp_path / "ws" / "synth").exists()
    first, second = ((d / "features.csv").read_text() for d in features)
    assert first != second
