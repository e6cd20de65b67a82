import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from bookcast import cli, market, synth, transfer
from bookcast.cli import (DEFAULT_CONFIG, STAGE_FIELDS, Run, _model_config,
                          load_config, main)
from bookcast.features import FEATURE_NAMES
from bookcast.models import FAMILIES, load_checkpoint, make_model
from bookcast.selection import SelectionResult, top_k_union
from bookcast.util import parse_timestamp

ROOT = Path(__file__).resolve().parent.parent

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


@pytest.mark.parametrize("name,text,line", [
    ("bad.json", '{"seed": 1,,}', 1),
    ("bad.json", '{\n  "seed": 1,\n  "seeds": [0, 1\n}\n', 4),
    ("bad.yaml", "seed: 1\nseeds: [0, 1\nmarket: DE\n", 3),
], ids=["json-double-comma", "json-unclosed-list", "yaml-unclosed-list"])
def test_malformed_config_exits_2_with_line(tmp_path, capsys, name, text, line):
    path = tmp_path / name
    path.write_text(text)
    assert run_cli("synth", "--config", str(path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert str(path) in err and f"line {line}:" in err
    assert "Traceback" not in err


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


def _child_env():
    # pytest's pythonpath setting reaches this process only, not the child
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def test_cli_entrypoint_subprocess(tmp_path):
    cfg = write_cfg(tmp_path)
    proc = subprocess.run([sys.executable, "-m", "bookcast.cli", "synth",
                           "--config", str(cfg)],
                          env=_child_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "trades.csv" in proc.stdout


def test_cli_import_loads_no_scipy():
    # scipy adds about 43 MB of resident memory to every command; only the
    # benchmark's and the tests' oracles may import it. yaml and the process
    # pool load only for a YAML config or jobs > 1, off every other start-up
    code = ("import sys, bookcast.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'yaml')"
            " or m == 'concurrent.futures.process'))")
    proc = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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


@pytest.mark.parametrize("section", ["synth", "transfer.domain_b.synth"])
@pytest.mark.parametrize("key", ["side_balance", "arrival_ramp", "volume_log_mean",
                                 "volume_log_sd"])
def test_removed_synth_settings_exit_2(tmp_path, capsys, section, key):
    # the generator fixes these; a config that sets one is an error
    extra = ({"synth": {key: 0.5}} if section == "synth"
             else {"transfer": {"domain_b": {"synth": {key: 0.5}}}})
    assert run_cli("synth", "--config", str(write_cfg(tmp_path, **extra))) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"'{section}" in err and key in err, err


def test_empty_selection_exits_1_without_writing(tmp_path, monkeypatch, capsys):
    def empty(domain, quantiles, *args, **kwargs):
        return SelectionResult(quantiles=tuple(quantiles), feature_names=FEATURE_NAMES,
                               per_tau_selected={t: [] for t in quantiles},
                               per_tau_coef={t: {} for t in quantiles},
                               alpha_per_tau={t: 1.0 for t in quantiles})
    monkeypatch.setattr(cli, "ensure_selection", empty)
    assert run_cli("select", "--config", str(write_cfg(tmp_path))) == 1
    assert "selection is empty" in capsys.readouterr().err
    assert not list((tmp_path / "ws").rglob("selection.json"))


def test_extract_short_trade_row_exits_1_naming_the_line(tmp_path, capsys):
    trades = tmp_path / "trades.csv"
    trades.write_text("product_start,side,exec_time,price,volume\n"
                      "2024-03-02T12:00:00Z,+,2024-03-02T08:00:00Z,50.0,5.0\n"
                      "2024-03-02T12:00:00Z,+,2024-03-02T08:00:00Z,50.0\n")
    cfg = write_cfg(tmp_path, trades_csv=str(trades))
    assert run_cli("extract", "--config", str(cfg)) == 1
    err = capsys.readouterr().err
    assert err == "error: TradeParseError: line 3: expected 5 fields, got 4\n"
    assert not (tmp_path / "ws" / "features").exists()


def test_train_top5_checkpoints_the_top_k_union(tmp_path):
    cfg = write_cfg(tmp_path, seeds=[0], selector={"top_k": 2},
                    model={"feature_set": "top5"})
    assert run_cli("train", "--config", str(cfg)) == 0
    ws = tmp_path / "ws"
    payload = json.loads((_hash_dir(ws, "selection") / "selection.json").read_text())
    sel = SelectionResult.from_dict(payload, FEATURE_NAMES)
    _model, prep = load_checkpoint(_hash_dir(ws, "models") / "qknn_seed0.npz")
    assert list(prep["feature_names"]) == top_k_union(sel, 2)
    assert top_k_union(sel, 2) != top_k_union(sel, 5)


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


def test_transfer_fits_each_source_set_once_per_seed(tmp_path, monkeypatch):
    # A->A, B->A and A+B->A fit the sources {A}, {B} and {A, B}; the reverse
    # direction's baseline (sources {B}) and transfer (sources {A}) reuse them
    calls = []
    run_experiment = transfer.run_experiment

    def counting(*args, **kwargs):
        calls.append(args[5])  # the seed
        return run_experiment(*args, **kwargs)

    monkeypatch.setattr(transfer, "run_experiment", counting)
    cfg = write_cfg(
        tmp_path,
        transfer={"model_family": "qknn", "budget": 2, "seeds": [0, 1],
                  "domain_a": {"name": "A", "synth": {"liquidity": 10.0}},
                  "domain_b": {"name": "B", "synth": {"liquidity": 25.0}}},
        selector={"alpha_grid_size": 4, "max_iter": 200, "stages": 2},
    )
    assert run_cli("transfer", "--config", str(cfg)) == 0
    assert sorted(calls) == [0, 0, 0, 1, 1, 1]


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_model_config_keys_are_the_config_keys(family):
    keys = FAMILIES[family].config_keys()
    parse = _model_config(family)
    assert parse(dict.fromkeys(keys)) == dict.fromkeys(keys)
    with pytest.raises(ValueError, match=re.escape(f"known: {sorted(keys)}")):
        parse({"bogus": 1})
    assert tuple(make_model(family, (0.1, 0.5, 0.9)).config()) == keys


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


def test_transfer_domain_trades_csv_exits_2(tmp_path, capsys):
    # transfer domains are synthetic; a trade file is not a domain field
    cfg = write_cfg(tmp_path, transfer={"domain_a": {"name": "A",
                                                     "trades_csv": "trades.csv"}})
    assert run_cli("transfer", "--config", str(cfg)) == 2
    assert "transfer.domain_a.trades_csv" in capsys.readouterr().err


def test_transfer_domains_share_the_selection_cache(tmp_path, monkeypatch):
    calls = {"tune_alpha": 0}
    monkeypatch.setattr(transfer, "tune_alpha",
                        _counting(calls, "tune_alpha", transfer.tune_alpha))
    n_tau = len(DEFAULT_CONFIG["quantiles"])
    extra = dict(
        transfer={"model_family": "qknn", "budget": 2, "seeds": [0],
                  # domain A merges to the main synth config, B does not
                  "domain_a": {"name": "A", "synth": {"liquidity": 15.0}},
                  "domain_b": {"name": "B", "synth": {"liquidity": 25.0}}},
        selector={"alpha_grid_size": 4, "max_iter": 200, "stages": 2},
    )

    def transfer_calls(cfg):
        before = calls["tune_alpha"]
        assert run_cli("transfer", "--config", str(cfg)) == 0
        return calls["tune_alpha"] - before

    (tmp_path / "warm").mkdir()
    (tmp_path / "cold").mkdir()
    warm = write_cfg(tmp_path / "warm", **extra)
    cold = write_cfg(tmp_path / "cold", **extra)
    main_key = Run(load_config(str(warm), {})).keys["selection"]

    # select first: transfer tunes domain B only, then nothing at all
    assert run_cli("select", "--config", str(warm)) == 0
    main_sel = tmp_path / "warm" / "ws" / "selection" / main_key / "selection.json"
    selected = main_sel.read_bytes()
    assert transfer_calls(warm) == n_tau
    sel_dirs = sorted(p.name for p in (tmp_path / "warm" / "ws" / "selection").iterdir())
    assert len(sel_dirs) == 2 and main_key in sel_dirs
    assert main_sel.read_bytes() == selected
    warm_reports = (_hash_dir(tmp_path / "warm" / "ws", "transfer") / "reports.json").read_bytes()
    assert transfer_calls(warm) == 0
    assert (_hash_dir(tmp_path / "warm" / "ws", "transfer")
            / "reports.json").read_bytes() == warm_reports

    # a cold transfer tunes both domains, reports the same bytes, and writes
    # the main key's selection exactly as select does
    assert transfer_calls(cold) == 2 * n_tau
    assert (_hash_dir(tmp_path / "cold" / "ws", "transfer")
            / "reports.json").read_bytes() == warm_reports
    cold_sel = tmp_path / "cold" / "ws" / "selection" / main_key
    assert (cold_sel / "selection.json").read_bytes() == selected
    top = (main_sel.parent / "top_features.csv").read_bytes()
    assert (cold_sel / "top_features.csv").read_bytes() == top
    assert run_cli("select", "--config", str(cold)) == 0
    assert (cold_sel / "selection.json").read_bytes() == selected


def test_transfer_domain_reads_extracted_features(tmp_path, monkeypatch):
    calls = {"generate": 0}
    monkeypatch.setattr(synth, "generate", _counting(calls, "generate", synth.generate))
    extra = dict(
        transfer={"model_family": "qknn", "budget": 2, "seeds": [0],
                  # domain A merges to the main synth config, B does not
                  "domain_a": {"name": "A", "synth": {"liquidity": 15.0}},
                  "domain_b": {"name": "B", "synth": {"liquidity": 25.0}}},
        selector={"alpha_grid_size": 3, "max_iter": 200, "stages": 2},
    )
    (tmp_path / "warm").mkdir()
    (tmp_path / "cold").mkdir()
    warm = write_cfg(tmp_path / "warm", **extra)
    cold = write_cfg(tmp_path / "cold", **extra)

    # after extract, only domain B is generated; nothing is written for it
    assert run_cli("extract", "--config", str(warm)) == 0
    calls["generate"] = 0
    assert run_cli("transfer", "--config", str(warm)) == 0
    assert calls["generate"] == 1
    assert len(list((tmp_path / "warm" / "ws" / "features").iterdir())) == 1

    calls["generate"] = 0
    assert run_cli("transfer", "--config", str(cold)) == 0
    assert calls["generate"] == 2
    assert not (tmp_path / "cold" / "ws" / "features").exists()
    reports = [(_hash_dir(tmp_path / side / "ws", "transfer") / "reports.json").read_bytes()
               for side in ("warm", "cold")]
    assert reports[0] == reports[1]


COMMAND_NAMES = ("synth", "extract", "select", "train", "evaluate", "transfer")


@pytest.mark.parametrize("field,extra", [
    ("jobs", {"jobs": "x"}),
    ("train_end", {"train_end": "2024-03-07T00:00:00"}),
    ("selector.kappa", {"selector": {"kappa": "abc"}}),
    ("selector.alpha_grid_size", {"selector": {"alpha_grid_size": "x"}}),
    ("seeds", {"seeds": 3}),
    ("seed", {"seed": "x"}),
    ("model.family", {"model": {"family": "nope"}}),
    ("quantiles", {"quantiles": [0.1, 0.9]}),
    ("model.search_budget", {"model": {"search_budget": 0}}),
    ("selector.top_k", {"selector": {"top_k": 0}, "model": {"feature_set": "top5"}}),
    ("transfer.feature_mode", {"transfer": {"feature_mode": "bogus"}}),
    ("transfer.model_family", {"transfer": {"model_family": "nope"}}),
    ("transfer.budget", {"transfer": {"budget": 0}}),
    ("transfer.seeds", {"transfer": {"seeds": 3}}),
    ("transfer.domain_b.synth",
     {"transfer": {"domain_b": {"synth": {"liquidity": -1}}}}),
    ("model.config", {"model": {"config": {"bogus": 1}}}),
    ("transfer.model_config", {"transfer": {"model_config": {"bogus": 1}}}),
    ("synth.session_hours", {"synth": {"session_hours": 0.2}}),
    ("transfer.domain_b.synth",
     {"transfer": {"domain_b": {"synth": {"session_hours": 0.3}}}}),
    ("model.config.solver",
     {"model": {"family": "lqr", "config": {"solver": {"bogus": 1}}}}),
], ids=lambda v: v if isinstance(v, str) else None)
def test_bad_config_exits_2_before_any_work(tmp_path, capsys, monkeypatch, field, extra):
    calls = {"generate": 0, "build_samples": 0, "tune_alpha": 0}
    monkeypatch.setattr(synth, "generate", _counting(calls, "generate", synth.generate))
    monkeypatch.setattr(market, "build_samples",
                        _counting(calls, "build_samples", market.build_samples))
    monkeypatch.setattr(transfer, "tune_alpha",
                        _counting(calls, "tune_alpha", transfer.tune_alpha))
    cfg = write_cfg(tmp_path, **extra)
    for command in COMMAND_NAMES:
        assert run_cli(command, "--config", str(cfg)) == 2, command
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"'{field}" in err, err
        assert "Traceback" not in err
    assert calls == {"generate": 0, "build_samples": 0, "tune_alpha": 0}
    assert not (tmp_path / "ws").exists()


def test_model_config_checks_keys_not_values(tmp_path, capsys):
    # the search overrides the keys it samples, so a bad value is not a
    # config error; a key the family's constructor lacks, or one the run
    # sets itself, is
    run = Run(load_config(str(write_cfg(tmp_path, model={"config": {"n_neighbors": 0}})), {}))
    assert run.model_config == {"n_neighbors": 0}
    for key in ("bogus", "seed", "quantiles"):
        cfg = write_cfg(tmp_path, model={"config": {key: 1}})
        assert run_cli("train", "--config", str(cfg)) == 2
        err = capsys.readouterr().err
        assert "'model.config'" in err and f"['{key}']" in err, err


def test_lqr_solver_mapping_trains(tmp_path):
    cfg = write_cfg(tmp_path, model={"family": "lqr",
                                     "config": {"solver": {"max_iter": 50, "stages": 1}}})
    assert run_cli("train", "--config", str(cfg)) == 0
    trials = (_hash_dir(tmp_path / "ws", "models") / "trials_seed0.jsonl").read_text()
    assert [json.loads(line)["status"] for line in trials.splitlines()] == ["ok", "ok"]


def test_readme_config_loads_with_unquoted_timestamps(tmp_path):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```yaml\n(.*?)```", text, re.S).group(1)
    quoted = re.sub(r"(\d{4}-\d\d-\d\dT[\d:]+)", r'"\1"', block)
    assert quoted != block
    keys = []
    for name, body in (("plain.yaml", block), ("quoted.yaml", quoted)):
        (tmp_path / name).write_text(body, encoding="utf-8")
        keys.append(Run(load_config(str(tmp_path / name), {})).keys)
    assert keys[0] == keys[1]
