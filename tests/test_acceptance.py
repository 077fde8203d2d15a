"""Acceptance gate: every required behavior of the package, each test run at
its stated tolerance and time budget and reporting one visible pass line."""
import json
import os
import time
from dataclasses import replace

import numpy as np

import ocrseg.tensor as T
from ocrseg.blocks import Conv1x1Head
from ocrseg.checks import run_equivalence_suite, run_gradient_suite
from ocrseg.cli import cli_main
from ocrseg.config import RunConfig
from ocrseg.context import (FeatureMap, augment, compute_soft_regions,
                            ocr_aggregate, pixel_region_relations,
                            region_representations)
from ocrseg.data import generate_scenes
from ocrseg.models import MODULE_CHOICES, ModelConfig, build_model
from ocrseg.profiler import BenchConfig, bench_report
from ocrseg.supervision import LabelMap
from ocrseg.train import (evaluate_model, prepare_features, run_ablation,
                          train_model)

import oracles
from conftest import identity_block, quadratic_share


def _emit(capsys, name, detail, elapsed, budget=None):
    if budget is not None:
        assert elapsed < budget, f"{name} took {elapsed:.1f}s, budget {budget}s"
        tail = f"{elapsed:.1f}s < {budget:.0f}s"
    else:
        tail = f"{elapsed:.1f}s"
    with capsys.disabled():
        print(f"\n[PASS] {name}: {detail} [{tail}]")


# ---------------------------------------------------------------------------
# probability-simplex property over randomized instances


def test_simplex_rows_are_distributions(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(20240)
    worst = 0.0
    rows_checked = 0

    def check(mat):
        nonlocal worst, rows_checked
        assert mat.min() >= 0.0
        dev = float(np.abs(mat.sum(axis=1) - 1.0).max())
        assert dev <= 1e-9
        worst = max(worst, dev)
        rows_checked += mat.shape[0]

    for i in range(1000):
        h = int(rng.integers(1, 17))
        w = int(rng.integers(1, 17))
        k = int(rng.integers(1, 9))
        c = int(rng.integers(2, 7))
        x = FeatureMap(T.Tensor(rng.normal(0.0, 3.0, (c, h, w))))
        head = Conv1x1Head.create(rng, c, k)
        regions = compute_soft_regions(head(x.pixels()))
        check(regions.normalized.data)
        reps = region_representations(T.transpose(x.pixels()), regions)
        scale = 1.0 if i % 2 == 0 else 1.0 / float(np.sqrt(c))
        rel = pixel_region_relations(x, reps, identity_block(c), scale)
        check(rel.weights.data)
        queries = T.Tensor(rng.normal(size=(int(rng.integers(1, 6)), c)))
        keys = T.Tensor(rng.normal(size=(k, c)))
        rng.normal(size=(k, 2))  # an unread values draw; it keeps the seeded instances fixed
        att = T.softmax_rows(T.matmul(queries, T.transpose(keys)), scale)
        check(att.data)

    _emit(capsys, "simplex suite",
          f"{rows_checked} rows over 1000 instances, max |sum-1| = {worst:.2e}",
          time.perf_counter() - start, budget=10.0)


# ---------------------------------------------------------------------------
# analytic gradients against central finite differences


def test_analytic_gradients_match_finite_differences(capsys):
    start = time.perf_counter()
    report = run_gradient_suite(instances=50, seed=0)
    assert report.passed, report.summary()
    assert report.max_rel_error < 1e-4
    _emit(capsys, "gradient suite",
          f"50 instances, max rel error {report.max_rel_error:.2e} < 1e-4",
          time.perf_counter() - start, budget=60.0)


# ---------------------------------------------------------------------------
# attention-form rewrite agrees with the context pipeline


def test_attention_form_matches_context_form(capsys):
    start = time.perf_counter()
    report = run_equivalence_suite(instances=100, seed=0)
    assert report.all_mapped_passed, report.summary()
    assert report.max_discrepancy <= 1e-10
    # the deliberately mis-scaled control must be caught, not pass silently
    assert not report.control.passed
    assert "scale mismatch" in report.control.detail
    assert report.passed
    _emit(capsys, "formulation equivalence",
          f"100 mapped instances agree to {report.max_discrepancy:.2e} "
          f"(tolerance 1e-10); scale-mismatch control detected",
          time.perf_counter() - start, budget=30.0)


# ---------------------------------------------------------------------------
# every module's forward against brute-force loop compositions


def _block3x3_loops(block, x):
    conv = oracles.conv_spatial_loops(x, block.weight.data, dilation=1)
    flat = conv.reshape(conv.shape[0], -1)
    out = oracles.transform_loops(flat, np.eye(conv.shape[0]),
                                  block.bn_scale.data, block.bn_shift.data)
    return out.reshape(conv.shape)


def _head_loops(head, x):
    bias = None if head.bias is None else head.bias.data
    return oracles.conv1x1_loops(x, head.weight.data, bias)


def _ocr_family_oracle(model, x_arr, labels):
    p = model.params
    cfg = model.cfg
    c, h, w = x_arr.shape
    n = h * w
    raw = x_arr.reshape(c, n)
    feats = raw if p.stem is None else \
        _block3x3_loops(p.stem, x_arr).reshape(-1, n)

    if cfg.module == "gt_ocr":
        flat = labels.flat
        normalized = oracles.gt_region_rows_loops(flat, cfg.num_classes)
        relations = oracles.one_hot_rows_loops(flat, cfg.num_classes)
        aux = None
    else:
        region_logits = _head_loops(p.region_head, raw)
        normalized = oracles.softmax_rows_loops(region_logits)
        aux = region_logits
    reps = oracles.region_reps_loops(normalized, feats.T)

    if cfg.module == "gt_ocr":
        pass  # one-hot relations already built
    elif cfg.module == "ocr":
        q = oracles.apply_block_loops(p.pixel_transform, feats)
        rk = oracles.apply_block_loops(p.region_transform, reps.T)
        relations = oracles.relations_loops(q, rk, p.config.relation_scale)
    elif cfg.module == "da":
        logits = _head_loops(p.da_predictor, feats)
        relations = oracles.softmax_rows_loops(logits.T)
    else:  # acf reads relations off the classifier posterior
        relations = oracles.softmax_rows_loops(region_logits.T)

    vals = oracles.apply_block_loops(p.value_transform, reps.T)
    y = oracles.aggregate_loops(relations, vals.T)
    y = oracles.apply_block_loops(p.output_transform, y.T)
    z = oracles.apply_block_loops(p.fuse_transform,
                                  np.concatenate([feats, y], axis=0))
    return _head_loops(model.final_head, z), aux


def _self_attn_oracle(model, x_arr):
    stage = model.stage
    c, h, w = x_arr.shape
    n = h * w
    feats = x_arr.reshape(c, n) if stage.stem is None else \
        _block3x3_loops(stage.stem, x_arr).reshape(-1, n)
    q = oracles.apply_block_loops(stage.pixel_transform, feats)
    k = oracles.apply_block_loops(stage.context_transform, feats)
    weights = oracles.relations_loops(q, k, stage.config.relation_scale)
    vals = oracles.apply_block_loops(stage.value_transform, feats)
    ctx = oracles.aggregate_loops(weights, vals.T)
    y = oracles.apply_block_loops(stage.output_transform, ctx.T)
    z = oracles.apply_block_loops(stage.fuse_transform,
                                  np.concatenate([feats, y], axis=0))
    return _head_loops(model.final_head, z), None


def _global_oracle(model, x_arr):
    stage = model.stage
    c, h, w = x_arr.shape
    n = h * w
    feats = x_arr.reshape(c, n) if stage.stem is None else \
        _block3x3_loops(stage.stem, x_arr).reshape(-1, n)
    vals = oracles.apply_block_loops(stage.value_transform, feats)
    pooled = np.zeros((vals.shape[0], 1))
    for ch in range(vals.shape[0]):
        acc = 0.0
        for p in range(n):
            acc += float(vals[ch, p])
        pooled[ch, 0] = acc / n
    y = oracles.apply_block_loops(stage.output_transform, pooled)
    y = np.repeat(y, n, axis=1)
    z = oracles.apply_block_loops(stage.fuse_transform,
                                  np.concatenate([feats, y], axis=0))
    return _head_loops(model.final_head, z), None


def _aspp_oracle(model, x_arr):
    stage = model.stage
    branches = [oracles.conv_spatial_loops(x_arr, kern.data, dilation=rate)
                for rate, kern in stage.branches]
    cat = np.concatenate(branches, axis=0)
    flat = cat.reshape(cat.shape[0], -1)
    return _head_loops(model.final_head, flat), None


def _ppm_oracle(model, x_arr):
    stage = model.stage
    c, h, w = x_arr.shape
    outs = [x_arr]
    for b, proj in zip(stage.bins, stage.projections):
        pooled = oracles.avg_pool_loops(x_arr, b, b)
        projected = _head_loops(proj, pooled.reshape(c, b * b))
        projected = projected.reshape(-1, b, b)
        outs.append(oracles.upsample_nearest_loops(projected, h, w))
    cat = np.concatenate(outs, axis=0)
    z = _block3x3_loops(stage.fuse, cat).reshape(model.cfg.mid_channels, -1)
    return _head_loops(model.final_head, z), None


def _forward_oracle(model, x_arr, labels):
    name = model.cfg.module
    if name in ("ocr", "da", "acf", "gt_ocr"):
        return _ocr_family_oracle(model, x_arr, labels)
    if name == "self_attn":
        return _self_attn_oracle(model, x_arr)
    if name == "global":
        return _global_oracle(model, x_arr)
    if name == "aspp_lite":
        return _aspp_oracle(model, x_arr)
    return _ppm_oracle(model, x_arr)


def test_module_outputs_match_loop_oracles(capsys):
    start = time.perf_counter()
    stage_tol = 1e-12
    composed_tol = 1e-10
    sizes = ((2, 2, 2, 11), (3, 4, 3, 12), (4, 4, 4, 13))
    worst = 0.0
    count = 0

    for module in MODULE_CHOICES:
        for h, w, k, seed in sizes:
            cfg = ModelConfig(module=module, in_channels=5, num_classes=k,
                              key_channels=3, mid_channels=4, seed=seed,
                              ppm_bins=(1, 2))
            model = build_model(cfg, image_size=h)
            rng = np.random.default_rng(np.random.SeedSequence((seed, h, w)))
            x_arr = rng.normal(0.0, 1.5, (5, h, w))
            arr = rng.integers(0, k, size=(h, w)).astype(np.int64)
            if h == 4:
                arr[0, 0] = 255  # one ignored pixel
            labels = LabelMap(arr, k)
            out = model.forward(FeatureMap(T.Tensor(x_arr)), labels)
            want_final, want_aux = _forward_oracle(model, x_arr, labels)
            diff = float(np.abs(out.final_logits.data - want_final).max())
            assert diff <= composed_tol, f"{module} {h}x{w}: {diff:.2e}"
            worst = max(worst, diff)
            if want_aux is None:
                assert out.aux_logits is None
            else:
                assert float(np.abs(out.aux_logits.data - want_aux).max()) \
                    <= composed_tol
            count += 1

    # individual stages of the learned-relation pipeline, tighter tolerance
    cfg = ModelConfig(module="ocr", in_channels=5, num_classes=4,
                      key_channels=3, mid_channels=4, seed=13)
    model = build_model(cfg, image_size=4)
    p = model.params
    rng = np.random.default_rng(77)
    x_arr = rng.normal(0.0, 1.5, (5, 4, 4))
    x = FeatureMap(T.Tensor(x_arr))

    regions = compute_soft_regions(p.region_head(x.pixels()))
    want_norm = oracles.softmax_rows_loops(
        _head_loops(p.region_head, x_arr.reshape(5, 16)))
    assert float(np.abs(regions.normalized.data - want_norm).max()) <= stage_tol

    feats = FeatureMap(p.stem(x.tensor))
    want_feats = _block3x3_loops(p.stem, x_arr)
    assert float(np.abs(feats.tensor.data - want_feats).max()) <= stage_tol
    feats_flat = want_feats.reshape(-1, 16)

    reps = region_representations(T.transpose(feats.pixels()), regions)
    want_reps = oracles.region_reps_loops(want_norm, feats_flat.T)
    assert float(np.abs(reps.data - want_reps.T).max()) <= stage_tol

    relations = pixel_region_relations(feats, p.region_transform(reps),
                                       p.pixel_transform, p.config.relation_scale)
    want_rel = oracles.relations_loops(
        oracles.apply_block_loops(p.pixel_transform, feats_flat),
        oracles.apply_block_loops(p.region_transform, want_reps.T),
        p.config.relation_scale)
    assert float(np.abs(relations.weights.data - want_rel).max()) <= stage_tol

    y = ocr_aggregate(relations, p.value_transform(reps), p.output_transform)
    want_y = oracles.apply_block_loops(
        p.output_transform,
        oracles.aggregate_loops(
            want_rel, oracles.apply_block_loops(p.value_transform,
                                                want_reps.T).T).T)
    assert float(np.abs(y.data - want_y).max()) <= stage_tol

    z = augment(feats, y, p.fuse_transform)
    want_z = oracles.apply_block_loops(
        p.fuse_transform, np.concatenate([feats_flat, want_y], axis=0))
    assert float(np.abs(z.data - want_z).max()) <= stage_tol

    _emit(capsys, "oracle equivalence",
          f"{count} composed forwards across {len(MODULE_CHOICES)} modules "
          f"within {composed_tol:.0e} (max {worst:.2e}); six stages "
          f"within {stage_tol:.0e}",
          time.perf_counter() - start, budget=30.0)


# ---------------------------------------------------------------------------
# oracle regions bound what the learned-region model can reach


def _default_pairs(cfg):
    train = generate_scenes(cfg.seed, cfg.train_scenes, cfg.grid, cfg.classes,
                            cfg.noise, cfg.jitter, cfg.shapes_min,
                            cfg.shapes_max, cfg.ignore_fraction, stream=0)
    eval_scenes = generate_scenes(cfg.seed, cfg.eval_scenes, cfg.grid,
                                  cfg.classes, cfg.noise, cfg.jitter,
                                  cfg.shapes_min, cfg.shapes_max,
                                  cfg.ignore_fraction, stream=1)
    return prepare_features(train, cfg), prepare_features(eval_scenes, cfg)


def test_oracle_regions_bound_learned_quality(capsys):
    start = time.perf_counter()
    cfg = RunConfig(iterations=500)
    train_pairs, eval_pairs = _default_pairs(cfg)
    acc = {}
    for module in ("gt_ocr", "ocr"):
        model, _ = train_model(replace(cfg, module=module), train_pairs)
        acc[module] = evaluate_model(model, eval_pairs).pixel_accuracy
    assert acc["gt_ocr"] >= 0.99, acc
    assert acc["gt_ocr"] > acc["ocr"], acc
    _emit(capsys, "oracle-region quality",
          f"oracle-region accuracy {acc['gt_ocr']:.4f} >= 0.99 and above "
          f"learned-region {acc['ocr']:.4f} after 500 iterations",
          time.perf_counter() - start, budget=300.0)


# ---------------------------------------------------------------------------
# supervision and relation-scheme comparison directions over seeds


def test_supervision_and_scheme_directions(capsys):
    start = time.perf_counter()
    sup_wins = 0
    scheme_wins = 0
    da_reported = 0
    for seed in (0, 1, 2):
        cfg = RunConfig(seed=seed)
        train_pairs, eval_pairs = _default_pairs(cfg)
        cells = {(c.scheme, c.aux_supervision): c
                 for c in run_ablation(cfg, train_pairs, eval_pairs)}
        assert len(cells) == 6
        if cells[("ocr", True)].mean_iou >= cells[("ocr", False)].mean_iou:
            sup_wins += 1
        if cells[("ocr", True)].mean_iou >= cells[("acf", True)].mean_iou:
            scheme_wins += 1
        if all(cells[("da", aux)].mean_iou is not None
               for aux in (True, False)):
            da_reported += 1
    assert sup_wins >= 2, f"supervision helped in only {sup_wins}/3 seeds"
    assert scheme_wins >= 2, f"ocr beat acf in only {scheme_wins}/3 seeds"
    assert da_reported == 3
    _emit(capsys, "comparison directions",
          f"with-supervision >= without in {sup_wins}/3 seeds, learned "
          f"relations >= classifier relations in {scheme_wins}/3 seeds, "
          f"predicted-relation scheme reported in 3/3",
          time.perf_counter() - start, budget=900.0)


# ---------------------------------------------------------------------------
# analytic cost rank at full scale plus measured memory/time directions


def test_cost_rank_and_measured_budget(capsys):
    start = time.perf_counter()
    measured, extras, errors = bench_report(BenchConfig())
    assert errors == {}
    assert extras["verdicts"]["full_scale_flops_rank_matches_expected"]
    full = {r.module: r.flops for r in extras["full_scale"]}
    assert full["da"] <= full["ocr"] <= full["aspp_lite"]
    assert full["ocr"] <= full["self_attn"] and full["ocr"] <= full["ppm_lite"]
    assert full["ocr"] <= 1.1 * full["da"]
    by = {r.module: r for r in measured}
    assert by["ocr"].peak_bytes < by["self_attn"].peak_bytes
    assert extras["verdicts"]["ocr_peak_below_ppm_lite"]
    assert by["ocr"].wall_ms < by["self_attn"].wall_ms
    _emit(capsys, "cost rank and budget",
          f"full-scale GFLOPs da {full['da'] / 1e9:.1f} <= "
          f"ocr {full['ocr'] / 1e9:.1f} (within 10%) < "
          f"self_attn {full['self_attn'] / 1e9:.1f}; measured at 256x64x64 "
          f"peak {by['ocr'].peak_bytes / 1e6:.0f}MB < "
          f"{by['self_attn'].peak_bytes / 1e6:.0f}MB and "
          f"{by['ocr'].wall_ms:.0f}ms < {by['self_attn'].wall_ms:.0f}ms",
          time.perf_counter() - start, budget=120.0)


def test_flop_growth_orders(capsys):
    start = time.perf_counter()
    share_ocr, resid_ocr = quadratic_share("ocr", sides=(64, 128, 256))
    share_sa, resid_sa = quadratic_share("self_attn", sides=(64, 128, 256))
    assert share_ocr < 0.01, share_ocr
    assert share_sa > 0.90, share_sa
    assert max(resid_ocr, resid_sa) < 1e-6
    _emit(capsys, "flop growth orders",
          f"quadratic share over N in (4096, 16384, 65536): "
          f"region context {share_ocr:.4f} < 1%, dense attention "
          f"{share_sa:.4f} > 90%",
          time.perf_counter() - start)


# ---------------------------------------------------------------------------
# byte-identical outputs across repeated runs


def _masked_tree(root):
    """All output bytes under root, with wall-clock fields and the verdicts
    that compare them blanked."""
    out = {}
    for base, _, files in os.walk(root):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as f:
                blob = f.read()
            if name == "bench.json":
                payload = json.loads(blob.decode())
                for row in payload["measured"]:
                    row["wall_ms"] = row["wall_ms_spread"] = None
                payload["timing_verdicts"] = None
                blob = json.dumps(payload, sort_keys=True).encode()
            out[os.path.relpath(path, root)] = blob
    return out


def test_cli_runs_are_reproducible(tmp_path, capsys):
    start = time.perf_counter()

    def full_run(base):
        sets = [f"--set={k}={v}" for k, v in dict(
            grid=12, classes=3, train_scenes=4, eval_scenes=3, iterations=8,
            feat_channels=6, key_channels=4, mid_channels=8,
            bench_size=8,
            equiv_instances=3, grad_instances=2,
            data_dir=str(base / "data"), out_dir=str(base / "out")).items()]
        for cmd in ("gen-data", "train", "ablate", "bench",
                    "equiv-check", "grad-check"):
            assert cli_main([cmd] + sets) == 0, cmd
        return _masked_tree(base)

    first = full_run(tmp_path / "a")
    second = full_run(tmp_path / "b")
    capsys.readouterr()
    assert sorted(first) == sorted(second)
    for name in first:
        assert first[name] == second[name], f"{name} differs between runs"
    assert any(n.endswith(".ppm") for n in first)
    assert "out/checkpoint.ckpt" in first
    _emit(capsys, "reproducible runs",
          f"two full runs produced {len(first)} byte-identical outputs "
          f"(wall-clock fields excluded)",
          time.perf_counter() - start)
