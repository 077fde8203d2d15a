"""Per-layer metrics of one traced operation, derived from its spans.

Times are in ms. ``<layer>.self_ms`` is the sum of the self times of the
layer's spans; the named stage metrics (``context.relations.ms`` and so on)
are inclusive times of the outermost matching calls. Stage FLOPs come from
``SegmentationModel.flop_breakdown``; tensor-op FLOPs are 2*m*k*n from the
operand shapes; bytes are computed from output array sizes.
"""
from __future__ import annotations

from tracer import BENCH, LAYERS

NS_PER_MS = 1e6

LAYOUT = {"reshape", "transpose", "concat0"}
GEMM = {"matmul", "conv1x1"}
ELEMENTWISE = {"add_col", "mul_col", "mul", "add", "scale", "relu"}
BACKWARD = {"backward", "GradTape.run", "Tensor.backward"}
NOT_OPS = {"backward", "zero_grads", "tracked_alloc_stats"}
TRANSFORMS = {"TransformBlock.__call__", "Conv3x3Block.__call__"}

# context stage -> (context functions, flop_breakdown keys)
REGION_SCHEMES = ("ocr", "da", "acf")
FUSE_SCHEMES = ("ocr", "da", "acf", "self_attn", "global")
STAGES = {
    "soft_regions": ({"compute_soft_regions"},
                     ("region_head", "region_softmax", "da_maps")),
    "region_pool": ({"region_representations"}, ("region_pool",)),
    "relations": ({"pixel_region_relations", "da_scheme_relations",
                   "acf_scheme_relations"},
                  ("pixel_keys", "region_keys", "relation_logits",
                   "relation_softmax", "relation_predictor")),
    "aggregate": ({"ocr_aggregate"}, ("region_values", "aggregation",
                                      "output_transform")),
    "fuse": ({"augment"}, ("fuse",)),
}
BASELINES = {"self_attention": "self_attention_context", "aspp": "aspp_lite",
             "ppm": "ppm_lite", "global": "global_context"}


def is_tensor_op(layer: str, qual: str) -> bool:
    return layer == "tensor" and "." not in qual and qual not in NOT_OPS


def stage_flops(forwards: dict) -> dict[str, int]:
    """FLOPs of each context stage over one forward of every head."""
    out = dict.fromkeys(STAGES, 0)
    for scheme, (model, h, w) in forwards.items():
        breakdown = model.flop_breakdown(h, w)
        for stage, (_, keys) in STAGES.items():
            if scheme in (FUSE_SCHEMES if stage == "fuse" else REGION_SCHEMES):
                out[stage] += sum(breakdown.get(k, 0) for k in keys)
    return out


def _gflops(flops: float, ns: float) -> float:
    return flops / ns if ns > 0 else 0.0


def op_metrics(table, op_id: int, forwards: dict, flops_by_stage: dict,
               model_flops: dict, roofline: float) -> dict[str, float]:
    """Per-layer metrics of the traced operation ``op_id``."""
    t = table.t
    idxs = table.spans_of_op(op_id)
    root = next(i for i in idxs if table.qual[i] == "op" and table.layer[i] == BENCH)
    wall = table.dur[root]
    qual, layer, self_ns, dur = table.qual, table.layer, table.self_ns, table.dur

    def self_ms(names, lay="tensor"):
        return sum(self_ns[i] for i in idxs
                   if layer[i] == lay and qual[i] in names) / NS_PER_MS

    def incl_ns(names):
        return sum(dur[i] for i in table.outermost(idxs, names))

    m: dict[str, float] = {}
    layer_self = {lay: sum(self_ns[i] for i in idxs if layer[i] == lay)
                  for lay in LAYERS}
    for lay, ns in layer_self.items():
        m[f"{lay}.self_ms"] = ns / NS_PER_MS
    m["trace.layer_self_share"] = sum(layer_self.values()) / wall
    m["trace.op_ms"] = wall / NS_PER_MS

    ops = [i for i in idxs if is_tensor_op(layer[i], qual[i])]
    gemm = [i for i in ops if qual[i] in GEMM]
    gemm_ns = sum(self_ns[i] for i in gemm)
    m["tensor.layout.ms"] = self_ms(LAYOUT)
    m["tensor.gemm.ms"] = gemm_ns / NS_PER_MS
    m["tensor.gemm.gflops"] = _gflops(sum(t.flops[i] for i in gemm), gemm_ns)
    m["tensor.gemm.roofline_frac"] = m["tensor.gemm.gflops"] / roofline
    m["tensor.elementwise.ms"] = self_ms(ELEMENTWISE)
    m["tensor.conv_spatial.ms"] = self_ms({"conv_spatial"})
    m["tensor.softmax.ms"] = self_ms({"softmax_rows"})
    m["tensor.backward.ms"] = self_ms(BACKWARD)
    m["tensor.ops_per_op"] = len(ops)
    m["tensor.bytes_out"] = sum(t.nbytes[i] for i in ops)

    kids = table.children(idxs)
    blocks = table.outermost(idxs, TRANSFORMS)
    pointwise = [i for i in idxs if qual[i] == "TransformBlock.__call__"
                 and (t.parent[i] < 0 or qual[t.parent[i]] != "Conv3x3Block.__call__")]
    m["blocks.transform.ms"] = sum(dur[i] for i in blocks) / NS_PER_MS
    m["blocks.transform.ops_per_call"] = (
        sum(1 for b in pointwise for c in kids.get(b, ())
            if is_tensor_op(layer[c], qual[c])) / len(pointwise)) if pointwise else 0.0
    m["blocks.head.ms"] = incl_ns({"Conv1x1Head.__call__"}) / NS_PER_MS
    m["blocks.sgd_step.ms"] = incl_ns({"Sgd.step"}) / NS_PER_MS

    model_forwards = {qual[i] for i in idxs
                      if layer[i] == "models" and qual[i].endswith(".forward")}
    n_forwards = len(table.outermost(idxs, model_forwards))
    per_set = n_forwards / max(1, len(forwards))
    for stage, (names, _) in STAGES.items():
        ns = incl_ns(names)
        m[f"context.{stage}.ms"] = ns / NS_PER_MS
        m[f"context.{stage}.gflops"] = _gflops(flops_by_stage[stage] * per_set, ns)
    for metric, fn in BASELINES.items():
        m[f"context.{metric}.ms"] = incl_ns({fn}) / NS_PER_MS
    m["context.glue.ms"] = layer_self["context"] / NS_PER_MS

    heads = [i for i in idxs if layer[i] == BENCH and qual[i].startswith("head:")]
    if heads:
        owner: dict[int, int] = {}
        for i in idxs:
            p = t.parent[i]
            owner[i] = i if i in heads else owner.get(p, -1)
        for h in heads:
            scheme = qual[h].split(":", 1)[1]
            ms = dur[h] / NS_PER_MS
            m[f"models.{scheme}.forward_ms"] = ms
            m[f"models.{scheme}.gflops"] = model_flops[scheme] / (ms * 1e6)
            m[f"models.{scheme}.ops_per_forward"] = sum(
                1 for i in ops if owner[i] == h)
    else:
        fwd = table.outermost(idxs, model_forwards)
        for scheme in forwards:
            ms = sum(dur[i] for i in fwd) / NS_PER_MS / max(1, len(fwd))
            m[f"models.{scheme}.forward_ms"] = ms
            m[f"models.{scheme}.gflops"] = model_flops[scheme] / (ms * 1e6)

    m["supervision.loss.ms"] = incl_ns({"combined_loss"}) / NS_PER_MS
    m["train.train_model.ms"] = incl_ns({"train_model"}) / NS_PER_MS
    m["train.evaluate_model.ms"] = incl_ns({"evaluate_model"}) / NS_PER_MS
    m["train.checkpoint.ms"] = incl_ns({"save_checkpoint", "load_checkpoint"}) / NS_PER_MS
    return m


def setup_metrics(table, op_id: int) -> dict[str, float]:
    """Data-layer times of one traced set-up."""
    idxs = table.spans_of_op(op_id)
    dur = table.dur

    def incl(names):
        return sum(dur[i] for i in table.outermost(idxs, names)) / NS_PER_MS

    return {"data.scenes.ms": incl({"generate_scenes", "generate_scene"}),
            "data.features.ms": incl({"scene_features", "lift_weights",
                                      "scene_label_map"})}
