#include "graph/lowering.hpp"

#include <limits>
#include <map>
#include <optional>

#include "graph/scheduler.hpp"
#include "sa/latency_model.hpp"
#include "util/bits.hpp"

namespace maco::graph {

namespace {

[[noreturn]] void fail(const std::string& what) { throw GraphError(what); }

// FLOP and byte counts grow as products of manifest dimensions, so they
// are computed overflow-checked: a count that does not fit in 64 bits
// fails naming its op instead of wrapping to a plausible small number.
std::uint64_t checked(const std::string& op, const char* what,
                      std::optional<std::uint64_t> value) {
  if (!value) fail("op '" + op + "': " + what + " overflows 64 bits");
  return *value;
}

std::uint64_t product(const std::string& op, const char* what,
                      std::initializer_list<std::uint64_t> factors) {
  return checked(op, what, util::checked_product(factors));
}

std::uint64_t sum(const std::string& op, const char* what, std::uint64_t a,
                  std::uint64_t b) {
  return checked(op, what, util::checked_add(a, b));
}

// Carries the resolved dims and the growing layer list through the
// per-kind lowering rules.
class Lowerer {
 public:
  Lowerer(const ModelGraph& graph, const LoweringOptions& options)
      : graph_(graph), options_(options) {
    model_.phase = options.phase;
    model_.batch =
        options.batch != 0 ? options.batch : graph.default_batch;
    model_.seq_len =
        options.seq_len != 0 ? options.seq_len : graph.default_seq_len;
    model_.tokens = options.phase == Phase::kPrefill
                        ? model_.batch * model_.seq_len
                        : model_.batch;
    model_.workload.name = graph.name;
    model_.workload.precision = graph.precision;
  }

  LoweredModel run() {
    for (const std::size_t index : topological_order(graph_)) {
      lower_op(graph_.ops[index]);
    }
    std::uint64_t total_flops = 0;
    for (const OpContribution& op : model_.ops) {
      total_flops = sum(op.op, "the model's FLOP total", total_flops,
                        op.flops);
      model_.total_bytes = sum(op.op, "the model's byte total",
                               model_.total_bytes, op.bytes);
    }
    for (OpContribution& op : model_.ops) {
      op.flops_frac = total_flops > 0
                          ? static_cast<double>(op.flops) /
                                static_cast<double>(total_flops)
                          : 0.0;
    }
    return std::move(model_);
  }

 private:
  std::uint64_t resolve(const Dim& dim) const {
    switch (dim.symbol) {
      case DimSymbol::kLiteral: return dim.value;
      case DimSymbol::kBatch: return model_.batch;
      case DimSymbol::kSeq: return model_.seq_len;
      case DimSymbol::kTokens: return model_.tokens;
    }
    return 0;
  }

  const TensorDecl& tensor(const std::string& name) const {
    const TensorDecl* t = graph_.find_tensor(name);
    if (t == nullptr) fail("undeclared tensor '" + name + "'");
    return *t;
  }

  std::uint64_t elements(const TensorDecl& t) const {
    std::uint64_t count = 1;
    for (const Dim& dim : t.dims) {
      count = product(current_->op, "tensor element count",
                      {count, resolve(dim)});
    }
    return count;
  }

  // Appends one GEMM layer and charges it to the current contribution.
  void emit(std::string name, const sa::TileShape& shape, wl::PostOp post,
            std::uint64_t repeat) {
    const std::string& op = current_->op;
    if (repeat > std::numeric_limits<unsigned>::max()) {
      fail("op '" + op + "': repeat count " + std::to_string(repeat) +
           " overflows");
    }
    const std::uint64_t ebytes =
        sa::element_bytes(model_.workload.precision);
    const std::uint64_t flops = product(
        op, "FLOP count", {2, shape.m, shape.n, shape.k, repeat});
    const std::uint64_t elems = sum(
        op, "byte count",
        sum(op, "byte count", product(op, "byte count", {shape.m, shape.k}),
            product(op, "byte count", {shape.k, shape.n})),
        product(op, "byte count", {shape.m, shape.n}));
    current_->flops = sum(op, "FLOP count", current_->flops, flops);
    current_->bytes =
        sum(op, "byte count", current_->bytes,
            product(op, "byte count", {elems, ebytes, repeat}));
    model_.workload.layers.push_back(
        wl::Layer{std::move(name), shape, post,
                  static_cast<unsigned>(repeat)});
  }

  // ---- the per-kind rules ----

  void lower_gemm(const OpDecl& op) {
    const TensorDecl& a = tensor(op.inputs[0]);
    const TensorDecl& b = tensor(op.inputs[1]);
    emit(op.name,
         sa::TileShape{resolve(a.dims[0]), resolve(b.dims[1]),
                       resolve(a.dims[1])},
         op.attrs.post, op.repeat);
  }

  void lower_linear(const OpDecl& op) {
    const TensorDecl& in = tensor(op.inputs[0]);
    emit(op.name,
         sa::TileShape{resolve(in.dims[0]), op.attrs.out_features,
                       in.dims[1].value},
         op.attrs.post, op.repeat);
  }

  void lower_conv2d(const OpDecl& op) {
    const TensorDecl& in = tensor(op.inputs[0]);
    const TensorDecl& out = tensor(op.outputs[0]);
    // im2col: strides are folded into the declared output size.
    emit(op.name,
         sa::TileShape{op.attrs.out_channels,
                       model_.batch * out.dims[1].value * out.dims[2].value,
                       in.dims[0].value * op.attrs.kernel * op.attrs.kernel},
         op.attrs.post, op.repeat);
  }

  void lower_attention(const OpDecl& op) {
    const TensorDecl& in = tensor(op.inputs[0]);
    const std::uint64_t hidden = in.dims[1].value;
    const std::uint64_t heads = op.attrs.heads;
    const std::uint64_t head_dim = hidden / heads;
    const std::uint64_t rows = model_.tokens;
    // The attended span: prefill scores every token against the whole
    // token block (the paper's aggregate-GEMM simplification); decode
    // scores the one new token per sequence against seq_len cached keys.
    const std::uint64_t span = options_.phase == Phase::kPrefill
                                   ? model_.tokens
                                   : model_.seq_len;
    emit(op.name + ".qkv", sa::TileShape{rows, 3 * hidden, hidden},
         wl::PostOp::kBiasAdd, op.repeat);
    emit(op.name + ".scores", sa::TileShape{rows, span * heads, head_dim},
         wl::PostOp::kSoftmax, op.repeat);
    emit(op.name + ".context",
         sa::TileShape{rows, head_dim * heads, span}, wl::PostOp::kNone,
         op.repeat);
    emit(op.name + ".proj", sa::TileShape{rows, hidden, hidden},
         wl::PostOp::kLayerNorm, op.repeat);
  }

  void lower_moe(const OpDecl& op) {
    const TensorDecl& in = tensor(op.inputs[0]);
    const std::uint64_t hidden = in.dims[1].value;
    const std::uint64_t experts = op.attrs.experts;
    std::uint64_t top_k = op.attrs.top_k;
    if (top_k == 0) top_k = options_.moe_top_k;
    if (top_k == 0) top_k = 2;
    if (top_k > experts) {
      fail("op '" + op.name + "': moe_top_k " + std::to_string(top_k) +
           " exceeds experts " + std::to_string(experts));
    }
    // Router scores every token against every expert.
    emit(op.name + ".router", sa::TileShape{model_.tokens, experts, hidden},
         wl::PostOp::kSoftmax, op.repeat);
    // Top-k routing activates top_k experts per token; with balanced
    // routing each expert sees ceil(tokens*top_k/experts) tokens. The
    // expert GEMMs repeat `experts` times — the multiplicity the sampled
    // tile strata collapse and weight by.
    const std::uint64_t expert_tokens =
        (model_.tokens * top_k + experts - 1) / experts;
    const std::uint64_t expert_repeat =
        product(op.name, "expert repeat count", {experts, op.repeat});
    emit(op.name + ".expert.ffn1",
         sa::TileShape{expert_tokens, op.attrs.ffn, hidden},
         wl::PostOp::kGelu, expert_repeat);
    emit(op.name + ".expert.ffn2",
         sa::TileShape{expert_tokens, hidden, op.attrs.ffn},
         wl::PostOp::kNone, expert_repeat);
  }

  // Elementwise/norm ops do not become layers: their scalar work rides as
  // the PostOp of the GEMM layer that produced their input (the CPU cores
  // execute post-ops in the GEMM+ model), charged once per repeat of that
  // layer.
  void lower_fused(const OpDecl& op) {
    const auto it = produced_by_.find(op.inputs[0]);
    if (it == produced_by_.end()) {
      fail("op '" + op.name + "': cannot fuse: input tensor '" +
           op.inputs[0] +
           "' is not produced by a lowered GEMM layer (graph inputs "
           "cannot absorb elementwise/norm work)");
    }
    wl::Layer& layer = model_.workload.layers[it->second];
    if (layer.post != wl::PostOp::kNone) {
      fail("op '" + op.name + "': cannot fuse into layer '" + layer.name +
           "': it already carries post-op '" + post_op_name(layer.post) +
           "'");
    }
    layer.post = op.attrs.fn;
    current_->fused_into = layer.name;
    current_->bytes = product(
        op.name, "byte count",
        {2, elements(tensor(op.inputs[0])),
         sa::element_bytes(model_.workload.precision), layer.repeat});
    // The op's output aliases the producer layer, so a downstream op
    // chains to the same GEMM.
    for (const std::string& output : op.outputs) {
      produced_by_[output] = it->second;
    }
  }

  void lower_op(const OpDecl& op) {
    OpContribution contribution;
    contribution.op = op.name;
    contribution.kind = op.kind;
    contribution.first_layer = model_.workload.layers.size();
    current_ = &contribution;

    // The factory: one lowering rule per op kind.
    using LowerFn = void (Lowerer::*)(const OpDecl&);
    static const std::map<OpKind, LowerFn> kFactory = {
        {OpKind::kGemm, &Lowerer::lower_gemm},
        {OpKind::kLinear, &Lowerer::lower_linear},
        {OpKind::kConv2d, &Lowerer::lower_conv2d},
        {OpKind::kAttention, &Lowerer::lower_attention},
        {OpKind::kMoe, &Lowerer::lower_moe},
        {OpKind::kElementwise, &Lowerer::lower_fused},
        {OpKind::kNorm, &Lowerer::lower_fused},
    };
    (this->*kFactory.at(op.kind))(op);

    contribution.layer_count =
        model_.workload.layers.size() - contribution.first_layer;
    if (contribution.layer_count > 0) {
      // Downstream consumers of this op's outputs depend on its last
      // emitted layer.
      for (const std::string& output : op.outputs) {
        produced_by_[output] = model_.workload.layers.size() - 1;
      }
    }
    current_ = nullptr;
    model_.ops.push_back(std::move(contribution));
  }

  const ModelGraph& graph_;
  const LoweringOptions& options_;
  LoweredModel model_;
  OpContribution* current_ = nullptr;
  // tensor name -> index of the workload layer that (last) wrote it.
  std::map<std::string, std::size_t> produced_by_;
};

}  // namespace

const char* phase_name(Phase phase) noexcept {
  switch (phase) {
    case Phase::kPrefill: return "prefill";
    case Phase::kDecode: return "decode";
  }
  return "?";
}

Phase parse_phase(const std::string& name) {
  if (name == "prefill") return Phase::kPrefill;
  if (name == "decode") return Phase::kDecode;
  fail("unknown phase '" + name + "' (want prefill|decode)");
}

LoweredModel lower(const ModelGraph& graph, const LoweringOptions& options) {
  return Lowerer(graph, options).run();
}

}  // namespace maco::graph
