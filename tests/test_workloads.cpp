#include <gtest/gtest.h>

#include "workloads/dnn_models.hpp"
#include "workloads/gemm_workload.hpp"
#include "workloads/hpl.hpp"

namespace maco::wl {
namespace {

TEST(Workload, SquareGemmShape) {
  const Workload w = square_gemm(1024);
  ASSERT_EQ(w.layers.size(), 1u);
  EXPECT_EQ(w.layers[0].shape.m, 1024u);
  EXPECT_EQ(w.total_flops(), 2ull * 1024 * 1024 * 1024);
  EXPECT_EQ(w.precision, sa::Precision::kFp64);
}

TEST(Workload, ExpandedShapesHonorRepeat) {
  Workload w;
  w.layers.push_back(Layer{"x", sa::TileShape{8, 8, 8}, PostOp::kNone, 3});
  w.layers.push_back(Layer{"y", sa::TileShape{4, 4, 4}, PostOp::kNone, 1});
  EXPECT_EQ(w.expanded_shapes().size(), 4u);
}

TEST(Dnn, Resnet50LayerInventory) {
  const Workload w = resnet50(8);
  EXPECT_EQ(w.name, "Resnet-50");
  EXPECT_EQ(w.precision, sa::Precision::kFp32);
  EXPECT_GT(w.layers.size(), 15u);
  // He et al. report ~3.8 G multiply-adds per image; total_flops() counts a
  // MAC as 2 FLOPs, and our GEMM-only inventory (no shortcuts/pooling)
  // lands at ~3.5 GMACs, i.e. ~7.0 GFLOPs per image.
  const double gflops = static_cast<double>(w.total_flops()) / 1e9;
  EXPECT_GT(gflops, 8 * 6.0);
  EXPECT_LT(gflops, 8 * 8.5);
}

TEST(Dnn, Resnet50Conv1Shape) {
  const Workload w = resnet50(1);
  const Layer& conv1 = w.layers.front();
  EXPECT_EQ(conv1.shape.m, 64u);          // output channels
  EXPECT_EQ(conv1.shape.n, 112u * 112u);  // output pixels
  EXPECT_EQ(conv1.shape.k, 3u * 7 * 7);   // in_ch × kernel²
}

TEST(Dnn, BertBlockStructure) {
  const Workload w = bert_base(8, 384);
  ASSERT_EQ(w.layers.size(), 6u);  // qkv/scores/context/proj/ffn1/ffn2
  for (const auto& layer : w.layers) EXPECT_EQ(layer.repeat, 12u);
  // FFN1: tokens × 4H × H.
  const Layer& ffn1 = w.layers[4];
  EXPECT_EQ(ffn1.shape.m, 8u * 384);
  EXPECT_EQ(ffn1.shape.n, 4u * 768);
  EXPECT_EQ(ffn1.shape.k, 768u);
  EXPECT_EQ(ffn1.post, PostOp::kGelu);
  // Scores carry the softmax.
  EXPECT_EQ(w.layers[1].post, PostOp::kSoftmax);
}

TEST(Dnn, Gpt3IsLargestWorkload) {
  const Workload gpt = gpt3(1, 2048);
  const Workload bert = bert_base(8, 384);
  const Workload resnet = resnet50(8);
  EXPECT_GT(gpt.total_flops(), bert.total_flops());
  EXPECT_GT(bert.total_flops(), resnet.total_flops());
  // GPT-3 per-token cost ≈ 2 × 12 × H² × layers; sanity band for seq 2048.
  const double tflops = static_cast<double>(gpt.total_flops()) / 1e12;
  EXPECT_GT(tflops, 500.0);
  EXPECT_LT(tflops, 1500.0);
}

TEST(Hpl, TrailingUpdateShapes) {
  const auto shapes = hpl_trailing_updates(2048, 256);
  ASSERT_EQ(shapes.size(), 7u);
  EXPECT_EQ(shapes.front().m, 2048u - 256);
  EXPECT_EQ(shapes.front().k, 256u);
  EXPECT_EQ(shapes.back().m, 256u);
}

TEST(Hpl, GemmFlopsApproachLuFlops) {
  // Trailing updates dominate LU: their FLOPs should be most of 2/3·N³.
  const Workload w = hpl_workload(4096, 128);
  const double gemm_flops = static_cast<double>(w.total_flops());
  const double lu = lu_flops(4096);
  EXPECT_GT(gemm_flops / lu, 0.90);
  EXPECT_LT(gemm_flops / lu, 1.01);
}

TEST(Hpl, WorkloadIsFp64) {
  EXPECT_EQ(hpl_workload(1024).precision, sa::Precision::kFp64);
}

}  // namespace
}  // namespace maco::wl

namespace maco::wl {
namespace {

TEST(Hpl, TrailingUpdateShapesShrinkToPanel) {
  const auto shapes = hpl_trailing_updates(2048, 256);
  ASSERT_EQ(shapes.size(), 7u);  // 2048/256 - 1
  EXPECT_EQ(shapes.front().m, 1792u);
  EXPECT_EQ(shapes.front().k, 256u);
  EXPECT_EQ(shapes.back().m, 256u);
  for (std::size_t i = 1; i < shapes.size(); ++i) {
    EXPECT_LT(shapes[i].m, shapes[i - 1].m);
    EXPECT_EQ(shapes[i].m, shapes[i].n);  // trailing blocks are square
  }
}

TEST(Hpl, UpdateFlopsApproachTwoThirdsNCubed) {
  // GEMM updates carry ~2/3 N^3 as N/nb grows.
  const std::uint64_t n = 16384;
  double update_flops = 0.0;
  for (const auto& shape : hpl_trailing_updates(n, 256)) {
    update_flops += static_cast<double>(shape.flops());
  }
  EXPECT_NEAR(update_flops / lu_flops(n), 1.0, 0.05);
}

TEST(Dnn, Gpt3ShapesMatchArchitecture) {
  const Workload w = gpt3(1, 2048);
  ASSERT_EQ(w.layers.size(), 6u);
  for (const auto& layer : w.layers) EXPECT_EQ(layer.repeat, 96u);
  const Layer& qkv = w.layers[0];
  EXPECT_EQ(qkv.shape.m, 2048u);
  EXPECT_EQ(qkv.shape.n, 3u * 12288);
  EXPECT_EQ(qkv.shape.k, 12288u);
}

TEST(Dnn, BertPostOpsCoverTheNonGemmWork) {
  // The GEMM+ scheme needs the non-GEMM ops attached to their layers.
  const Workload w = bert_base(8, 384);
  int softmax = 0, layernorm = 0, gelu = 0;
  for (const auto& layer : w.layers) {
    if (layer.post == PostOp::kSoftmax) ++softmax;
    if (layer.post == PostOp::kLayerNorm) ++layernorm;
    if (layer.post == PostOp::kGelu) ++gelu;
  }
  EXPECT_EQ(softmax, 1);
  EXPECT_EQ(layernorm, 2);
  EXPECT_EQ(gelu, 1);
}

TEST(Workload, TotalFlopsSumLayerFlopsWithRepeats) {
  Workload w;
  w.layers.push_back(Layer{"a", sa::TileShape{8, 8, 8}, PostOp::kNone, 3});
  w.layers.push_back(Layer{"b", sa::TileShape{4, 4, 4}, PostOp::kNone, 2});
  EXPECT_EQ(w.total_flops(), 3u * 2 * 512 + 2u * 2 * 64);
  EXPECT_EQ(w.total_macs(), 3u * 512 + 2u * 64);
}

}  // namespace
}  // namespace maco::wl
