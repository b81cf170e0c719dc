// System-level pieces: config, mapper, GEMM+ scheduler and the timing model
// (the Fig. 6/7 mechanisms).
#include <gtest/gtest.h>

#include <cstring>

#include "core/config.hpp"
#include "core/gemm_mapper.hpp"
#include "core/gemm_plus.hpp"
#include "core/maco_system.hpp"
#include "core/timing_model.hpp"
#include "util/rng.hpp"

namespace maco::core {
namespace {

TEST(Config, DerivedQuantities) {
  const SystemConfig config = SystemConfig::maco_default();
  EXPECT_EQ(config.node_count, 16u);
  EXPECT_NEAR(config.mmae_peak_flops(sa::Precision::kFp64), 80e9, 1e6);
  EXPECT_NEAR(config.mmae_peak_flops(sa::Precision::kFp32), 160e9, 1e6);
  EXPECT_NEAR(config.cpu_peak_flops(sa::Precision::kFp64), 35.2e9, 1e6);
  EXPECT_EQ(config.l3_total_bytes(), 32ull * 1024 * 1024);
  EXPECT_NEAR(config.dram_total_bandwidth(), 204.8e9, 1e6);
  EXPECT_NEAR(config.node_link_bandwidth(), 64e9, 1e6);
}

TEST(Mapper, GridChoicesAreSquareish) {
  EXPECT_EQ(choose_grid(1), (std::pair<unsigned, unsigned>{1, 1}));
  EXPECT_EQ(choose_grid(2), (std::pair<unsigned, unsigned>{1, 2}));
  EXPECT_EQ(choose_grid(4), (std::pair<unsigned, unsigned>{2, 2}));
  EXPECT_EQ(choose_grid(8), (std::pair<unsigned, unsigned>{2, 4}));
  EXPECT_EQ(choose_grid(16), (std::pair<unsigned, unsigned>{4, 4}));
}

TEST(Mapper, FullCoverageNoOverlap) {
  const auto plan = partition_gemm(4096, 4096, 1024, 16);
  ASSERT_EQ(plan.size(), 16u);
  // Every C element covered exactly once.
  std::uint64_t covered = 0;
  for (const auto& node : plan) {
    for (const auto& tile : node.c_tiles) {
      covered += tile.rows * tile.cols;
    }
  }
  EXPECT_EQ(covered, 4096ull * 4096);
  // Fig. 5: node 0 owns the top-left block.
  EXPECT_EQ(plan[0].row_begin, 0u);
  EXPECT_EQ(plan[0].col_begin, 0u);
}

TEST(Mapper, BalancedWork) {
  const auto plan = partition_gemm(4096, 4096, 2048, 16);
  const std::uint64_t peak = critical_path_macs(plan);
  std::uint64_t total = 0;
  for (const auto& node : plan) total += node.macs;
  EXPECT_NEAR(static_cast<double>(peak) * 16 / static_cast<double>(total),
              1.0, 0.05);
}

TEST(Mapper, UnevenDimensionsStillCover) {
  const auto plan = partition_gemm(1000, 3000, 500, 8);
  std::uint64_t covered = 0;
  for (const auto& node : plan) {
    for (const auto& tile : node.c_tiles) covered += tile.rows * tile.cols;
  }
  EXPECT_EQ(covered, 1000ull * 3000);
}

TEST(GemmPlus, SerialSumsStages) {
  std::vector<GemmPlusStage> stages(3, GemmPlusStage{1000, 400, 100});
  const auto serial = schedule_gemm_plus(stages, /*overlap=*/false);
  EXPECT_EQ(serial.total_ps, 3u * 1500);
  EXPECT_EQ(serial.overlap_fraction, 0.0);
}

TEST(GemmPlus, PipelineHidesCpuWork) {
  std::vector<GemmPlusStage> stages(8, GemmPlusStage{1000, 400, 100});
  const auto piped = schedule_gemm_plus(stages, /*overlap=*/true);
  const auto serial = schedule_gemm_plus(stages, /*overlap=*/false);
  EXPECT_LT(piped.total_ps, serial.total_ps);
  EXPECT_GT(piped.overlap_fraction, 0.8);
  // Lower bound: the MMAE busy time plus first stash.
  EXPECT_GE(piped.total_ps, 8u * 1000 + 100);
}

TEST(GemmPlus, CpuBoundStagesExposeCpuTime) {
  std::vector<GemmPlusStage> stages(4, GemmPlusStage{100, 1000, 0});
  const auto piped = schedule_gemm_plus(stages, true);
  // CPU work dominates: the schedule cannot beat the CPU serial chain.
  EXPECT_GE(piped.total_ps, 4u * 100);
  EXPECT_GE(piped.cpu_busy_ps, 4u * 1000);
}

// ---------------- timing model ----------------

class TimingModelTest : public ::testing::Test {
 protected:
  TimingModelTest() : model_(SystemConfig::maco_default()) {}
  SystemTimingModel model_;
};

TEST_F(TimingModelTest, SingleNodeHighEfficiencyWithPrediction) {
  TimingOptions options;
  options.shape = sa::TileShape{1024, 1024, 1024};
  const SystemTiming timing = model_.run(options);
  EXPECT_GT(timing.mean_efficiency, 0.90);
  EXPECT_LE(timing.mean_efficiency, 1.0);
}

TEST_F(TimingModelTest, PredictionGapMatchesFig6Shape) {
  TimingOptions with;
  with.shape = sa::TileShape{1024, 1024, 1024};
  TimingOptions without = with;
  without.use_matlb = false;

  const double eff_with = model_.run(with).mean_efficiency;
  const double eff_without = model_.run(without).mean_efficiency;
  const double gap = eff_with - eff_without;
  // Paper Fig. 6: maximum gap 6.5% at 1024.
  EXPECT_GT(gap, 0.03);
  EXPECT_LT(gap, 0.12);

  // Below TLB reach the gap collapses (<2% at 256).
  TimingOptions small_with = with;
  small_with.shape = sa::TileShape{256, 256, 256};
  TimingOptions small_without = small_with;
  small_without.use_matlb = false;
  const double small_gap = model_.run(small_with).mean_efficiency -
                           model_.run(small_without).mean_efficiency;
  EXPECT_LT(small_gap, 0.02);
}

TEST_F(TimingModelTest, TranslationEstimateTlbReachKnee) {
  TimingOptions options;
  options.shape = sa::TileShape{256, 256, 256};
  const auto resident =
      model_.estimate_translation(options, options.shape);
  options.shape = sa::TileShape{2048, 2048, 2048};
  const auto thrash = model_.estimate_translation(options, options.shape);
  EXPECT_LT(resident.walks_per_tile, 2.0);   // fits sTLB reach
  EXPECT_GT(thrash.walks_per_tile, 16.0);    // recurring misses
}

TEST_F(TimingModelTest, ScalabilityLossAtSixteenNodes) {
  TimingOptions one;
  one.shape = sa::TileShape{4096, 4096, 4096};
  one.active_nodes = 1;
  TimingOptions sixteen = one;
  sixteen.active_nodes = 16;

  const double eff1 = model_.run(one).mean_efficiency;
  const double eff16 = model_.run(sixteen).mean_efficiency;
  EXPECT_GT(eff1, eff16);           // contention costs something
  EXPECT_GT(eff16, 0.80);           // but the paper reports ~90% average
  EXPECT_LT(eff1 - eff16, 0.15);    // ~10% loss, not a collapse
}

TEST_F(TimingModelTest, CooperativeSplitsWork) {
  TimingOptions coop;
  coop.shape = sa::TileShape{4096, 4096, 4096};
  coop.active_nodes = 16;
  coop.cooperative = true;
  const SystemTiming timing = model_.run(coop);
  // 16 nodes cooperating finish ~16x faster than one node.
  TimingOptions solo = coop;
  solo.active_nodes = 1;
  solo.cooperative = false;
  const SystemTiming single = model_.run(solo);
  const double speedup = static_cast<double>(single.makespan_ps) /
                         static_cast<double>(timing.makespan_ps);
  EXPECT_GT(speedup, 12.0);
  EXPECT_LE(speedup, 16.5);
}

TEST_F(TimingModelTest, AggregateCyclesMatchValidatedModel) {
  // With no SIMD override the local closed form must agree with the
  // sa::compute_sa_timing-validated formula.
  TimingOptions options;
  options.shape = sa::TileShape{192, 128, 64};
  options.inner = 64;
  const std::uint64_t cycles =
      model_.aggregate_sa_cycles(options.shape, options);
  const sa::SaTiming tile =
      sa::compute_sa_timing(sa::TileShape{64, 64, 64},
                            SystemConfig::maco_default().mmae.sa);
  EXPECT_EQ(cycles, tile.total_cycles * (3 * 2 * 1));
}

TEST_F(TimingModelTest, StashOffCostsThroughput) {
  // A single node at FP64 is compute-bound regardless of stash (its ~10 GB/s
  // demand never stresses the memory system); the benefit shows when all 16
  // nodes share the DDR supply and locking trims the re-stream traffic.
  TimingOptions with;
  with.shape = sa::TileShape{4096, 4096, 4096};
  with.active_nodes = 16;
  TimingOptions without = with;
  without.use_stash_lock = false;
  EXPECT_GT(model_.run(with).total_gflops,
            model_.run(without).total_gflops);
}

TEST_F(TimingModelTest, LayersAggregateThroughput) {
  TimingOptions options;
  options.active_nodes = 16;
  std::vector<sa::TileShape> layers = {
      sa::TileShape{1024, 1024, 1024}, sa::TileShape{2048, 2048, 2048}};
  const SystemTiming timing = model_.run_layers(layers, options);
  EXPECT_GT(timing.total_gflops, 0.0);
  EXPECT_GT(timing.makespan_ps, 0u);
}

}  // namespace
}  // namespace maco::core

namespace maco::core {
namespace {

TEST(PageSizeAblation, HugePagesEraseThePredictionGap) {
  const SystemTimingModel model(SystemConfig::maco_default());
  TimingOptions with;
  with.shape = sa::TileShape{2048, 2048, 2048};
  with.page_bytes = 2 * 1024 * 1024;
  TimingOptions without = with;
  without.use_matlb = false;
  const double gap = model.run(with).mean_efficiency -
                     model.run(without).mean_efficiency;
  EXPECT_LT(gap, 0.01);  // nothing left to predict away
  EXPECT_LT(model.run(without).translation.walks_per_tile, 1.0);
}

// ---- matrix I/O: write_matrix/read_matrix against per-element reads ----

class MatrixIoTest : public ::testing::Test {
 protected:
  MatrixIoTest() : system_(one_node()), process_(system_.create_process()) {}

  static SystemConfig one_node() {
    SystemConfig config = SystemConfig::maco_default();
    config.node_count = 1;
    return config;
  }

  // Reserves `pages` of VA and backs them in reverse order, so neighbouring
  // virtual pages sit on non-adjacent frames; `skip` (if < pages) stays
  // unmapped.
  vm::VirtAddr scattered_region(std::uint64_t pages,
                                std::uint64_t skip = ~0ull) {
    const vm::VirtAddr base = process_.space->reserve(pages * vm::kPageSize);
    for (std::uint64_t p = pages; p-- > 0;) {
      if (p != skip) process_.space->map_page(base + p * vm::kPageSize);
    }
    return base;
  }

  // One element read the slow way: translate, then read physical memory.
  // An element straddling a page is assembled byte by byte.
  double element_via_translate(vm::VirtAddr va) {
    const vm::PageTable& table = process_.space->page_table();
    if (vm::page_offset(va) + sizeof(double) <= vm::kPageSize) {
      return system_.memory().read_f64(*table.translate(va));
    }
    std::uint8_t bytes[sizeof(double)];
    for (std::uint64_t i = 0; i < sizeof(double); ++i) {
      system_.memory().read(*table.translate(va + i), &bytes[i], 1);
    }
    double value = 0.0;
    std::memcpy(&value, bytes, sizeof value);
    return value;
  }

  void expect_round_trip(const vm::MatrixDesc& desc) {
    util::Rng rng(desc.base ^ desc.stride());
    const sa::HostMatrix values =
        sa::HostMatrix::random(desc.rows, desc.cols, rng);
    system_.write_matrix(process_, desc, values);
    const sa::HostMatrix back = system_.read_matrix(process_, desc);
    ASSERT_EQ(back.data(), values.data());  // bit-exact
    for (std::uint64_t r = 0; r < desc.rows; ++r) {
      for (std::uint64_t c = 0; c < desc.cols; ++c) {
        ASSERT_EQ(element_via_translate(desc.element_addr(r, c)),
                  values.at(r, c))
            << "(" << r << "," << c << ")";
      }
    }
  }

  MacoSystem system_;
  Process& process_;
};

TEST_F(MatrixIoTest, DenseRowsCrossingSeveralPages) {
  // 1100 doubles per row: every row spans three pages.
  expect_round_trip(system_.alloc_matrix(process_, 5, 1100));
}

TEST_F(MatrixIoTest, UnalignedBaseAndPaddedStrideOnScatteredFrames) {
  const vm::VirtAddr region = scattered_region(16);
  vm::MatrixDesc desc;
  // 20 bytes short of a page boundary and not 8-aligned: elements
  // straddle pages, and each page lives on a frame away from its
  // neighbours.
  desc.base = region + vm::kPageSize - 20;
  desc.rows = 5;
  desc.cols = 1100;
  desc.row_stride_bytes = desc.cols * sizeof(double) + 72;
  expect_round_trip(desc);
  // The stride padding between rows is untouched.
  for (std::uint64_t r = 0; r + 1 < desc.rows; ++r) {
    const vm::VirtAddr gap = desc.element_addr(r, desc.cols);
    for (std::uint64_t i = 0; i < 72; i += sizeof(double)) {
      EXPECT_EQ(element_via_translate(gap + i), 0.0) << "row " << r;
    }
  }
}

TEST_F(MatrixIoTest, SingleColumnWithPageSizedStride) {
  // One element per row, one row per page: every element its own run.
  const vm::VirtAddr region = scattered_region(9);
  vm::MatrixDesc desc;
  desc.base = region + 8;
  desc.rows = 8;
  desc.cols = 1;
  desc.row_stride_bytes = vm::kPageSize;
  expect_round_trip(desc);
}

using MatrixIoDeathTest = MatrixIoTest;

TEST_F(MatrixIoDeathTest, UnmappedPageStillAsserts) {
  const vm::VirtAddr region = scattered_region(4, /*skip=*/2);
  vm::MatrixDesc desc;
  desc.base = region;
  desc.rows = 3;
  desc.cols = 1024;  // one page per row: row 2 hits the hole
  const sa::HostMatrix values(3, 1024, 1.0);
  EXPECT_DEATH(system_.write_matrix(process_, desc, values),
               "unmapped VA in write_matrix");
  EXPECT_DEATH((void)system_.read_matrix(process_, desc),
               "unmapped VA in read_matrix");
}

TEST_F(MatrixIoDeathTest, NonFp64ElementsAssert) {
  vm::MatrixDesc desc = system_.alloc_matrix(process_, 2, 2);
  desc.elem_bytes = 4;
  EXPECT_DEATH(system_.write_matrix(process_, desc, sa::HostMatrix(2, 2)),
               "moves FP64 elements");
}

}  // namespace
}  // namespace maco::core
