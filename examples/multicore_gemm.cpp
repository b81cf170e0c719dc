// Multi-core GEMM: the paper's Fig. 5 mapping on real data, then at scale.
//
// Part 1 (detailed system): a 256x256x192 GEMM is partitioned over the four
// nodes of a small MACO with the Fig. 5 row-stripe scheme. Each node's CPU
// stashes+locks its operand panels into L3 (MA_STASH), dispatches its
// stripe with MA_CFG, and the assembled C is verified against the host
// reference.
//
// Part 2 (system timing model): the same mapping at paper scale — a
// 4096-cubed FP64 GEMM cooperatively split over 1..16 nodes — showing the
// near-linear speedup and the Fig. 7 efficiency trend.
#include <cstdio>

#include "core/gemm_mapper.hpp"
#include "core/maco_system.hpp"
#include "core/mapped_gemm.hpp"
#include "core/timing_model.hpp"
#include "driver/trace_cmd.hpp"
#include "isa/assembler.hpp"
#include "isa/encoding.hpp"
#include "util/rng.hpp"

namespace {

void detailed_four_node_gemm() {
  using namespace maco;
  std::puts("== Part 1: 4-node mapped GEMM on the detailed system ==");

  core::SystemConfig config = core::SystemConfig::maco_default();
  config.node_count = 4;
  core::MacoSystem system(config);
  core::Process& process = system.create_process();

  const std::uint64_t m = 256, n = 256, k = 192;
  util::Rng rng(2024);
  const auto a = sa::HostMatrix::random(m, k, rng);
  const auto b = sa::HostMatrix::random(k, n, rng);
  const auto a_desc = system.alloc_matrix(process, m, k);
  const auto b_desc = system.alloc_matrix(process, k, n);
  const auto c_desc = system.alloc_matrix(process, m, n);
  system.write_matrix(process, a_desc, a);
  system.write_matrix(process, b_desc, b);
  system.write_matrix(process, c_desc, sa::HostMatrix(m, n));

  // Fig. 5(a): C row stripes; every node shares B and owns a slice of A/C.
  const std::uint64_t stripe = m / 4;
  for (unsigned node = 0; node < 4; ++node) {
    system.schedule_process(node, process);
    cpu::CpuCore& cpu = system.node(node).cpu();

    // Stash + lock the shared B panel (Fig. 5(b)) before compute.
    isa::StashParams stash;
    stash.base = b_desc.base;
    stash.rows = static_cast<std::uint32_t>(k);
    stash.row_bytes = static_cast<std::uint32_t>(n * 8);
    stash.stride = n * 8;
    stash.lock = true;
    cpu.regs().write_param_block(16, stash.pack());

    isa::GemmParams gemm;
    gemm.a_base = a_desc.element_addr(node * stripe, 0);
    gemm.b_base = b_desc.base;
    gemm.c_base = c_desc.element_addr(node * stripe, 0);
    gemm.m = static_cast<std::uint32_t>(stripe);
    gemm.n = static_cast<std::uint32_t>(n);
    gemm.k = static_cast<std::uint32_t>(k);
    cpu.regs().write_param_block(10, gemm.pack());

    cpu.execute_source(
        "ma_stash x7, x16   ; prefetch+lock shared B into L3\n"
        "ma_cfg   x5, x10   ; dispatch this node's C stripe");
  }
  system.run();

  bool all_done = true;
  for (unsigned node = 0; node < 4; ++node) {
    cpu::CpuCore& cpu = system.node(node).cpu();
    const auto maid = static_cast<cpu::Maid>(cpu.regs().read(5));
    const bool done = cpu.mtq().entry(maid).done &&
                      !cpu.mtq().entry(maid).exception_en;
    all_done = all_done && done;
    const auto& report = system.node(node).mmae().reports().back();
    std::printf("  node %u: stripe rows [%llu, %llu)  done=%d  "
                "DMA %.1f KiB  SA busy %.1f us\n",
                node, static_cast<unsigned long long>(node * stripe),
                static_cast<unsigned long long>((node + 1) * stripe), done,
                static_cast<double>(report.dma_bytes) / 1024.0,
                static_cast<double>(report.sa_busy_ps) / 1e6);
  }

  sa::HostMatrix expected(m, n);
  sa::reference_gemm(a, b, expected);
  const bool ok = system.read_matrix(process, c_desc).approx_equal(expected);
  std::printf("  assembled C vs reference: %s\n\n",
              ok && all_done ? "MATCH" : "MISMATCH");
}

void library_mapped_gemm() {
  using namespace maco;
  std::puts("== Part 1b: the same mapping as one library call ==");

  core::SystemConfig config = core::SystemConfig::maco_default();
  config.node_count = 4;
  core::MacoSystem system(config);
  core::Process& process = system.create_process();

  util::Rng rng(99);
  const std::uint64_t m = 200, n = 168, k = 88;  // ragged on purpose
  const auto a = sa::HostMatrix::random(m, k, rng);
  const auto b = sa::HostMatrix::random(k, n, rng);
  const auto a_desc = system.alloc_matrix(process, m, k);
  const auto b_desc = system.alloc_matrix(process, k, n);
  const auto c_desc = system.alloc_matrix(process, m, n);
  system.write_matrix(process, a_desc, a);
  system.write_matrix(process, b_desc, b);
  system.write_matrix(process, c_desc, sa::HostMatrix(m, n));

  core::MappedGemmRunner runner(system);
  const core::MappedGemmResult result =
      runner.run(process, a_desc, b_desc, c_desc);

  sa::HostMatrix expected(m, n);
  sa::reference_gemm(a, b, expected);
  const bool match =
      system.read_matrix(process, c_desc).approx_equal(expected, 1e-9);
  std::printf("  %llux%llux%llu over %u nodes: %llu GEMMs, %llu moves, "
              "%llu stashes, %llu waves\n",
              static_cast<unsigned long long>(m),
              static_cast<unsigned long long>(n),
              static_cast<unsigned long long>(k), result.nodes_used,
              static_cast<unsigned long long>(result.gemm_tasks),
              static_cast<unsigned long long>(result.move_tasks),
              static_cast<unsigned long long>(result.stash_tasks),
              static_cast<unsigned long long>(result.waves));
  std::printf("  makespan %.1f us, %s\n",
              static_cast<double>(result.makespan_ps) / 1e6,
              result.ok && match ? "MATCH" : "MISMATCH");

  // What each MMAE did, as a Gantt chart (H=stash, E=move, G=gemm).
  std::vector<obs::SpanRec> spans;
  for (unsigned node = 0; node < system.node_count(); ++node) {
    for (const mmae::TaskReport& report : system.node(node).mmae().reports()) {
      spans.push_back(obs::SpanRec{"node" + std::to_string(node) + ".mmae",
                                   isa::mnemonic_name(report.op),
                                   report.start, report.end});
    }
  }
  std::fputs(driver::render_gantt(spans, 64).c_str(), stdout);
  std::puts("");
}

void paper_scale_scaling() {
  using namespace maco;
  std::puts("== Part 2: 4096^3 FP64 GEMM cooperatively split (timing model) ==");
  std::puts("  nodes   makespan(ms)   speedup   per-node efficiency");

  const core::SystemTimingModel model(core::SystemConfig::maco_default());
  double t1 = 0.0;
  for (unsigned nodes : {1u, 2u, 4u, 8u, 16u}) {
    core::TimingOptions options;
    options.shape = sa::TileShape{4096, 4096, 4096};
    options.active_nodes = nodes;
    options.cooperative = nodes > 1;
    const core::SystemTiming timing = model.run(options);
    const double ms = static_cast<double>(timing.makespan_ps) / 1e9;
    if (nodes == 1) t1 = ms;
    std::printf("  %5u   %12.1f   %7.2fx   %6.1f%%\n", nodes, ms, t1 / ms,
                timing.mean_efficiency * 100.0);
  }
}

}  // namespace

int main() {
  detailed_four_node_gemm();
  library_mapped_gemm();
  paper_scale_scaling();
  return 0;
}
