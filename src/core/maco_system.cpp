#include "core/maco_system.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/bits.hpp"

namespace maco::core {

// ---------------- SystemMemoryBackend ----------------

sim::TimePs SystemMemoryBackend::transfer(int node, vm::PhysAddr pa,
                                          std::uint32_t bytes,
                                          mem::CcmReqType type, bool lock,
                                          sim::TimePs start) {
  // Serialize on the node's injection port at link bandwidth.
  sim::TimePs& port_free = system_.node_port_free(node);
  sim::TimePs t = std::max(start, port_free);
  const double bw = system_.node_link_bandwidth();
  const auto wire_ps = static_cast<sim::TimePs>(
      static_cast<double>(bytes) / bw * 1e12);

  // Line-granular CCM transactions; the slowest line bounds completion
  // (lines pipeline through the network back to back).
  sim::TimePs ready = t;
  const std::uint64_t first = mem::line_addr(pa);
  const std::uint64_t last = mem::line_addr(pa + bytes - 1);
  for (std::uint64_t line = first; line <= last; line += mem::kLineBytes) {
    mem::DirectoryCcm& ccm = system_.ccm_for(line);
    const unsigned home = system_.ccm_home_node(line);
    mem::CcmRequest request;
    request.type = (type == mem::CcmReqType::kStash && lock)
                       ? mem::CcmReqType::kStashLock
                       : type;
    // Stores covering a whole line stream without a fetch (the DMA writes
    // every byte, so read-for-ownership data would be thrown away).
    if (type == mem::CcmReqType::kGetM && line >= pa &&
        line + mem::kLineBytes <= pa + bytes) {
      request.type = mem::CcmReqType::kPutFull;
    }
    request.node = node;
    request.addr = line;
    // Two-leg protocol: the home slice services the request at its ARRIVAL
    // time, so a queueing interconnect and a queueing DRAM each charge
    // their own backlog exactly once (handing the slice the injection time
    // would bill the network wait again as memory wait).
    noc::IcntModel& icnt = system_.icnt();
    const sim::TimePs req_arrive =
        t + icnt.request_leg_ps(t, node, home);
    const mem::CcmResponse response = ccm.handle(request, req_arrive);
    const sim::TimePs data_ready = req_arrive + response.latency;
    const sim::TimePs line_ready =
        data_ready +
        icnt.response_leg_ps(data_ready, home, node, mem::kLineBytes);
    ready = std::max(ready, line_ready);
  }
  port_free = t + wire_ps;
  return std::max(ready, port_free);
}

sim::TimePs SystemMemoryBackend::read(int node, vm::PhysAddr pa, void* out,
                                      std::uint32_t bytes, sim::TimePs start) {
  system_.memory().read(pa, out, bytes);
  return transfer(node, pa, bytes, mem::CcmReqType::kGetS, false, start);
}

sim::TimePs SystemMemoryBackend::write(int node, vm::PhysAddr pa,
                                       const void* data, std::uint32_t bytes,
                                       sim::TimePs start) {
  system_.memory().write(pa, data, bytes);
  return transfer(node, pa, bytes, mem::CcmReqType::kGetM, false, start);
}

sim::TimePs SystemMemoryBackend::stash(int node, vm::PhysAddr pa,
                                       std::uint32_t bytes, bool lock,
                                       sim::TimePs start) {
  return transfer(node, pa, bytes, mem::CcmReqType::kStash, lock, start);
}

// ---------------- WalkMemoryOracle ----------------

sim::TimePs WalkMemoryOracle::read_latency(vm::PhysAddr addr,
                                           std::uint32_t /*bytes*/) {
  mem::DirectoryCcm& ccm = system_.ccm_for(addr);
  const unsigned home = system_.ccm_home_node(addr);
  mem::CcmRequest request;
  request.type = mem::CcmReqType::kGetS;
  request.node = node_;
  request.addr = mem::line_addr(addr);
  // The walker has no notion of current time, so the PTE read must not
  // book the shared DRAM bus or NoC links (a stale timestamp would surface
  // the backlog as walk latency); it still updates L3 state, so page-table
  // locality emerges across walks.
  const mem::CcmResponse response =
      ccm.handle(request, 0, /*queue_dram=*/false);
  return system_.icnt().unloaded_round_trip_ps(node_, home,
                                               mem::kLineBytes) +
         response.latency;
}

// ---------------- MacoSystem ----------------

MacoSystem::MacoSystem(const SystemConfig& config) : config_(config) {
  // The exec mode selects both time-advance strategies at once: the mesh's
  // drive (clock-domain jumps vs one event per NoC cycle) and the systolic
  // array's functional path (direct order-preserving evaluation vs
  // register-level PE simulation). Both pairs are bit-equivalent.
  config_.mesh.event_driven = config_.exec == ExecMode::kEventDriven;
  config_.mmae.sa.exact_pe_sim = config_.exec == ExecMode::kLockstep;

  backend_ = std::make_unique<SystemMemoryBackend>(*this);

  drams_.reserve(config_.dram_channels);
  for (unsigned ch = 0; ch < config_.dram_channels; ++ch) {
    drams_.push_back(mem::make_dram_model("dram" + std::to_string(ch),
                                          config_.dram));
  }

  ccms_.reserve(config_.ccm_count);
  // Addresses interleave across slices at line granularity; tell the slice
  // so it strips those bits before set indexing.
  config_.ccm.slice_interleave = config_.ccm_count;
  for (unsigned s = 0; s < config_.ccm_count; ++s) {
    // Channel interleaving: slice s drains to channel s % channels.
    mem::DramModel& dram = *drams_[s % config_.dram_channels];
    ccms_.push_back(std::make_unique<mem::DirectoryCcm>(
        "ccm" + std::to_string(s), config_.ccm, dram));
  }

  icnt_ = noc::make_icnt_model(config_.icnt_config());
  // Per-link traffic accounting is the one observability hook that must
  // record during the run; it never feeds back into timing.
  if (config_.profile == ProfileMode::kCounters) icnt_->enable_link_stats();
  mesh_ = std::make_unique<noc::MeshNetwork>(engine_, config_.mesh);

  node_port_free_.assign(config_.node_count, 0);
  nodes_.reserve(config_.node_count);
  walk_oracles_.reserve(config_.node_count);
  for (unsigned n = 0; n < config_.node_count; ++n) {
    walk_oracles_.push_back(
        std::make_unique<WalkMemoryOracle>(*this, static_cast<int>(n)));
    nodes_.push_back(std::make_unique<ComputeNode>(
        engine_, static_cast<int>(n), config_.cpu, config_.mmae, *backend_,
        memory_, *walk_oracles_.back()));
    // Multi-process translation: the MMAE resolves page tables through the
    // system's process registry, independent of the CPU's current context
    // (MTQ/STQ survive process switches).
    nodes_.back()->mmae().set_page_table_lookup(
        [this](vm::Asid asid) -> const vm::PageTable* {
          const auto it = processes_.find(asid);
          return it == processes_.end() ? nullptr
                                        : &it->second->space->page_table();
        });
  }
}

MacoSystem::~MacoSystem() = default;

ComputeNode& MacoSystem::node(unsigned index) {
  MACO_ASSERT_MSG(index < nodes_.size(), "node " << index);
  return *nodes_[index];
}

Process& MacoSystem::create_process() {
  const vm::Asid asid = next_asid_++;
  auto process = std::make_unique<Process>();
  process->asid = asid;
  // Carve disjoint physical regions per process: page tables low, frames
  // high; the sparse backing store only materializes touched pages.
  const vm::PhysAddr pt_base =
      0x0800'0000'0000ull + static_cast<vm::PhysAddr>(asid) * 0x0001'0000'0000ull;
  const vm::PhysAddr frame_base =
      0x1000'0000'0000ull + static_cast<vm::PhysAddr>(asid) * 0x0040'0000'0000ull;
  process->space =
      std::make_unique<vm::AddressSpace>(asid, pt_base, frame_base);
  auto [it, inserted] = processes_.emplace(asid, std::move(process));
  MACO_ASSERT(inserted);
  return *it->second;
}

Process& MacoSystem::process(vm::Asid asid) {
  const auto it = processes_.find(asid);
  MACO_ASSERT_MSG(it != processes_.end(), "unknown ASID " << asid);
  return *it->second;
}

void MacoSystem::schedule_process(unsigned node_index, Process& process) {
  node(node_index).cpu().set_context(process.asid,
                                     &process.space->page_table());
}

vm::MatrixDesc MacoSystem::alloc_matrix(Process& process, std::uint64_t rows,
                                        std::uint64_t cols) {
  vm::MatrixDesc desc;
  desc.rows = rows;
  desc.cols = cols;
  desc.elem_bytes = sizeof(double);
  desc.base = process.space->alloc(rows * cols * sizeof(double));
  return desc;
}

vm::MatrixDesc MacoSystem::alloc_matrix_lazy(Process& process,
                                             std::uint64_t rows,
                                             std::uint64_t cols) {
  vm::MatrixDesc desc;
  desc.rows = rows;
  desc.cols = cols;
  desc.elem_bytes = sizeof(double);
  desc.base = process.space->reserve(rows * cols * sizeof(double));
  return desc;
}

namespace {

// Calls fn(pa, host_offset, bytes) for every page-bounded run of the
// matrix's rows, where host_offset is the run's byte offset in the dense
// row-major host copy. Each page a row spans is translated once. Runs
// split at VA page boundaries, so an element that straddles a page lands
// on each page's own frame. Unmapped pages assert.
template <typename Fn>
void for_each_page_run(const vm::PageTable& table, const vm::MatrixDesc& desc,
                       const char* caller, Fn&& fn) {
  MACO_ASSERT_MSG(desc.elem_bytes == sizeof(double),
                  caller << " moves FP64 elements, got elem_bytes "
                         << desc.elem_bytes);
  const std::uint64_t row_bytes = desc.cols * sizeof(double);
  for (std::uint64_t r = 0; r < desc.rows; ++r) {
    const vm::VirtAddr va = desc.element_addr(r, 0);
    for (std::uint64_t done = 0; done < row_bytes;) {
      const std::uint64_t run = std::min(
          row_bytes - done, vm::kPageSize - vm::page_offset(va + done));
      const auto pa = table.translate(va + done);
      MACO_ASSERT_MSG(pa.has_value(), "unmapped VA in " << caller);
      fn(*pa, r * row_bytes + done, run);
      done += run;
    }
  }
}

}  // namespace

void MacoSystem::write_matrix(Process& process, const vm::MatrixDesc& desc,
                              const sa::HostMatrix& values) {
  MACO_ASSERT(values.rows() == desc.rows && values.cols() == desc.cols);
  const auto* host =
      reinterpret_cast<const std::uint8_t*>(values.data().data());
  for_each_page_run(process.space->page_table(), desc, "write_matrix",
                    [&](vm::PhysAddr pa, std::uint64_t at, std::uint64_t run) {
                      memory_.write(pa, host + at, run);
                    });
}

sa::HostMatrix MacoSystem::read_matrix(Process& process,
                                       const vm::MatrixDesc& desc) {
  sa::HostMatrix out(desc.rows, desc.cols);
  if (desc.rows == 0) return out;
  auto* host = reinterpret_cast<std::uint8_t*>(out.row_ptr(0));
  for_each_page_run(process.space->page_table(), desc, "read_matrix",
                    [&](vm::PhysAddr pa, std::uint64_t at, std::uint64_t run) {
                      memory_.read(pa, host + at, run);
                    });
  return out;
}

mem::DirectoryCcm& MacoSystem::ccm_for(vm::PhysAddr pa) {
  return *ccms_[ccm_home_node(pa)];
}

unsigned MacoSystem::ccm_home_node(vm::PhysAddr pa) const noexcept {
  // Line-interleaved home slices spread traffic uniformly over the mesh.
  return static_cast<unsigned>((pa / mem::kLineBytes) % config_.ccm_count);
}

mem::DramModel& MacoSystem::dram_for(vm::PhysAddr pa) {
  return *drams_[ccm_home_node(pa) % config_.dram_channels];
}

}  // namespace maco::core
