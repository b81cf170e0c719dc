// Cache Coherence Manager (CCM): one distributed L3 slice plus a
// directory implementing a MOESI protocol, with the paper's stash
// (prefetch-into-L3) and lock (pin-in-L3) operations.
//
// The directory is *blocking*: requests to a line are serialized, which is
// exact for this single-threaded event simulation. Owner recalls
// (invalidate/fetch from a private cache) are delegated to a registered
// RecallFn so the CCM does not need to know the private hierarchy's shape;
// the system layer implements it against the CPU cache models.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>

#include "mem/cache.hpp"
#include "mem/dram.hpp"
#include "sim/time.hpp"

namespace maco::mem {

enum class CcmReqType : std::uint8_t {
  kGetS,       // read, shared
  kGetM,       // read-for-ownership (write)
  kPutFull,    // full-line streaming store: allocate without fetching
  kPutM,       // writeback of a modified line
  kStash,      // prefetch the line into L3 (paper: MA_STASH)
  kStashLock,  // prefetch and pin (paper: CPU config-locks via CCM)
  kUnlock,     // release the pin
};

struct CcmRequest {
  CcmReqType type = CcmReqType::kGetS;
  int node = 0;  // requesting compute node
  std::uint64_t addr = 0;
};

struct CcmResponse {
  sim::TimePs latency = 0;  // request arrival -> data/ack ready at CCM
  bool l3_hit = false;
  bool dram_accessed = false;
  bool recalled = false;  // a private-cache owner had to be recalled
};

struct CcmConfig {
  CacheConfig l3{2 * 1024 * 1024, 16, kLineBytes};  // one 2 MiB slice
  sim::TimePs l3_latency_ps = 8'000;                // ~16 NoC cycles
  sim::TimePs directory_latency_ps = 2'000;
  // Line-interleave factor of the address space across slices. The slice
  // only ever sees every interleave-th line, so the interleave bits must
  // be stripped before set indexing or 15/16 of the sets go unused.
  unsigned slice_interleave = 1;
};

class DirectoryCcm {
 public:
  // RecallFn(owner_node, line) -> latency for the owner to flush/invalidate.
  using RecallFn =
      std::function<sim::TimePs(int owner_node, std::uint64_t line)>;

  DirectoryCcm(std::string name, const CcmConfig& config,
               DramModel& dram, RecallFn recall = {});

  // `queue_dram = false` computes DRAM latency from service times without
  // booking the shared data bus — for requests whose issue time is unknown
  // to the caller (the page-table walker's PTE reads), where booking at a
  // stale timestamp would return absolute backlog as latency.
  CcmResponse handle(const CcmRequest& request, sim::TimePs now,
                     bool queue_dram = true);

  // Directory introspection (tests/diagnostics).
  CoherenceState node_view(int node, std::uint64_t addr) const;
  bool line_locked(std::uint64_t addr) const {
    return l3_.is_locked(cache_addr(line_addr(addr)));
  }
  std::uint64_t sharer_mask(std::uint64_t addr) const;

  SetAssocCache& l3() noexcept { return l3_; }
  const SetAssocCache& l3() const noexcept { return l3_; }

  std::uint64_t recalls() const noexcept { return recalls_; }
  std::uint64_t stash_hits() const noexcept { return stash_hits_; }
  std::uint64_t stash_fills() const noexcept { return stash_fills_; }

 private:
  struct DirEntry {
    std::uint64_t sharers = 0;  // bitmask of nodes with the line
    int owner = -1;             // node holding M/E/O, -1 if none
  };

  // Directory state lives in address-ordered chunks of consecutive
  // slice-local lines, allocated on first touch. The DMA streams lines in
  // address order, so neighbouring requests hit the same chunk and mostly
  // the same host cache lines; a hash keyed per line scatters them.
  static constexpr unsigned kChunkBits = 10;
  static constexpr std::uint64_t kChunkEntries = 1ull << kChunkBits;
  using Chunk = std::array<DirEntry, kChunkEntries>;

  // Where a line's entry lives: the chunk of its slice-local line index
  // (pa/64)/slice_interleave, keyed together with the interleave residue
  // so a line homed at another slice never aliases a local entry.
  struct DirSlot {
    std::uint64_t chunk_key;
    std::uint64_t index;  // within the chunk
  };
  DirSlot dir_slot(std::uint64_t line) const noexcept {
    const std::uint64_t global = line / kLineBytes;
    const std::uint64_t local = global / config_.slice_interleave;
    return {(local >> kChunkBits) * config_.slice_interleave +
                global % config_.slice_interleave,
            local & (kChunkEntries - 1)};
  }
  DirEntry& entry(std::uint64_t line);
  // nullptr when the line was never touched.
  const DirEntry* find_entry(std::uint64_t line) const;
  // Address as the slice's cache sees it (interleave bits stripped).
  std::uint64_t cache_addr(std::uint64_t line) const noexcept {
    return line / config_.slice_interleave;
  }
  // Fetches the line into L3 if absent; returns added latency.
  sim::TimePs ensure_in_l3(std::uint64_t line, sim::TimePs now,
                           CcmResponse& response, bool queue_dram);

  // Physical line address of the cache-space victim `l3_` reports. The
  // cache reconstructs victims at line granularity, so the interleave
  // offset inside the cache line is lost — the result lands in the
  // victim's row-buffer neighborhood, which is all a banked DRAM model
  // needs from a writeback address.
  std::uint64_t victim_line(std::uint64_t victim_cache_addr) const noexcept {
    return victim_cache_addr * config_.slice_interleave;
  }

  std::string name_;
  CcmConfig config_;
  DramModel& dram_;
  RecallFn recall_;
  SetAssocCache l3_;
  std::unordered_map<std::uint64_t, std::unique_ptr<Chunk>> chunks_;
  // One-entry memo of the last chunk entry() touched.
  std::uint64_t last_key_ = ~0ull;
  Chunk* last_chunk_ = nullptr;
  std::uint64_t recalls_ = 0;
  std::uint64_t stash_hits_ = 0;
  std::uint64_t stash_fills_ = 0;
};

}  // namespace maco::mem
