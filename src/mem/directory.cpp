#include "mem/directory.hpp"

#include "util/assert.hpp"

namespace maco::mem {

DirectoryCcm::DirectoryCcm(std::string name, const CcmConfig& config,
                           DramModel& dram, RecallFn recall)
    : name_(std::move(name)), config_(config), dram_(dram),
      recall_(std::move(recall)), l3_(name_ + ".l3", config.l3) {}

DirectoryCcm::DirEntry& DirectoryCcm::entry(std::uint64_t line) {
  const DirSlot slot = dir_slot(line);
  if (slot.chunk_key != last_key_) {
    auto& chunk = chunks_[slot.chunk_key];
    if (!chunk) chunk = std::make_unique<Chunk>();
    last_key_ = slot.chunk_key;
    last_chunk_ = chunk.get();
  }
  return (*last_chunk_)[slot.index];
}

const DirectoryCcm::DirEntry* DirectoryCcm::find_entry(
    std::uint64_t line) const {
  const DirSlot slot = dir_slot(line);
  const auto it = chunks_.find(slot.chunk_key);
  return it == chunks_.end() ? nullptr : &(*it->second)[slot.index];
}

sim::TimePs DirectoryCcm::ensure_in_l3(std::uint64_t line, sim::TimePs now,
                                       CcmResponse& response,
                                       bool queue_dram) {
  const auto result = l3_.access(cache_addr(line), /*write=*/false,
                                 CoherenceState::kExclusive);
  if (result.hit) {
    response.l3_hit = true;
    return config_.l3_latency_ps;
  }
  response.dram_accessed = true;
  if (!queue_dram) {
    // Unqueued estimate: same state transitions, service-time latency.
    sim::TimePs latency = config_.l3_latency_ps;
    if (result.evicted && result.victim_dirty) {
      latency += dram_.service_latency(kLineBytes);
    }
    return latency + dram_.service_latency(kLineBytes);
  }
  // Victim writeback rides the same DRAM bus before the fill.
  sim::TimePs t = now + config_.l3_latency_ps;
  if (result.evicted && result.victim_dirty) {
    t = dram_.access(t, victim_line(result.victim_addr), kLineBytes);
  }
  if (!result.allocated) {
    // All ways locked: serve uncached straight from DRAM.
    return dram_.access(t, line, kLineBytes) - now;
  }
  return dram_.access(t, line, kLineBytes) - now;
}

CcmResponse DirectoryCcm::handle(const CcmRequest& request, sim::TimePs now,
                                 bool queue_dram) {
  CcmResponse response;
  const std::uint64_t line = line_addr(request.addr);
  DirEntry& dir = entry(line);
  const std::uint64_t node_bit = 1ull << request.node;
  response.latency += config_.directory_latency_ps;

  switch (request.type) {
    case CcmReqType::kGetS: {
      // If a private cache owns a modified copy, recall it first.
      if (dir.owner >= 0 && dir.owner != request.node) {
        ++recalls_;
        response.recalled = true;
        if (recall_) {
          response.latency += recall_(dir.owner, line);
        }
        // Owner downgrades to Owned (MOESI: dirty-shared) and stays a sharer.
        dir.sharers |= 1ull << dir.owner;
        dir.owner = -1;
      }
      response.latency +=
          ensure_in_l3(line, now + response.latency, response, queue_dram);
      dir.sharers |= node_bit;
      break;
    }
    case CcmReqType::kGetM: {
      if (dir.owner >= 0 && dir.owner != request.node) {
        ++recalls_;
        response.recalled = true;
        if (recall_) response.latency += recall_(dir.owner, line);
        // The recall invalidates the owner's copy outright (GetM), so it
        // must not linger in the sharer set and be invalidated again.
        dir.sharers &= ~(1ull << dir.owner);
        dir.owner = -1;
      }
      // Invalidate all other sharers (latency dominated by the farthest;
      // the recall function models one round trip).
      const std::uint64_t others = dir.sharers & ~node_bit;
      if (others != 0 && recall_) {
        for (int n = 0; n < 64; ++n) {
          if (others & (1ull << n)) {
            ++recalls_;
            response.recalled = true;
            response.latency += recall_(n, line);
            break;  // overlapped invalidations: charge the first round trip
          }
        }
      }
      response.latency +=
          ensure_in_l3(line, now + response.latency, response, queue_dram);
      dir.sharers = node_bit;
      dir.owner = request.node;
      break;
    }
    case CcmReqType::kPutFull: {
      // Full-line store: the writer overwrites every byte, so no fetch.
      if (dir.owner >= 0 && dir.owner != request.node) {
        ++recalls_;
        response.recalled = true;
        if (recall_) response.latency += recall_(dir.owner, line);
        dir.sharers &= ~(1ull << dir.owner);
        dir.owner = -1;
      }
      const std::uint64_t others = dir.sharers & ~node_bit;
      if (others != 0 && recall_) {
        for (int n = 0; n < 64; ++n) {
          if (others & (1ull << n)) {
            ++recalls_;
            response.recalled = true;
            response.latency += recall_(n, line);
            break;
          }
        }
      }
      const auto result = l3_.access(cache_addr(line), /*write=*/true,
                                      CoherenceState::kModified);
      response.latency += config_.l3_latency_ps;
      response.l3_hit = result.hit;
      if (result.evicted && result.victim_dirty) {
        // Posted victim writeback: books the bus, off the critical path.
        if (queue_dram) {
          dram_.access(now + response.latency,
                       victim_line(result.victim_addr), kLineBytes);
        }
        response.dram_accessed = true;
      }
      if (!result.allocated) {
        // Every way locked: the store streams straight to DRAM.
        response.dram_accessed = true;
        response.latency += queue_dram ? dram_.access(now + response.latency,
                                                      line, kLineBytes) -
                                             (now + response.latency)
                                       : dram_.service_latency(kLineBytes);
      }
      dir.sharers = node_bit;
      dir.owner = request.node;
      break;
    }
    case CcmReqType::kPutM: {
      // Writeback: the line lands in L3 (allocate-on-writeback).
      response.latency +=
          ensure_in_l3(line, now + response.latency, response, queue_dram);
      const auto state = l3_.probe(cache_addr(line));
      if (state) l3_.set_state(cache_addr(line), CoherenceState::kModified);
      if (dir.owner == request.node) dir.owner = -1;
      dir.sharers &= ~node_bit;
      break;
    }
    case CcmReqType::kStash: {
      const auto before = l3_.probe(cache_addr(line));
      if (before) {
        ++stash_hits_;
        response.l3_hit = true;
        response.latency += config_.l3_latency_ps;
      } else {
        ++stash_fills_;
        response.latency +=
            ensure_in_l3(line, now + response.latency, response, queue_dram);
      }
      break;
    }
    case CcmReqType::kStashLock: {
      // Same fill/hit accounting as kStash, plus the lock.
      if (l3_.probe(cache_addr(line))) {
        ++stash_hits_;
      } else {
        ++stash_fills_;
      }
      response.latency +=
          ensure_in_l3(line, now + response.latency, response, queue_dram);
      l3_.lock(cache_addr(line));
      break;
    }
    case CcmReqType::kUnlock: {
      l3_.unlock(cache_addr(line));
      break;
    }
  }
  return response;
}

CoherenceState DirectoryCcm::node_view(int node, std::uint64_t addr) const {
  const DirEntry* dir = find_entry(line_addr(addr));
  if (dir == nullptr) return CoherenceState::kInvalid;
  if (dir->owner == node) return CoherenceState::kModified;
  if (dir->sharers & (1ull << node)) return CoherenceState::kShared;
  return CoherenceState::kInvalid;
}

std::uint64_t DirectoryCcm::sharer_mask(std::uint64_t addr) const {
  const DirEntry* dir = find_entry(line_addr(addr));
  return dir == nullptr ? 0 : dir->sharers;
}

}  // namespace maco::mem
