#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "mem/cache.hpp"
#include "mem/directory.hpp"
#include "mem/dram.hpp"
#include "mem/physical_memory.hpp"
#include "util/rng.hpp"

namespace maco::mem {
namespace {

TEST(PhysicalMemory, ReadBackWritten) {
  PhysicalMemory memory;
  const double value = 3.14159;
  memory.write_f64(0x1000, value);
  EXPECT_DOUBLE_EQ(memory.read_f64(0x1000), value);
}

TEST(PhysicalMemory, UntouchedReadsZero) {
  PhysicalMemory memory;
  EXPECT_DOUBLE_EQ(memory.read_f64(0xDEAD000), 0.0);
}

TEST(PhysicalMemory, CrossBlockTransfer) {
  PhysicalMemory memory;
  std::vector<std::uint8_t> data(10000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 7);
  }
  memory.write(4000, data.data(), data.size());  // spans 3+ blocks
  std::vector<std::uint8_t> out(data.size());
  memory.read(4000, out.data(), out.size());
  EXPECT_EQ(data, out);
}

TEST(PhysicalMemory, SparseResidency) {
  PhysicalMemory memory;
  memory.write_f64(0, 1.0);
  memory.write_f64(1ull << 40, 2.0);  // far apart: only 2 blocks resident
  EXPECT_EQ(memory.resident_blocks(), 2u);
}

TEST(PhysicalMemory, Fill) {
  PhysicalMemory memory;
  memory.fill(100, 8192, 0xAB);
  std::uint8_t byte = 0;
  memory.read(100 + 8191, &byte, 1);
  EXPECT_EQ(byte, 0xAB);
  memory.read(100 + 8192, &byte, 1);
  EXPECT_EQ(byte, 0);
}

TEST(Cache, HitAfterMiss) {
  SetAssocCache cache("c", CacheConfig{4096, 4, 64});
  const auto miss = cache.access(0x1000, false);
  EXPECT_FALSE(miss.hit);
  EXPECT_TRUE(miss.allocated);
  const auto hit = cache.access(0x1000, false);
  EXPECT_TRUE(hit.hit);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(Cache, WriteSetsModified) {
  SetAssocCache cache("c", CacheConfig{4096, 4, 64});
  cache.access(0x1000, true);
  EXPECT_EQ(*cache.probe(0x1000), CoherenceState::kModified);
}

TEST(Cache, LruEvictionWithinSet) {
  // Direct construction of a conflict set: 4 KiB, 2-way, 64 B lines = 32
  // sets; addresses 32*64 apart map to the same set.
  SetAssocCache cache("c", CacheConfig{4096, 2, 64});
  const std::uint64_t stride = 32 * 64;
  cache.access(0 * stride, false);
  cache.access(1 * stride, false);
  cache.access(0 * stride, false);      // refresh way 0
  const auto result = cache.access(2 * stride, false);
  EXPECT_TRUE(result.evicted);
  EXPECT_EQ(result.victim_addr, 1 * stride);
}

TEST(Cache, DirtyVictimNeedsWriteback) {
  SetAssocCache cache("c", CacheConfig{4096, 2, 64});
  const std::uint64_t stride = 32 * 64;
  cache.access(0 * stride, true);  // modified
  cache.access(1 * stride, false);
  cache.access(2 * stride, false);  // evicts way LRU = the modified line
  EXPECT_EQ(cache.writebacks(), 1u);
}

TEST(Cache, LockedLinesSurviveEviction) {
  SetAssocCache cache("c", CacheConfig{4096, 2, 64});
  const std::uint64_t stride = 32 * 64;
  cache.access(0 * stride, false);
  EXPECT_TRUE(cache.lock(0 * stride));
  cache.access(1 * stride, false);
  cache.access(2 * stride, false);  // must evict the unlocked way
  EXPECT_TRUE(cache.probe(0 * stride).has_value());
  EXPECT_TRUE(cache.is_locked(0 * stride));
}

TEST(Cache, AllWaysLockedFailsAllocation) {
  SetAssocCache cache("c", CacheConfig{4096, 2, 64});
  const std::uint64_t stride = 32 * 64;
  cache.access(0 * stride, false);
  cache.access(1 * stride, false);
  cache.lock(0 * stride);
  cache.lock(1 * stride);
  const auto result = cache.access(2 * stride, false);
  EXPECT_FALSE(result.allocated);
  EXPECT_EQ(cache.locked_lines(), 2u);
}

TEST(Cache, UnlockRestoresEvictability) {
  SetAssocCache cache("c", CacheConfig{4096, 2, 64});
  const std::uint64_t stride = 32 * 64;
  cache.access(0 * stride, false);
  cache.lock(0 * stride);
  cache.unlock(0 * stride);
  EXPECT_EQ(cache.locked_lines(), 0u);
  cache.access(1 * stride, false);
  cache.access(2 * stride, false);
  // With no locks, one of the first two lines has been evicted.
  EXPECT_EQ(cache.evictions(), 1u);
}

TEST(Dram, LatencyAndBandwidth) {
  DramController dram("d", DramConfig{25.6e9, 60'000});
  // 64 B at 25.6 GB/s = 2.5 ns transfer + 60 ns latency.
  const sim::TimePs done = dram.access(0, 64);
  EXPECT_NEAR(static_cast<double>(done), 62'500.0, 100.0);
}

TEST(Dram, BackToBackSerializesOnBus) {
  DramController dram("d", DramConfig{25.6e9, 60'000});
  const sim::TimePs first = dram.access(0, 1 << 20);   // ~41 us transfer
  const sim::TimePs second = dram.access(0, 1 << 20);  // queued behind it
  EXPECT_GT(second, first);
  EXPECT_NEAR(static_cast<double>(second - first), 40'960'000.0, 50'000.0);
}

TEST(Dram, IdleBusRecovers) {
  DramController dram("d", DramConfig{25.6e9, 60'000});
  dram.access(0, 64);
  // A request far in the future sees an idle bus.
  const sim::TimePs t = 10'000'000;
  const sim::TimePs done = dram.access(t, 64);
  EXPECT_NEAR(static_cast<double>(done - t), 62'500.0, 100.0);
}

class DirectoryTest : public ::testing::Test {
 protected:
  DirectoryTest()
      : dram_("dram", DramConfig{}),
        ccm_("ccm", CcmConfig{}, dram_,
             [this](int node, std::uint64_t line) {
               recalls_.push_back({node, line});
               return sim::TimePs{5'000};
             }) {}

  DramController dram_;
  std::vector<std::pair<int, std::uint64_t>> recalls_;
  DirectoryCcm ccm_;
};

TEST_F(DirectoryTest, GetSFillsFromDramThenHits) {
  const auto first = ccm_.handle({CcmReqType::kGetS, 0, 0x1000}, 0);
  EXPECT_FALSE(first.l3_hit);
  EXPECT_TRUE(first.dram_accessed);
  const auto second = ccm_.handle({CcmReqType::kGetS, 1, 0x1000}, 100'000);
  EXPECT_TRUE(second.l3_hit);
  EXPECT_FALSE(second.dram_accessed);
  EXPECT_EQ(ccm_.sharer_mask(0x1000), 0b11u);
}

TEST_F(DirectoryTest, GetMRecallsOwner) {
  ccm_.handle({CcmReqType::kGetM, 0, 0x1000}, 0);
  EXPECT_EQ(ccm_.node_view(0, 0x1000), CoherenceState::kModified);
  const auto response = ccm_.handle({CcmReqType::kGetM, 1, 0x1000}, 100'000);
  EXPECT_TRUE(response.recalled);
  ASSERT_EQ(recalls_.size(), 1u);
  EXPECT_EQ(recalls_[0].first, 0);
  EXPECT_EQ(ccm_.node_view(1, 0x1000), CoherenceState::kModified);
  EXPECT_EQ(ccm_.node_view(0, 0x1000), CoherenceState::kInvalid);
}

TEST_F(DirectoryTest, GetSAfterOwnerDowngrades) {
  ccm_.handle({CcmReqType::kGetM, 0, 0x1000}, 0);
  const auto response = ccm_.handle({CcmReqType::kGetS, 1, 0x1000}, 100'000);
  EXPECT_TRUE(response.recalled);
  // MOESI: old owner keeps a dirty-shared copy.
  EXPECT_EQ(ccm_.node_view(0, 0x1000), CoherenceState::kShared);
  EXPECT_EQ(ccm_.node_view(1, 0x1000), CoherenceState::kShared);
}

TEST_F(DirectoryTest, StashWarmsL3) {
  const auto stash = ccm_.handle({CcmReqType::kStash, 0, 0x2000}, 0);
  EXPECT_TRUE(stash.dram_accessed);
  EXPECT_EQ(ccm_.stash_fills(), 1u);
  const auto read = ccm_.handle({CcmReqType::kGetS, 0, 0x2000}, 1'000'000);
  EXPECT_TRUE(read.l3_hit);
}

TEST_F(DirectoryTest, StashLockPinsLine) {
  ccm_.handle({CcmReqType::kStashLock, 0, 0x3000}, 0);
  EXPECT_TRUE(ccm_.line_locked(0x3000));
  ccm_.handle({CcmReqType::kUnlock, 0, 0x3000}, 1000);
  EXPECT_FALSE(ccm_.line_locked(0x3000));
}

TEST_F(DirectoryTest, PutMMakesL3CopyDirty) {
  ccm_.handle({CcmReqType::kGetM, 0, 0x4000}, 0);
  ccm_.handle({CcmReqType::kPutM, 0, 0x4000}, 50'000);
  EXPECT_EQ(ccm_.node_view(0, 0x4000), CoherenceState::kInvalid);
  EXPECT_EQ(*ccm_.l3().probe(line_addr(0x4000)), CoherenceState::kModified);
}

TEST_F(DirectoryTest, RepeatedStashHitsAreCheap) {
  ccm_.handle({CcmReqType::kStash, 0, 0x5000}, 0);
  const auto again = ccm_.handle({CcmReqType::kStash, 0, 0x5000}, 100'000);
  EXPECT_TRUE(again.l3_hit);
  EXPECT_EQ(ccm_.stash_hits(), 1u);
}

}  // namespace
}  // namespace maco::mem

namespace maco::mem {
namespace {

TEST(StreamingStore, PutFullAllocatesWithoutDramFetch) {
  DramController dram("ss.dram", DramConfig{});
  DirectoryCcm ccm("ss.ccm", CcmConfig{}, dram);
  const auto response =
      ccm.handle({CcmReqType::kPutFull, 0, 0x4000}, 0);
  // No fetch: the line lands in L3 without a DRAM read.
  EXPECT_FALSE(response.l3_hit);
  EXPECT_EQ(dram.requests(), 0u);
  EXPECT_EQ(ccm.node_view(0, 0x4000), CoherenceState::kModified);
  // A later read hits the L3.
  const auto read = ccm.handle({CcmReqType::kGetS, 0, 0x4000}, 1000);
  EXPECT_TRUE(read.l3_hit);
  EXPECT_FALSE(read.dram_accessed);
}

TEST(StreamingStore, PutFullInvalidatesOtherSharers) {
  DramController dram("ss.dram", DramConfig{});
  int recalled_node = -1;
  DirectoryCcm ccm("ss.ccm", CcmConfig{}, dram,
                   [&](int node, std::uint64_t) {
                     recalled_node = node;
                     return sim::TimePs{500};
                   });
  ccm.handle({CcmReqType::kGetS, 1, 0x4000}, 0);
  const auto response = ccm.handle({CcmReqType::kPutFull, 0, 0x4000}, 1000);
  EXPECT_TRUE(response.recalled);
  EXPECT_EQ(recalled_node, 1);
  EXPECT_EQ(ccm.node_view(1, 0x4000), CoherenceState::kInvalid);
  EXPECT_EQ(ccm.node_view(0, 0x4000), CoherenceState::kModified);
}

TEST(SliceInterleave, StripedAddressesUseAllSets) {
  // A slice that only ever sees every 16th line must strip the interleave
  // bits, or a 16x-strided stream would collapse onto 1/16th of the sets.
  DramController dram("il.dram", DramConfig{});
  CcmConfig config;
  config.slice_interleave = 16;
  DirectoryCcm ccm("il.ccm", config, dram);

  // Stream (slice 0's share of) a working set half the slice capacity.
  const std::uint64_t lines = config.l3.size_bytes / kLineBytes / 2;
  for (std::uint64_t i = 0; i < lines; ++i) {
    ccm.handle({CcmReqType::kGetS, 0, i * 16 * kLineBytes}, 0);
  }
  // Everything fits: a second pass is all hits.
  std::uint64_t hits = 0;
  for (std::uint64_t i = 0; i < lines; ++i) {
    if (ccm.handle({CcmReqType::kGetS, 0, i * 16 * kLineBytes}, 0).l3_hit) {
      ++hits;
    }
  }
  EXPECT_EQ(hits, lines);
}

TEST(UnqueuedLatency, PteReadsDoNotInheritBusBacklog) {
  DramController dram("uq.dram", DramConfig{});
  DirectoryCcm ccm("uq.ccm", CcmConfig{}, dram);
  // Push the DRAM bus far into the future with data traffic.
  for (int i = 0; i < 1000; ++i) {
    dram.access(0, 4096);
  }
  const sim::TimePs backlog = dram.busy_until();
  ASSERT_GT(backlog, 100'000u);
  // An unqueued miss must not see the backlog as latency.
  const auto response =
      ccm.handle({CcmReqType::kGetS, 0, 0x9000}, 0, /*queue_dram=*/false);
  EXPECT_TRUE(response.dram_accessed);
  EXPECT_LT(response.latency, 100'000u);  // service time, not backlog
}

// ---- directory differential test ----
//
// A plain per-line hash-map directory running the same MOESI/stash
// protocol as DirectoryCcm, with its own L3 and DRAM. DirectoryCcm stores
// its entries however it likes; every observable (responses, per-node
// views, sharer masks, counters, L3 state, recall calls) must match this.
class ReferenceCcm {
 public:
  ReferenceCcm(const CcmConfig& config, DramModel& dram,
               DirectoryCcm::RecallFn recall)
      : config_(config), dram_(dram), recall_(std::move(recall)),
        l3_("ref.l3", config.l3) {}

  CcmResponse handle(const CcmRequest& request, sim::TimePs now,
                     bool queue_dram) {
    CcmResponse response;
    const std::uint64_t line = line_addr(request.addr);
    Entry& dir = directory_[line];
    const std::uint64_t node_bit = 1ull << request.node;
    response.latency += config_.directory_latency_ps;
    const auto recall_owner = [&](bool keep_as_sharer) {
      if (dir.owner < 0 || dir.owner == request.node) return;
      ++recalls_;
      response.recalled = true;
      response.latency += recall_(dir.owner, line);
      if (keep_as_sharer) {
        dir.sharers |= 1ull << dir.owner;
      } else {
        dir.sharers &= ~(1ull << dir.owner);
      }
      dir.owner = -1;
    };
    const auto invalidate_others = [&] {
      const std::uint64_t others = dir.sharers & ~node_bit;
      for (int n = 0; n < 64 && others != 0; ++n) {
        if (others & (1ull << n)) {
          ++recalls_;
          response.recalled = true;
          response.latency += recall_(n, line);
          break;
        }
      }
    };
    const auto fill = [&] {
      response.latency +=
          ensure_in_l3(line, now + response.latency, response, queue_dram);
    };
    switch (request.type) {
      case CcmReqType::kGetS:
        recall_owner(/*keep_as_sharer=*/true);
        fill();
        dir.sharers |= node_bit;
        break;
      case CcmReqType::kGetM:
        recall_owner(false);
        invalidate_others();
        fill();
        dir.sharers = node_bit;
        dir.owner = request.node;
        break;
      case CcmReqType::kPutFull: {
        recall_owner(false);
        invalidate_others();
        const auto result =
            l3_.access(cache(line), true, CoherenceState::kModified);
        response.latency += config_.l3_latency_ps;
        response.l3_hit = result.hit;
        if (result.evicted && result.victim_dirty) {
          if (queue_dram) {
            dram_.access(now + response.latency,
                         result.victim_addr * config_.slice_interleave,
                         kLineBytes);
          }
          response.dram_accessed = true;
        }
        if (!result.allocated) {
          response.dram_accessed = true;
          const sim::TimePs at = now + response.latency;
          response.latency += queue_dram
                                  ? dram_.access(at, line, kLineBytes) - at
                                  : dram_.service_latency(kLineBytes);
        }
        dir.sharers = node_bit;
        dir.owner = request.node;
        break;
      }
      case CcmReqType::kPutM:
        fill();
        if (l3_.probe(cache(line))) {
          l3_.set_state(cache(line), CoherenceState::kModified);
        }
        if (dir.owner == request.node) dir.owner = -1;
        dir.sharers &= ~node_bit;
        break;
      case CcmReqType::kStash:
        if (l3_.probe(cache(line))) {
          ++stash_hits_;
          response.l3_hit = true;
          response.latency += config_.l3_latency_ps;
        } else {
          ++stash_fills_;
          fill();
        }
        break;
      case CcmReqType::kStashLock:
        if (l3_.probe(cache(line))) {
          ++stash_hits_;
        } else {
          ++stash_fills_;
        }
        fill();
        l3_.lock(cache(line));
        break;
      case CcmReqType::kUnlock:
        l3_.unlock(cache(line));
        break;
    }
    return response;
  }

  CoherenceState node_view(int node, std::uint64_t addr) const {
    const auto it = directory_.find(line_addr(addr));
    if (it == directory_.end()) return CoherenceState::kInvalid;
    if (it->second.owner == node) return CoherenceState::kModified;
    if (it->second.sharers & (1ull << node)) return CoherenceState::kShared;
    return CoherenceState::kInvalid;
  }
  std::uint64_t sharer_mask(std::uint64_t addr) const {
    const auto it = directory_.find(line_addr(addr));
    return it == directory_.end() ? 0 : it->second.sharers;
  }
  bool line_locked(std::uint64_t addr) const {
    return l3_.is_locked(cache(line_addr(addr)));
  }
  std::uint64_t recalls() const { return recalls_; }
  std::uint64_t stash_hits() const { return stash_hits_; }
  std::uint64_t stash_fills() const { return stash_fills_; }
  const SetAssocCache& l3() const { return l3_; }
  std::uint64_t cache(std::uint64_t line) const {
    return line / config_.slice_interleave;
  }

 private:
  struct Entry {
    std::uint64_t sharers = 0;
    int owner = -1;
  };

  sim::TimePs ensure_in_l3(std::uint64_t line, sim::TimePs now,
                           CcmResponse& response, bool queue_dram) {
    const auto result = l3_.access(cache(line), false);
    if (result.hit) {
      response.l3_hit = true;
      return config_.l3_latency_ps;
    }
    response.dram_accessed = true;
    const bool writeback = result.evicted && result.victim_dirty;
    if (!queue_dram) {
      return config_.l3_latency_ps +
             (writeback ? dram_.service_latency(kLineBytes) : 0) +
             dram_.service_latency(kLineBytes);
    }
    sim::TimePs t = now + config_.l3_latency_ps;
    if (writeback) {
      t = dram_.access(t, result.victim_addr * config_.slice_interleave,
                       kLineBytes);
    }
    return dram_.access(t, line, kLineBytes) - now;
  }

  CcmConfig config_;
  DramModel& dram_;
  DirectoryCcm::RecallFn recall_;
  SetAssocCache l3_;
  std::unordered_map<std::uint64_t, Entry> directory_;
  std::uint64_t recalls_ = 0;
  std::uint64_t stash_hits_ = 0;
  std::uint64_t stash_fills_ = 0;
};

void run_directory_differential(unsigned interleave, std::uint64_t seed) {
  SCOPED_TRACE("slice_interleave=" + std::to_string(interleave) +
               " seed=" + std::to_string(seed));
  CcmConfig config;
  config.l3 = CacheConfig{64 * 1024, 4, kLineBytes};  // small: evictions
  config.slice_interleave = interleave;
  using Recall = std::vector<std::pair<int, std::uint64_t>>;
  Recall recalls, ref_recalls;
  const auto recorder = [](Recall& log) {
    return [&log](int node, std::uint64_t line) {
      log.emplace_back(node, line);
      return sim::TimePs{1'000 + 100 * static_cast<unsigned>(node)};
    };
  };
  DramController dram("diff.dram", DramConfig{});
  DramController ref_dram("ref.dram", DramConfig{});
  DirectoryCcm ccm("diff.ccm", config, dram, recorder(recalls));
  ReferenceCcm ref(config, ref_dram, recorder(ref_recalls));

  constexpr int kNodes = 6;
  constexpr unsigned kHome = 3;  // this slice's line residue
  util::Rng rng(seed);
  // Lines this slice homes, drawn from a dense region (chunk-boundary
  // traffic), a far region and sparse 48-bit addresses.
  const auto home_line = [&]() -> std::uint64_t {
    std::uint64_t index = 0;
    switch (rng.next_below(3)) {
      case 0: index = rng.next_below(4096); break;
      case 1: index = (1ull << 30) + rng.next_below(2048); break;
      default: index = rng.next_below(1ull << 42); break;
    }
    return (index * interleave + kHome % interleave) * kLineBytes;
  };
  std::vector<std::uint64_t> touched;
  sim::TimePs now = 0;
  for (int step = 0; step < 20'000; ++step) {
    CcmRequest request;
    request.type = static_cast<CcmReqType>(rng.next_below(7));
    request.node = static_cast<int>(rng.next_below(kNodes));
    // Mostly revisit earlier lines so every state transition gets hit.
    request.addr = !touched.empty() && rng.next_below(4) != 0
                       ? touched[rng.next_below(touched.size())]
                       : home_line();
    request.addr += rng.next_below(kLineBytes);  // any byte of the line
    touched.push_back(line_addr(request.addr));
    const bool queue_dram = rng.next_below(8) != 0;
    now += rng.next_below(50'000);

    const CcmResponse got = ccm.handle(request, now, queue_dram);
    const CcmResponse want = ref.handle(request, now, queue_dram);
    ASSERT_EQ(got.latency, want.latency) << "step " << step;
    ASSERT_EQ(got.l3_hit, want.l3_hit) << "step " << step;
    ASSERT_EQ(got.dram_accessed, want.dram_accessed) << "step " << step;
    ASSERT_EQ(got.recalled, want.recalled) << "step " << step;
    ASSERT_EQ(ccm.sharer_mask(request.addr), ref.sharer_mask(request.addr));
    for (int n = 0; n < kNodes; ++n) {
      ASSERT_EQ(ccm.node_view(n, request.addr),
                ref.node_view(n, request.addr))
          << "step " << step << " node " << n;
    }
    ASSERT_EQ(ccm.line_locked(request.addr), ref.line_locked(request.addr));
  }
  EXPECT_EQ(recalls, ref_recalls);
  EXPECT_EQ(ccm.recalls(), ref.recalls());
  EXPECT_EQ(ccm.stash_hits(), ref.stash_hits());
  EXPECT_EQ(ccm.stash_fills(), ref.stash_fills());
  EXPECT_GT(ccm.recalls(), 0u);
  EXPECT_GT(ccm.stash_hits(), 0u);
  EXPECT_EQ(dram.requests(), ref_dram.requests());
  EXPECT_EQ(ccm.l3().hits(), ref.l3().hits());
  EXPECT_EQ(ccm.l3().misses(), ref.l3().misses());
  EXPECT_EQ(ccm.l3().evictions(), ref.l3().evictions());
  EXPECT_EQ(ccm.l3().locked_lines(), ref.l3().locked_lines());
  EXPECT_GT(ccm.l3().evictions(), 0u);

  // Final state of every touched line, plus queries the stream never made:
  // untouched home lines and lines homed at other slices (their residues
  // differ, so they must read absent even next to touched lines).
  std::vector<std::uint64_t> queries = touched;
  for (int i = 0; i < 2'000; ++i) queries.push_back(home_line());
  for (const std::uint64_t line : touched) {
    for (unsigned r = 1; r < interleave; ++r) {
      queries.push_back(line + r * kLineBytes);
    }
    if (queries.size() > touched.size() + 40'000) break;
  }
  for (const std::uint64_t addr : queries) {
    ASSERT_EQ(ccm.sharer_mask(addr), ref.sharer_mask(addr)) << addr;
    for (int n = 0; n < kNodes; ++n) {
      ASSERT_EQ(ccm.node_view(n, addr), ref.node_view(n, addr)) << addr;
    }
    ASSERT_EQ(ccm.l3().probe(ref.cache(addr)), ref.l3().probe(ref.cache(addr)))
        << addr;
    ASSERT_EQ(ccm.line_locked(addr), ref.line_locked(addr)) << addr;
  }
  // Never-touched addresses read absent outright.
  for (const std::uint64_t addr : {0xFFFF'FFFF'FFC0ull, 0x1234'5678'9A00ull}) {
    EXPECT_EQ(ccm.sharer_mask(addr), 0u);
    EXPECT_EQ(ccm.node_view(0, addr), CoherenceState::kInvalid);
  }
}

TEST(DirectoryDifferential, MatchesHashMapReferenceUnstriped) {
  for (const std::uint64_t seed : {1, 2, 3}) {
    run_directory_differential(1, seed);
  }
}

TEST(DirectoryDifferential, MatchesHashMapReferenceStriped) {
  for (const std::uint64_t seed : {1, 2, 3}) {
    run_directory_differential(16, seed);
  }
}

}  // namespace
}  // namespace maco::mem
