#include <gtest/gtest.h>

#include <stdlib.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cache/chunk_cache.h"
#include "cache/disk_tier.h"
#include "cache/warm_tier.h"
#include "core/invalidation.h"
#include "core/no_aggregation.h"
#include "core/query_engine.h"
#include "storage/chunk_codec.h"
#include "storage/chunk_data.h"
#include "test_env.h"
#include "test_util.h"
#include "util/check.h"
#include "util/deadline.h"
#include "util/rng.h"
#include "workload/experiment.h"
#include "workload/workload_runner.h"

namespace aac {
namespace {

// Logical bytes per tuple for the tiered environments (the paper's 20-byte
// tuples, doubled so compression ratios over the modeled size are clearly
// above 1 on this tiny cube).
constexpr int64_t kTupleBytes = 40;

// Bit-for-bit structural equality (codec contract, stronger than
// ChunkDataEquals' epsilon compare).
::testing::AssertionResult BitIdentical(const ChunkData& a,
                                        const ChunkData& b) {
  if (a.gb != b.gb || a.chunk != b.chunk) {
    return ::testing::AssertionFailure() << "key mismatch";
  }
  if (a.cells.size() != b.cells.size()) {
    return ::testing::AssertionFailure()
           << "cell count " << a.cells.size() << " vs " << b.cells.size();
  }
  for (size_t i = 0; i < a.cells.size(); ++i) {
    const Cell& x = a.cells[i];
    const Cell& y = b.cells[i];
    for (size_t d = 0; d < kMaxDims; ++d) {
      if (x.values[d] != y.values[d]) {
        return ::testing::AssertionFailure() << "cell " << i << " coords";
      }
    }
    if (x.count != y.count ||
        std::bit_cast<uint64_t>(x.measure) !=
            std::bit_cast<uint64_t>(y.measure) ||
        std::bit_cast<uint64_t>(x.min) != std::bit_cast<uint64_t>(y.min) ||
        std::bit_cast<uint64_t>(x.max) != std::bit_cast<uint64_t>(y.max)) {
      return ::testing::AssertionFailure() << "cell " << i << " aggregates";
    }
  }
  return ::testing::AssertionSuccess();
}

// A warm tier wired as the cache's demotion sink over the standard test
// environment. Hot capacity is deliberately tiny so inserts demote.
struct TieredEnv {
  TestEnv env;
  std::unique_ptr<DiskTier> disk;
  std::unique_ptr<WarmTier> warm;
};

TieredEnv MakeTieredEnv(int64_t hot_capacity, int64_t warm_capacity,
                        int64_t disk_capacity = 0,
                        const std::string& disk_path = "") {
  TieredEnv t;
  t.env = MakeTestEnv(MakeThreeDimCube(), /*density=*/0.5, /*seed=*/11,
                      hot_capacity, /*two_level_policy=*/false, kTupleBytes);
  if (disk_capacity > 0) {
    DiskTier::Config dc;
    dc.path = disk_path;
    dc.capacity_bytes = disk_capacity;
    t.disk = std::make_unique<DiskTier>(dc);
    EXPECT_TRUE(t.disk->Open());
  }
  WarmTier::Config wc;
  wc.capacity_bytes = warm_capacity;
  wc.num_dims = t.env.schema().num_dims();
  wc.disk = t.disk.get();
  t.warm = std::make_unique<WarmTier>(wc);
  t.env.cache->set_demotion_sink(t.warm.get());
  return t;
}

// Ground truth for chunk (gb, c) straight from the backend.
ChunkData BackendTruth(TestEnv& env, GroupById gb, ChunkId chunk) {
  std::vector<ChunkData> data =
      env.backend->ExecuteChunkQuery(gb, {chunk}).chunks;
  return std::move(data[0]);
}

// Caches every base-level chunk; with a scarce hot tier this demotes a
// prefix of them into the warm tier.
void FillBase(TieredEnv& t) {
  const GroupById base = t.env.lattice().base_id();
  for (ChunkId c = 0; c < t.env.grid().NumChunks(base); ++c) {
    CacheChunkFromBackend(t.env, base, c);
  }
}

// A base chunk resident in the warm tier and NOT in the hot tier (-1 if
// none): the natural promotion candidate.
ChunkId FindWarmOnly(TieredEnv& t) {
  const GroupById base = t.env.lattice().base_id();
  for (ChunkId c = 0; c < t.env.grid().NumChunks(base); ++c) {
    if (t.warm->Contains({base, c}) && !t.env.cache->Contains({base, c})) {
      return c;
    }
  }
  return -1;
}

CacheEntryInfo DemotionInfo(TestEnv& env, const ChunkData& data) {
  CacheEntryInfo info;
  info.key = {data.gb, data.chunk};
  info.bytes = data.LogicalBytes(kTupleBytes);
  info.benefit = env.benefit->BackendChunkBenefit(data.gb, data.chunk);
  info.source = ChunkSource::kBackend;
  return info;
}

// Two base chunks over a hot tier that holds either of them but not both,
// so promoting one demotes the other. Neither is in any tier yet.
struct PromotionPair {
  TieredEnv t;
  ChunkData truth_a;
  ChunkData truth_b;
  CacheKey a() const { return {truth_a.gb, truth_a.chunk}; }
  CacheKey b() const { return {truth_b.gb, truth_b.chunk}; }
};

PromotionPair MakePromotionPair(int64_t disk_capacity = 0,
                                const std::string& disk_path = "") {
  // Size the hot tier from the chunks of an identical environment.
  TestEnv sizing = MakeTestEnv(MakeThreeDimCube(), /*density=*/0.5,
                               /*seed=*/11, 1 << 20,
                               /*two_level_policy=*/false, kTupleBytes);
  const GroupById base = sizing.lattice().base_id();
  std::vector<ChunkData> picked;
  for (ChunkId c = 0; c < sizing.grid().NumChunks(base) && picked.size() < 2;
       ++c) {
    ChunkData data = BackendTruth(sizing, base, c);
    if (data.tuple_count() >= 2) picked.push_back(std::move(data));
  }
  AAC_CHECK_EQ(picked.size(), 2u);
  const int64_t hot = picked[0].LogicalBytes(kTupleBytes) +
                      picked[1].LogicalBytes(kTupleBytes) - kTupleBytes;
  return {MakeTieredEnv(hot, /*warm_capacity=*/1 << 20, disk_capacity,
                        disk_path),
          std::move(picked[0]), std::move(picked[1])};
}

void DemoteToWarm(TieredEnv& t, const ChunkData& data) {
  ChunkData copy = data;
  t.warm->OnDemote(DemotionInfo(t.env, data), std::move(copy));
}

// Probes `key` and promotes the hit into the hot tier with the blob it
// was decoded from, as the engine's miss path does.
WarmProbeResult Promote(TieredEnv& t, const CacheKey& key) {
  WarmProbeResult probe;
  EXPECT_TRUE(t.warm->Probe(key, nullptr, &probe));
  EXPECT_NE(probe.blob, nullptr);
  EXPECT_TRUE(t.env.cache->Insert(probe.data, probe.info.benefit,
                                  probe.info.source, probe.blob));
  return probe;
}

std::vector<uint8_t> Encoded(const TieredEnv& t, const ChunkData& data) {
  std::vector<uint8_t> blob;
  EncodeChunk(t.env.schema().num_dims(), data, &blob);
  return blob;
}

// The demotion pipeline's ledger: every hot eviction with a sink installed
// is exactly one warm-tier offer, and the demoted bytes leave the hot
// budget atomically (bytes_used never exceeds capacity, invariants hold on
// both tiers throughout).
TEST(TieredCacheTest, DemotionLedgerMatchesAcrossTiers) {
  TieredEnv t = MakeTieredEnv(/*hot_capacity=*/2500,
                              /*warm_capacity=*/1 << 20);
  const GroupById base = t.env.lattice().base_id();
  ASSERT_GT(t.env.grid().NumChunks(base), 3);
  for (ChunkId c = 0; c < t.env.grid().NumChunks(base); ++c) {
    CacheChunkFromBackend(t.env, base, c);
    EXPECT_LE(t.env.cache->bytes_used(), t.env.cache->capacity_bytes());
  }
  const CacheStats hot = t.env.cache->stats();
  const WarmTierStats warm = t.warm->stats();
  EXPECT_GT(hot.demotions, 0);
  EXPECT_EQ(hot.demotions, warm.offers);
  EXPECT_EQ(hot.demotions, hot.evictions);  // every eviction was demoted
  EXPECT_GT(hot.demoted_bytes, 0);
  EXPECT_EQ(hot.demoted_bytes, warm.demoted_raw_bytes);  // no gate: all in
  EXPECT_EQ(warm.admits, warm.offers);
  EXPECT_GT(warm.CompressionRatio(), 1.0);
  EXPECT_LE(t.warm->bytes_used(), t.warm->capacity_bytes());
  EXPECT_TRUE(t.env.cache->ValidateInvariants());
  EXPECT_TRUE(t.warm->ValidateInvariants());
}

// The demotion gate drops empty victims, whatever their benefit, instead
// of compressing them; every other victim passes it.
TEST(TieredCacheTest, DemotionGateRejectsLowBenefitVictims) {
  TieredEnv t = MakeTieredEnv(/*hot_capacity=*/2500,
                              /*warm_capacity=*/1 << 20);
  FillBase(t);
  const WarmTierStats before = t.warm->stats();
  const size_t resident = t.warm->num_entries();
  EXPECT_GT(before.offers, 0);
  EXPECT_EQ(before.gate_rejected, 0);

  const CacheKey empty_key{t.env.lattice().top_id(), 0};
  ASSERT_FALSE(t.warm->Contains(empty_key));
  CacheEntryInfo info;
  info.key = empty_key;
  info.bytes = 0;
  info.benefit = 1e18;
  ChunkData empty;
  empty.gb = empty_key.gb;
  empty.chunk = empty_key.chunk;
  t.warm->OnDemote(info, std::move(empty));

  const WarmTierStats after = t.warm->stats();
  EXPECT_EQ(after.offers, before.offers + 1);
  EXPECT_EQ(after.gate_rejected, 1);
  EXPECT_EQ(after.admits, before.admits);
  EXPECT_FALSE(t.warm->Contains(empty_key));
  EXPECT_EQ(t.warm->num_entries(), resident);
  EXPECT_TRUE(t.warm->ValidateInvariants());
}

// Demote -> Probe -> promote: the chunk that comes back out of the warm
// tier is bit-identical to what went in, and promotion makes residency
// single-tier again (the hot insert's OnErase purges the warm copy).
TEST(TieredCacheTest, PromotionRoundTripIsBitIdenticalAndSingleTier) {
  TieredEnv t = MakeTieredEnv(/*hot_capacity=*/2500,
                              /*warm_capacity=*/1 << 20);
  FillBase(t);
  const GroupById base = t.env.lattice().base_id();
  const ChunkId victim = FindWarmOnly(t);
  ASSERT_GE(victim, 0);
  const ChunkData truth = BackendTruth(t.env, base, victim);

  WarmProbeResult probe;
  ASSERT_TRUE(t.warm->Probe({base, victim}, nullptr, &probe));
  EXPECT_TRUE(BitIdentical(truth, probe.data));
  EXPECT_FALSE(probe.from_disk);
  EXPECT_GT(probe.decode_ns, 0);
  EXPECT_GT(probe.info.benefit, 0.0);

  // Promote, as the engine's miss path does.
  ASSERT_TRUE(t.env.cache->Insert(probe.data, probe.info.benefit,
                                  probe.info.source));
  EXPECT_TRUE(t.env.cache->Contains({base, victim}));
  EXPECT_FALSE(t.warm->Contains({base, victim}));  // purged by OnErase
  EXPECT_GT(t.warm->stats().erased, 0);
  EXPECT_TRUE(t.env.cache->ValidateInvariants());
  EXPECT_TRUE(t.warm->ValidateInvariants());
}

// A promoted chunk keeps the blob it was decoded from, and its demotion
// re-admits that blob without encoding: the warm tier then holds the very
// bytes EncodeChunk would have produced.
TEST(TieredCacheTest, PromotedChunkDemotesWithoutEncoding) {
  PromotionPair p = MakePromotionPair();
  TieredEnv& t = p.t;
  DemoteToWarm(t, p.truth_a);
  DemoteToWarm(t, p.truth_b);

  const EncodedBlob blob_a = Promote(t, p.a()).blob;
  EXPECT_EQ(*blob_a, Encoded(t, p.truth_a));
  const WarmTierStats before = t.warm->stats();
  Promote(t, p.b());  // demotes A
  const WarmTierStats after = t.warm->stats();
  EXPECT_FALSE(t.env.cache->Contains(p.a()));
  EXPECT_TRUE(t.warm->Contains(p.a()));
  EXPECT_EQ(after.offers - before.offers, 1);
  EXPECT_EQ(after.admits - before.admits, 1);
  EXPECT_EQ(after.reused_blobs - before.reused_blobs, 1);
  EXPECT_EQ(after.encode_ns, before.encode_ns);

  WarmProbeResult again;
  ASSERT_TRUE(t.warm->Probe(p.a(), nullptr, &again));
  EXPECT_EQ(again.blob, blob_a);  // the same bytes, shared, not re-made
  EXPECT_EQ(*again.blob, Encoded(t, p.truth_a));
  EXPECT_TRUE(BitIdentical(p.truth_a, again.data));
  EXPECT_TRUE(t.env.cache->ValidateInvariants());
  EXPECT_TRUE(t.warm->ValidateInvariants());
}

// A base write between promotion and eviction, patched in place or
// re-fetched and inserted over the key, drops the kept blob: the next
// demotion encodes the new data, and promoting it back equals a fresh
// backend fold exactly.
TEST(TieredCacheTest, ChangedPromotedChunkDemotesItsNewData) {
  for (const bool patch : {true, false}) {
    SCOPED_TRACE(patch ? "Patch" : "re-Insert");
    PromotionPair p = MakePromotionPair();
    TieredEnv& t = p.t;
    DemoteToWarm(t, p.truth_a);
    DemoteToWarm(t, p.truth_b);
    const EncodedBlob old_blob = Promote(t, p.a()).blob;

    // One fact tuple that merges into A's first cell.
    Cell write = p.truth_a.cells.front();
    InitCellAggregates(write, 7.0);
    if (patch) {
      ApplyFactUpdates(t.env.table.get(), t.env.cache.get(), {write});
      ASSERT_EQ(t.env.cache->stats().patched, 1);
    } else {
      t.env.table->ApplyInserts({write});
      CacheChunkFromBackend(t.env, p.a().gb, p.a().chunk);
    }
    ASSERT_TRUE(t.env.cache->Contains(p.a()));
    ChunkData fresh = BackendTruth(t.env, p.a().gb, p.a().chunk);

    const WarmTierStats before = t.warm->stats();
    Promote(t, p.b());  // demotes A
    const WarmTierStats after = t.warm->stats();
    EXPECT_EQ(after.offers - before.offers, 1);
    EXPECT_EQ(after.reused_blobs, before.reused_blobs);
    EXPECT_GT(after.encode_ns, before.encode_ns);

    WarmProbeResult back;
    ASSERT_TRUE(t.warm->Probe(p.a(), nullptr, &back));
    EXPECT_NE(back.blob, old_blob);
    EXPECT_NE(*back.blob, *old_blob);
    EXPECT_TRUE(ChunkDataEquals(t.env.schema().num_dims(), &back.data, &fresh,
                                /*epsilon=*/0.0));
    EXPECT_TRUE(t.env.cache->ValidateInvariants());
    EXPECT_TRUE(t.warm->ValidateInvariants());
  }
}

// A disk hit's read buffer is the blob the promoted entry keeps: its
// demotion into warm RAM encodes nothing and re-admits those bytes.
TEST(TieredCacheTest, DiskPromotionReusesItsReadBuffer) {
  const std::string path = testing::TempDir() + "/aac_disk_reuse_test.bin";
  PromotionPair p = MakePromotionPair(/*disk_capacity=*/1 << 20, path);
  TieredEnv& t = p.t;
  ASSERT_TRUE(t.disk->Admit(DemotionInfo(t.env, p.truth_a),
                            Encoded(t, p.truth_a)));
  DemoteToWarm(t, p.truth_b);

  const WarmProbeResult from_disk = Promote(t, p.a());
  EXPECT_TRUE(from_disk.from_disk);
  EXPECT_EQ(*from_disk.blob, Encoded(t, p.truth_a));
  EXPECT_FALSE(t.disk->Contains(p.a()));  // purged by the promotion
  const WarmTierStats before = t.warm->stats();
  Promote(t, p.b());  // demotes A into warm RAM
  const WarmTierStats after = t.warm->stats();
  EXPECT_EQ(after.reused_blobs - before.reused_blobs, 1);
  EXPECT_EQ(after.encode_ns, before.encode_ns);

  WarmProbeResult again;
  ASSERT_TRUE(t.warm->Probe(p.a(), nullptr, &again));
  EXPECT_FALSE(again.from_disk);
  EXPECT_EQ(again.blob, from_disk.blob);
  EXPECT_TRUE(BitIdentical(p.truth_a, again.data));
  EXPECT_TRUE(t.warm->ValidateInvariants());
  EXPECT_TRUE(t.disk->ValidateInvariants());
  std::remove(path.c_str());
}

// A sink written against OnDemote alone still sees every demotion,
// including those of promoted entries that carry a blob.
TEST(TieredCacheTest, OnDemoteOnlySinkReceivesEveryDemotion) {
  class RecordingSink : public DemotionSink {
   public:
    void OnDemote(const CacheEntryInfo& info, ChunkData&& data) override {
      EXPECT_EQ(info.key.chunk, data.chunk);
      demoted.push_back(std::move(data));
    }
    void OnErase(const CacheKey&) override {}
    std::vector<ChunkData> demoted;
  };
  TestEnv env = MakeTestEnv(MakeThreeDimCube(), /*density=*/0.5, /*seed=*/11,
                            /*capacity_bytes=*/2500,
                            /*two_level_policy=*/false, kTupleBytes);
  RecordingSink sink;
  env.cache->set_demotion_sink(&sink);
  const int nd = env.schema().num_dims();
  const GroupById base = env.lattice().base_id();
  std::vector<ChunkData> truth;
  for (ChunkId c = 0; c < env.grid().NumChunks(base); ++c) {
    truth.push_back(BackendTruth(env, base, c));
    auto blob = std::make_shared<std::vector<uint8_t>>();
    EncodeChunk(nd, truth.back(), blob.get());
    env.cache->Insert(truth.back(), 100.0, ChunkSource::kBackend,
                      std::move(blob));
  }
  const CacheStats stats = env.cache->stats();
  EXPECT_GT(stats.demotions, 0);
  ASSERT_EQ(static_cast<int64_t>(sink.demoted.size()), stats.demotions);
  for (const ChunkData& data : sink.demoted) {
    EXPECT_TRUE(BitIdentical(truth[static_cast<size_t>(data.chunk)], data));
  }
}

// An expired deadline turns a would-be warm hit into a miss: overloaded
// queries never pay for a decode they cannot use.
TEST(TieredCacheTest, ExpiredDeadlineProbesMiss) {
  TieredEnv t = MakeTieredEnv(/*hot_capacity=*/2500,
                              /*warm_capacity=*/1 << 20);
  FillBase(t);
  const GroupById base = t.env.lattice().base_id();
  const ChunkId victim = FindWarmOnly(t);
  ASSERT_GE(victim, 0);

  ExecContext ctx;
  ctx.deadline = Deadline::AfterNanos(-1);  // already expired
  WarmProbeResult probe;
  EXPECT_FALSE(t.warm->Probe({base, victim}, &ctx, &probe));
  EXPECT_GT(t.warm->stats().misses, 0);
  // The entry is untouched and still probeable without a deadline.
  WarmProbeResult retry;
  EXPECT_TRUE(t.warm->Probe({base, victim}, nullptr, &retry));
}

// Warm-tier CLOCK victims spill to the disk tier and promote back from it
// bit-identically, with the probe reporting disk provenance.
TEST(TieredCacheTest, WarmEvictionSpillsToDiskAndPromotesBack) {
  const std::string path = testing::TempDir() + "/aac_spill_test.bin";
  TieredEnv t = MakeTieredEnv(/*hot_capacity=*/2500, /*warm_capacity=*/512,
                              /*disk_capacity=*/1 << 20, path);
  const GroupById base = t.env.lattice().base_id();
  const ChunkId chunks = t.env.grid().NumChunks(base);
  std::vector<ChunkData> truth;
  for (ChunkId c = 0; c < chunks; ++c) {
    truth.push_back(BackendTruth(t.env, base, c));
    CacheChunkFromBackend(t.env, base, c);
  }
  const WarmTierStats warm = t.warm->stats();
  EXPECT_GT(warm.evictions, 0);
  EXPECT_GT(warm.spills, 0);
  const DiskTierStats disk = t.disk->stats();
  EXPECT_EQ(disk.admits, warm.spills);
  EXPECT_GT(t.disk->num_entries(), 0u);
  EXPECT_TRUE(t.disk->ValidateInvariants());

  // Every chunk that lives on disk (not hot, not warm RAM) must probe back
  // bit-identically with disk provenance.
  int promoted_from_disk = 0;
  for (ChunkId c = 0; c < chunks; ++c) {
    const CacheKey key{base, c};
    if (t.env.cache->Contains(key) || !t.disk->Contains(key)) continue;
    WarmProbeResult probe;
    ASSERT_TRUE(t.warm->Probe(key, nullptr, &probe)) << "chunk " << c;
    EXPECT_TRUE(probe.from_disk);
    EXPECT_TRUE(BitIdentical(truth[static_cast<size_t>(c)], probe.data));
    ++promoted_from_disk;
  }
  EXPECT_GT(promoted_from_disk, 0);
  EXPECT_GT(t.warm->stats().disk_hits, 0);
  EXPECT_GT(t.disk->stats().hits, 0);
  EXPECT_TRUE(t.warm->ValidateInvariants());
  std::remove(path.c_str());
}

// The torn-spill regression: a spill file truncated mid-extent (the crash
// shape) must read back as a plain miss — torn_reads counted, index entry
// dropped, no crash, no garbage chunk.
TEST(TieredCacheTest, TornSpillFileReadsAsMiss) {
  const std::string path = testing::TempDir() + "/aac_torn_test.bin";
  DiskTier::Config dc;
  dc.path = path;
  dc.capacity_bytes = 1 << 20;
  DiskTier disk(dc);
  ASSERT_TRUE(disk.Open());

  // Admit one real encoded chunk.
  TestEnv env = MakeTestEnv(MakeThreeDimCube(), 0.5, 11, 1 << 20);
  const GroupById base = env.lattice().base_id();
  ChunkData data = BackendTruth(env, base, 0);
  std::vector<uint8_t> blob;
  EncodeChunk(env.schema().num_dims(), data, &blob);
  CacheEntryInfo info;
  info.key = {base, 0};
  info.bytes = data.LogicalBytes(kTupleBytes);
  info.benefit = 100.0;
  ASSERT_TRUE(disk.Admit(info, blob));
  ASSERT_TRUE(disk.Contains({base, 0}));

  // Tear the file: truncate through the middle of the extent's payload.
  ASSERT_EQ(truncate(path.c_str(), 64 + static_cast<long>(blob.size()) / 2),
            0);

  std::vector<uint8_t> read_blob;
  CacheEntryInfo read_info;
  EXPECT_FALSE(disk.Read({base, 0}, &read_blob, &read_info));
  const DiskTierStats stats = disk.stats();
  EXPECT_EQ(stats.torn_reads, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_FALSE(disk.Contains({base, 0}));  // entry dropped
  EXPECT_EQ(disk.bytes_used(), 0);
  EXPECT_TRUE(disk.ValidateInvariants());
  std::remove(path.c_str());
}

// Flips one bit of the byte at `offset` through a handle of its own.
void FlipFileByte(const std::string& path, long offset) {
  FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  const int byte = std::fgetc(f);
  ASSERT_NE(byte, EOF);
  ASSERT_EQ(std::fseek(f, -1, SEEK_CUR), 0);
  std::fputc(byte ^ 0x40, f);
  std::fclose(f);
}

// A flipped byte inside an otherwise intact extent is equally torn: the
// blob checksum rejects it before the codec ever sees the bytes.
TEST(TieredCacheTest, CorruptedExtentReadsAsMiss) {
  const std::string path = testing::TempDir() + "/aac_corrupt_test.bin";
  DiskTier::Config dc;
  dc.path = path;
  dc.capacity_bytes = 1 << 20;
  DiskTier disk(dc);
  ASSERT_TRUE(disk.Open());

  TestEnv env = MakeTestEnv(MakeThreeDimCube(), 0.5, 11, 1 << 20);
  const GroupById base = env.lattice().base_id();
  ChunkData data = BackendTruth(env, base, 0);
  std::vector<uint8_t> blob;
  EncodeChunk(env.schema().num_dims(), data, &blob);
  CacheEntryInfo info;
  info.key = {base, 0};
  info.bytes = data.LogicalBytes(kTupleBytes);
  info.benefit = 100.0;
  ASSERT_TRUE(disk.Admit(info, blob));

  ASSERT_NO_FATAL_FAILURE(
      FlipFileByte(path, 64 + static_cast<long>(blob.size()) / 2));

  std::vector<uint8_t> read_blob;
  CacheEntryInfo read_info;
  EXPECT_FALSE(disk.Read({base, 0}, &read_blob, &read_info));
  EXPECT_EQ(disk.stats().torn_reads, 1);
  EXPECT_FALSE(disk.Contains({base, 0}));
  std::remove(path.c_str());
}

// Four equal extents under keys {0, 0} .. {0, 3}: erasing two of them
// leaves half the file dead, which compacts it.
std::vector<uint8_t> AdmitFourExtents(DiskTier& disk) {
  std::vector<uint8_t> blob(200);
  for (size_t i = 0; i < blob.size(); ++i) {
    blob[i] = static_cast<uint8_t>(i * 37 + 11);
  }
  for (ChunkId c = 0; c < 4; ++c) {
    CacheEntryInfo info;
    info.key = {0, c};
    info.bytes = 4000;
    info.benefit = 100.0;
    EXPECT_TRUE(disk.Admit(info, blob));
  }
  return blob;
}

// Compaction reads each extent with every check Read makes: a corrupt
// blob is dropped and counted as torn instead of copied into the new file.
TEST(TieredCacheTest, CompactionDropsACorruptExtent) {
  const std::string path = testing::TempDir() + "/aac_compact_corrupt.bin";
  DiskTier::Config dc;
  dc.path = path;
  dc.capacity_bytes = 1 << 20;
  DiskTier disk(dc);
  ASSERT_TRUE(disk.Open());
  const std::vector<uint8_t> blob = AdmitFourExtents(disk);

  // One blob byte of the fourth extent.
  ASSERT_NO_FATAL_FAILURE(FlipFileByte(
      path, 3 * (64 + static_cast<long>(blob.size())) + 64 + 100));

  disk.Erase({0, 0});
  disk.Erase({0, 1});  // half the file is dead: compacts
  const DiskTierStats stats = disk.stats();
  EXPECT_EQ(stats.compactions, 1);
  EXPECT_EQ(stats.torn_reads, 1);
  EXPECT_EQ(disk.num_entries(), 1u);
  EXPECT_FALSE(disk.Contains({0, 3}));
  std::vector<uint8_t> read_blob;
  CacheEntryInfo read_info;
  ASSERT_TRUE(disk.Read({0, 2}, &read_blob, &read_info));
  EXPECT_EQ(read_blob, blob);
  EXPECT_TRUE(disk.ValidateInvariants());
  std::remove(path.c_str());
}

// A compaction that cannot open a fresh spill file loses every extent with
// the old one: reads then miss and admits are refused, never aborting.
TEST(TieredCacheTest, FailedCompactionReopenReadsAsMiss) {
  std::string dir = testing::TempDir() + "/aac_lost_spill_XXXXXX";
  ASSERT_NE(mkdtemp(dir.data()), nullptr);
  const std::string path = dir + "/spill.bin";
  DiskTier::Config dc;
  dc.path = path;
  dc.capacity_bytes = 1 << 20;
  DiskTier disk(dc);
  ASSERT_TRUE(disk.Open());
  const std::vector<uint8_t> blob = AdmitFourExtents(disk);

  // Without its directory the file cannot be reopened.
  ASSERT_EQ(std::remove(path.c_str()), 0);
  ASSERT_EQ(rmdir(dir.c_str()), 0);
  disk.Erase({0, 0});
  disk.Erase({0, 1});  // half the file is dead: the compaction fails
  EXPECT_EQ(disk.stats().write_failures, 1);
  EXPECT_EQ(disk.num_entries(), 0u);
  EXPECT_EQ(disk.bytes_used(), 0);

  std::vector<uint8_t> read_blob;
  CacheEntryInfo read_info;
  EXPECT_FALSE(disk.Read({0, 2}, &read_blob, &read_info));
  EXPECT_EQ(disk.stats().misses, 1);
  CacheEntryInfo info;
  info.key = {0, 5};
  info.bytes = 4000;
  EXPECT_FALSE(disk.Admit(info, blob));
  EXPECT_EQ(disk.stats().write_failures, 2);
  EXPECT_TRUE(disk.ValidateInvariants());
}

// Invalidation reaches every tier: removing a key from the hot cache
// purges its warm-RAM and disk copies too, so stale data can never be
// promoted after a base-table update.
TEST(TieredCacheTest, RemovePurgesAllTiers) {
  const std::string path = testing::TempDir() + "/aac_purge_test.bin";
  TieredEnv t = MakeTieredEnv(/*hot_capacity=*/2500, /*warm_capacity=*/512,
                              /*disk_capacity=*/1 << 20, path);
  FillBase(t);
  const GroupById base = t.env.lattice().base_id();
  const ChunkId chunks = t.env.grid().NumChunks(base);

  int purged_warm = 0;
  int purged_disk = 0;
  for (ChunkId c = 0; c < chunks; ++c) {
    const CacheKey key{base, c};
    const bool was_warm = t.warm->Contains(key);
    const bool was_disk = t.disk->Contains(key);
    // Remove reports hot-tier residency; it purges lower tiers regardless.
    t.env.cache->Remove(key);
    EXPECT_FALSE(t.env.cache->Contains(key));
    EXPECT_FALSE(t.warm->Contains(key));
    EXPECT_FALSE(t.disk->Contains(key));
    purged_warm += was_warm ? 1 : 0;
    purged_disk += was_disk ? 1 : 0;
  }
  EXPECT_GT(purged_warm + purged_disk, 0);  // the purge path really ran
  EXPECT_EQ(t.warm->num_entries(), 0u);
  EXPECT_EQ(t.warm->bytes_used(), 0);
  EXPECT_EQ(t.disk->num_entries(), 0u);
  EXPECT_TRUE(t.warm->ValidateInvariants());
  EXPECT_TRUE(t.disk->ValidateInvariants());
  std::remove(path.c_str());
}

// End-to-end through the engine: with a scarce hot tier, a repeated
// workload's second pass promotes from the warm tier (chunks_warm > 0) and
// still answers every query bit-identically to an untiered stack.
TEST(TieredCacheTest, EnginedWorkloadPromotesFromWarmTier) {
  ExperimentConfig config;
  config.data.num_tuples = 20'000;
  config.data.seed = 17;
  config.cache_fraction = 0.12;  // scarce: constant demotion
  // The warm tier holds encoded bytes, so a budget several times the hot
  // tier's is the realistic shape — here big enough that the repeated
  // levels' demoted working set survives until its second-pass
  // re-reference (the hot tier alone cannot even hold one level).
  config.warm_fraction = 40.0;
  Experiment exp(config);
  ASSERT_NE(exp.warm_tier(), nullptr);

  // A dashboard-style repeat workload over a few levels: every pass
  // re-asks the same whole-level queries, so pass-1 demotions become
  // pass-2 warm promotions.
  const std::vector<GroupById> levels = {
      exp.lattice().base_id(), 0,
      static_cast<GroupById>(exp.lattice().num_groupbys() / 2)};
  WorkloadTotals totals;
  for (int pass = 0; pass < 2; ++pass) {
    for (GroupById gb : levels) {
      const Query q =
          Query::WholeLevel(exp.schema(), exp.lattice().LevelOf(gb));
      QueryStats stats;
      QueryResult result = exp.engine().ExecuteQuery(q, &stats);
      ASSERT_EQ(result.status, ResultStatus::kOk);
      ASSERT_TRUE(result.complete());
      if (pass == 1) AccumulateStats(stats, &totals);
    }
  }
  EXPECT_GT(totals.chunks_warm, 0);
  EXPECT_GT(totals.decode_ms, 0.0);
  EXPECT_GT(exp.warm_tier()->stats().hits, 0);
  // Promoted chunks evicted again re-admit their blobs.
  EXPECT_GT(exp.warm_tier()->stats().reused_blobs, 0);

  // Bit-identity: the most detailed whole-level answer matches a fresh
  // untiered experiment.
  ExperimentConfig plain = config;
  plain.warm_fraction = 0.0;
  plain.cache_fraction = 2.0;  // everything fits: no eviction at all
  Experiment fresh(plain);
  const Query verify = Query::WholeLevel(
      exp.schema(), exp.lattice().LevelOf(exp.lattice().base_id()));
  QueryResult got = exp.engine().ExecuteQuery(verify, nullptr);
  QueryResult want = fresh.engine().ExecuteQuery(verify, nullptr);
  ASSERT_EQ(got.status, ResultStatus::kOk);
  ASSERT_EQ(want.status, ResultStatus::kOk);
  auto by_chunk = [](const ChunkData& a, const ChunkData& b) {
    return a.gb != b.gb ? a.gb < b.gb : a.chunk < b.chunk;
  };
  std::sort(got.chunks.begin(), got.chunks.end(), by_chunk);
  std::sort(want.chunks.begin(), want.chunks.end(), by_chunk);
  ASSERT_EQ(got.chunks.size(), want.chunks.size());
  const int nd = exp.schema().num_dims();
  for (size_t i = 0; i < got.chunks.size(); ++i) {
    EXPECT_TRUE(ChunkDataEquals(nd, &got.chunks[i], &want.chunks[i], 0.0));
  }

  EXPECT_TRUE(exp.cache().ValidateInvariants());
  EXPECT_TRUE(exp.warm_tier()->ValidateInvariants());
  EXPECT_EQ(exp.cache().TotalPinCount(), 0);
}

// --- Each tier at equal total RAM. ---

// `total` arrivals over a pool of `pool_size` whole-level queries, 90% of
// them drawn from a hot set picked by modeled footprint: the largest
// group-bys of at most 0.45x the RAM budget each (no single query may
// thrash every configuration alike), until the set reaches ~1.35x the
// budget or holds 8 queries. That is more than one tier can keep (CLOCK
// cycles it, every pass refetches), but a hot+warm split holds more of it,
// since the warm share's encoded bytes stretch the same RAM. The cold tail
// keeps eviction pressure on without levels big enough to flush every tier
// in one pass.
std::vector<QueryStreamEntry> MakeHotSetStream(const ExperimentConfig& config,
                                               int pool_size, int total,
                                               uint64_t seed) {
  Experiment exp(config);
  const ChunkSizeModel& sizes = exp.size_model();
  const double budget = static_cast<double>(exp.cache_bytes());
  std::vector<GroupById> by_size = exp.lattice().TopoDetailedFirst();
  std::sort(by_size.begin(), by_size.end(), [&sizes](GroupById a, GroupById b) {
    return sizes.ExpectedGroupByBytes(a) > sizes.ExpectedGroupByBytes(b);
  });
  std::vector<GroupById> hot_set;
  std::vector<GroupById> cold;
  int64_t hot_bytes = 0;
  for (GroupById gb : by_size) {
    const int64_t bytes = sizes.ExpectedGroupByBytes(gb);
    if (static_cast<double>(hot_bytes) < 1.35 * budget &&
        static_cast<double>(bytes) <= 0.45 * budget && hot_set.size() < 8) {
      hot_set.push_back(gb);
      hot_bytes += bytes;
    } else {
      cold.push_back(gb);
    }
  }
  std::vector<QueryStreamEntry> pool;
  auto push = [&exp, &pool](GroupById gb) {
    QueryStreamEntry e;
    e.query = Query::WholeLevel(exp.schema(), exp.lattice().LevelOf(gb));
    e.kind = QueryKind::kRandom;
    pool.push_back(std::move(e));
  };
  for (GroupById gb : hot_set) push(gb);
  for (GroupById gb : cold) {
    if (static_cast<int>(pool.size()) >= pool_size) break;
    if (static_cast<double>(sizes.ExpectedGroupByBytes(gb)) <= 0.45 * budget) {
      push(gb);
    }
  }
  Rng rng(seed);
  std::vector<QueryStreamEntry> stream;
  stream.reserve(static_cast<size_t>(total));
  for (int i = 0; i < total; ++i) {
    const size_t pick =
        rng.Bernoulli(0.9) ? rng.Uniform(hot_set.size())
                           : rng.Uniform(static_cast<uint64_t>(pool.size()));
    stream.push_back(pool[pick]);
  }
  return stream;
}

// One configuration's run of the hot-set stream.
struct EqualRamRun {
  WorkloadTotals totals;
  int64_t ram_bytes = 0;  // hot capacity plus warm capacity
  WarmTierStats warm;
  bool sound = false;     // every tier's invariants hold, no pin is left

  // Requested chunks served without the backend.
  double HitRate() const {
    return 1.0 - static_cast<double>(totals.chunks_backend) /
                     static_cast<double>(totals.chunks_requested);
  }
};

EqualRamRun RunEqualRam(const ExperimentConfig& config,
                        const std::vector<QueryStreamEntry>& stream) {
  Experiment exp(config);
  EqualRamRun run;
  run.ram_bytes = exp.cache_bytes();
  run.totals = RunWorkload(exp.engine(), stream);
  run.sound = exp.cache().ValidateInvariants() &&
              exp.cache().TotalPinCount() == 0;
  if (exp.warm_tier() != nullptr) {
    run.ram_bytes += exp.warm_tier()->capacity_bytes();
    run.warm = exp.warm_tier()->stats();
    run.sound = run.sound && exp.warm_tier()->ValidateInvariants();
  }
  if (exp.disk_tier() != nullptr) {
    run.sound = run.sound && exp.disk_tier()->ValidateInvariants();
  }
  return run;
}

// At equal RAM B, hot+warm (half of B each, the warm half in encoded
// bytes) serves more of the hot-set stream without the backend than a hot
// tier of all of B, and a disk spill file below them serves more still.
// 20k tuples, one cache shard and queries on one thread: every counter
// compared here repeats exactly.
TEST(TieredCacheTest, AtEqualRamEachTierRaisesTheHitRate) {
  ExperimentConfig one_tier;
  one_tier.data.num_tuples = 20'000;
  one_tier.data.seed = 42;
  one_tier.data.dense_dim = 2;
  // Exact chunk sizes: the stream sizes its hot set against the budget.
  one_tier.measured_sizes = true;
  // Scarce: the budget holds ~1/8 of the base data.
  one_tier.cache_fraction = 0.125;
  const std::vector<QueryStreamEntry> stream = MakeHotSetStream(
      one_tier, /*pool_size=*/10, /*total=*/60, one_tier.data.seed + 3);

  constexpr double kWarmShare = 0.5;
  ExperimentConfig hot_warm = one_tier;
  hot_warm.cache_fraction = one_tier.cache_fraction * (1.0 - kWarmShare);
  hot_warm.warm_fraction = kWarmShare / (1.0 - kWarmShare);  // of hot bytes
  ExperimentConfig hot_warm_disk = hot_warm;
  const std::string path = testing::TempDir() + "/aac_equal_ram_spill.bin";
  hot_warm_disk.disk_spill_path = path;
  hot_warm_disk.disk_spill_bytes = 64 << 20;

  const EqualRamRun one = RunEqualRam(one_tier, stream);
  const EqualRamRun warm = RunEqualRam(hot_warm, stream);
  const EqualRamRun disk = RunEqualRam(hot_warm_disk, stream);
  std::remove(path.c_str());

  EXPECT_TRUE(one.sound);
  EXPECT_TRUE(warm.sound);
  EXPECT_TRUE(disk.sound);
  EXPECT_LE(warm.ram_bytes, one.ram_bytes);
  EXPECT_LE(disk.ram_bytes, one.ram_bytes);
  EXPECT_GT(warm.totals.chunks_warm, 0);
  EXPECT_GT(disk.totals.chunks_disk, 0);
  EXPECT_LT(warm.warm.demoted_encoded_bytes, warm.warm.demoted_raw_bytes);
  EXPECT_GT(warm.HitRate(), one.HitRate());
  EXPECT_GT(disk.HitRate(), one.HitRate());
  EXPECT_LT(warm.totals.chunks_backend, one.totals.chunks_backend);
}

// A batch-class query is answered from the warm tier but promotes
// nothing: the warm copy stays and the hot tier gains no entry. The same
// query run interactive promotes the chunk, as every miss path does.
TEST(TieredCacheTest, BatchWarmHitIsServedWithoutPromotion) {
  TieredEnv t = MakeTieredEnv(/*hot_capacity=*/1 << 20,
                              /*warm_capacity=*/1 << 20);
  const GroupById top = t.env.lattice().top_id();
  const CacheKey key{top, 0};
  const ChunkData truth = BackendTruth(t.env, top, 0);
  DemoteToWarm(t, truth);
  ASSERT_TRUE(t.warm->Contains(key));

  NoAggregationStrategy strategy(t.env.cache.get());
  QueryEngine engine(t.env.cube.grid.get(), t.env.cache.get(), &strategy,
                     t.env.backend.get(), t.env.benefit.get(),
                     t.env.clock.get(), QueryEngine::Config());
  engine.Attach({.warm_tier = t.warm.get()});
  // Dimension b's top level splits into two chunks; ask for chunk 0's.
  Query q = Query::WholeLevel(t.env.schema(), t.env.lattice().LevelOf(top));
  q.ranges[1] = {0, 1};
  ASSERT_EQ(ChunksForQuery(t.env.grid(), q), std::vector<ChunkId>{0});

  ExecContext batch;
  batch.query_class = QueryClass::kBatch;
  QueryStats stats;
  QueryResult served = engine.ExecuteQuery(q, &batch, &stats);
  ASSERT_EQ(served.status, ResultStatus::kOk);
  EXPECT_EQ(stats.chunks_warm, 1);
  EXPECT_EQ(stats.chunks_backend, 0);
  ASSERT_EQ(served.chunks.size(), 1u);
  EXPECT_TRUE(BitIdentical(served.chunks[0], truth));
  EXPECT_TRUE(t.warm->Contains(key));
  EXPECT_FALSE(t.env.cache->Contains(key));
  EXPECT_EQ(t.env.cache->num_entries(), 0u);
  EXPECT_EQ(t.env.cache->stats().inserts, 0);

  QueryResult promoted = engine.ExecuteQuery(q, &stats);
  ASSERT_EQ(promoted.status, ResultStatus::kOk);
  EXPECT_EQ(stats.chunks_warm, 1);
  EXPECT_TRUE(t.env.cache->Contains(key));
  EXPECT_FALSE(t.warm->Contains(key));
  EXPECT_TRUE(t.env.cache->ValidateInvariants());
  EXPECT_TRUE(t.warm->ValidateInvariants());
}

// EXPLAIN names the warm tier when the promotion path would serve a miss.
TEST(TieredCacheTest, ExplainShowsWarmPromotion) {
  TieredEnv t = MakeTieredEnv(/*hot_capacity=*/2500,
                              /*warm_capacity=*/1 << 20);
  FillBase(t);
  ASSERT_GE(FindWarmOnly(t), 0);

  NoAggregationStrategy strategy(t.env.cache.get());
  QueryEngine engine(t.env.cube.grid.get(), t.env.cache.get(), &strategy,
                     t.env.backend.get(), t.env.benefit.get(),
                     t.env.clock.get(), QueryEngine::Config());
  engine.Attach({.warm_tier = t.warm.get()});
  const GroupById base = t.env.lattice().base_id();
  const Query q = Query::WholeLevel(t.env.schema(),
                                    t.env.lattice().LevelOf(base));
  const std::string plan = engine.ExplainQuery(q);
  EXPECT_NE(plan.find("warm tier"), std::string::npos) << plan;
}

// A promotion race, run under TSan via the "concurrency" label: threads
// race to promote the same warm chunk. Contract: every
// probe in a round hits; when probes overlap, followers coalesce onto the
// leader's single decode; all promoters end up pinning the SAME hot entry;
// and after the storm nothing stays pinned and both tiers' invariants
// hold. Rounds repeat until at least one coalesced decode was observed
// (barrier-released threads make that near-certain quickly).
TEST(TieredCacheTest, ConcurrentPromotersCoalesceOntoOneDecode) {
  TieredEnv t = MakeTieredEnv(/*hot_capacity=*/64 << 20,
                              /*warm_capacity=*/64 << 20);
  const GroupById base = t.env.lattice().base_id();
  const CacheKey key{base, 0};
  // A big synthetic chunk: its decode takes long enough that — even on a
  // single core — the OS preempts the leader mid-decode and followers land
  // inside the flight window. (The real backend chunks of the tiny test
  // cube decode in microseconds, far below a scheduling quantum.)
  ChunkData truth;
  truth.gb = base;
  truth.chunk = 0;
  truth.cells.reserve(60'000);
  for (int32_t i = 0; i < 60'000; ++i) {
    Cell c;
    c.values[0] = i / 100;
    c.values[1] = i % 100;
    c.values[2] = (i * 7) % 13;
    InitCellAggregates(c, static_cast<double>(i % 977));
    truth.cells.push_back(c);
  }
  CanonicalizeChunkData(t.env.schema().num_dims(), &truth);

  CacheEntryInfo info;
  info.key = key;
  info.bytes = truth.LogicalBytes(kTupleBytes);
  info.benefit = 500.0;
  info.source = ChunkSource::kBackend;

  constexpr int kThreads = 4;
  constexpr int kMaxRounds = 200;
  int64_t coalesced_total = 0;

  for (int round = 0; round < kMaxRounds; ++round) {
    // (Re-)demote the chunk into the warm tier.
    t.env.cache->Remove(key);
    ChunkData copy = truth;
    t.warm->OnDemote(info, std::move(copy));
    ASSERT_TRUE(t.warm->Contains(key));
    const WarmTierStats before = t.warm->stats();

    std::atomic<int> at_probe{0};
    std::atomic<int> at_promote{0};
    std::atomic<int> hits{0};
    std::atomic<bool> bit_mismatch{false};
    std::vector<const ChunkData*> pinned(kThreads, nullptr);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&, i] {
        // Barrier 1: all threads probe together (maximizes decode overlap
        // and keeps the warm entry resident for the whole probe phase).
        ++at_probe;
        while (at_probe.load() < kThreads) std::this_thread::yield();
        WarmProbeResult probe;
        const bool hit = t.warm->Probe(key, nullptr, &probe);
        if (hit) {
          ++hits;
          if (!BitIdentical(truth, probe.data)) bit_mismatch = true;
        }
        // Barrier 2: no promotion (whose OnErase purges the warm entry)
        // starts until every probe has resolved.
        ++at_promote;
        while (at_promote.load() < kThreads) std::this_thread::yield();
        if (hit) {
          t.env.cache->Insert(std::move(probe.data), probe.info.benefit,
                              probe.info.source);
        }
        pinned[static_cast<size_t>(i)] = t.env.cache->GetPinned(key);
      });
    }
    for (std::thread& thread : threads) thread.join();

    // Every probe hit (the entry was resident throughout the probe phase)
    // and the decodes they shared add up.
    ASSERT_EQ(hits.load(), kThreads);
    ASSERT_FALSE(bit_mismatch.load());
    const WarmTierStats after = t.warm->stats();
    EXPECT_EQ(after.hits - before.hits, kThreads);
    const int64_t coalesced =
        after.coalesced_decodes - before.coalesced_decodes;
    EXPECT_GE(coalesced, 0);
    EXPECT_LT(coalesced, kThreads);  // someone always decodes
    coalesced_total += coalesced;

    // All promoters pinned the SAME hot entry; ample capacity means no
    // eviction could race the pins away.
    const ChunkData* first = nullptr;
    for (int i = 0; i < kThreads; ++i) {
      ASSERT_NE(pinned[static_cast<size_t>(i)], nullptr);
      if (first == nullptr) first = pinned[static_cast<size_t>(i)];
      EXPECT_EQ(pinned[static_cast<size_t>(i)], first);
      t.env.cache->Unpin(key);
    }
    EXPECT_FALSE(t.warm->Contains(key));  // promotion purged the warm copy

    if (coalesced_total > 0 && round >= 3) break;
  }
  EXPECT_GT(coalesced_total, 0);  // single-flight actually coalesced

  EXPECT_EQ(t.env.cache->TotalPinCount(), 0);
  EXPECT_TRUE(t.env.cache->ValidateInvariants());
  EXPECT_TRUE(t.warm->ValidateInvariants());
}

// The same storm over a chunk that lives only on the disk tier: probers
// coalesce onto one disk read and decode per flight, and every one of them
// reports a disk hit.
TEST(TieredCacheTest, ConcurrentDiskPromotersCoalesceOntoOneReadAndDecode) {
  const std::string path = testing::TempDir() + "/aac_disk_coalesce_test.bin";
  TieredEnv t = MakeTieredEnv(/*hot_capacity=*/64 << 20,
                              /*warm_capacity=*/64 << 20,
                              /*disk_capacity=*/64 << 20, path);
  const GroupById base = t.env.lattice().base_id();
  const CacheKey key{base, 0};
  // Big enough that the read and decode outlast a scheduling quantum (see
  // ConcurrentPromotersCoalesceOntoOneDecode).
  ChunkData truth;
  truth.gb = base;
  truth.chunk = 0;
  truth.cells.reserve(60'000);
  for (int32_t i = 0; i < 60'000; ++i) {
    Cell c;
    c.values[0] = i / 100;
    c.values[1] = i % 100;
    c.values[2] = (i * 7) % 13;
    InitCellAggregates(c, static_cast<double>(i % 977));
    truth.cells.push_back(c);
  }
  CanonicalizeChunkData(t.env.schema().num_dims(), &truth);
  std::vector<uint8_t> blob;
  EncodeChunk(t.env.schema().num_dims(), truth, &blob);

  CacheEntryInfo info;
  info.key = key;
  info.bytes = truth.LogicalBytes(kTupleBytes);
  info.benefit = 500.0;
  info.source = ChunkSource::kBackend;

  constexpr int kThreads = 4;
  constexpr int kMaxRounds = 200;
  int64_t coalesced_total = 0;

  for (int round = 0; round < kMaxRounds; ++round) {
    // Put the chunk on disk only: not hot, not in warm RAM.
    t.env.cache->Remove(key);
    ASSERT_TRUE(t.disk->Admit(info, blob));
    ASSERT_EQ(t.warm->num_entries(), 0u);
    ASSERT_TRUE(t.warm->Contains(key));
    const WarmTierStats before = t.warm->stats();
    const DiskTierStats disk_before = t.disk->stats();

    std::atomic<int> at_probe{0};
    std::atomic<int> at_promote{0};
    std::atomic<int> disk_hits{0};
    std::atomic<bool> bit_mismatch{false};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&] {
        ++at_probe;
        while (at_probe.load() < kThreads) std::this_thread::yield();
        WarmProbeResult probe;
        const bool hit = t.warm->Probe(key, nullptr, &probe);
        if (hit && probe.from_disk) ++disk_hits;
        if (hit && !BitIdentical(truth, probe.data)) bit_mismatch = true;
        // No promotion (whose OnErase purges the disk copy) starts until
        // every probe has resolved.
        ++at_promote;
        while (at_promote.load() < kThreads) std::this_thread::yield();
        if (hit) {
          t.env.cache->Insert(std::move(probe.data), probe.info.benefit,
                              probe.info.source);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();

    ASSERT_EQ(disk_hits.load(), kThreads);
    ASSERT_FALSE(bit_mismatch.load());
    const WarmTierStats after = t.warm->stats();
    EXPECT_EQ(after.disk_hits - before.disk_hits, kThreads);
    EXPECT_EQ(after.hits - before.hits, 0);
    const int64_t coalesced =
        after.coalesced_decodes - before.coalesced_decodes;
    EXPECT_GE(coalesced, 0);
    EXPECT_LT(coalesced, kThreads);  // someone always reads and decodes
    // One disk read per flight: every prober either led or coalesced.
    EXPECT_EQ(t.disk->stats().hits - disk_before.hits, kThreads - coalesced);
    coalesced_total += coalesced;
    EXPECT_FALSE(t.warm->Contains(key));  // promotion purged the disk copy

    if (coalesced_total > 0 && round >= 3) break;
  }
  EXPECT_GE(coalesced_total, 1);

  EXPECT_EQ(t.env.cache->TotalPinCount(), 0);
  EXPECT_TRUE(t.env.cache->ValidateInvariants());
  EXPECT_TRUE(t.warm->ValidateInvariants());
  EXPECT_TRUE(t.disk->ValidateInvariants());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace aac
