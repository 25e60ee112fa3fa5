// The durable storage stack: FileBlockDevice page-format integrity, WAL
// record groups + group commit + recovery scan, the write-back buffer
// pool, and AimsSystem reopen/recovery — including that the file backend
// runs the existing cache/EXPLAIN stack unchanged (ANALYZE reconciliation
// holds on a recovered store).

#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/aims.h"
#include "obs/exporters.h"
#include "obs/stats_reporter.h"
#include "obs/wal_stats.h"
#include "server/server.h"
#include "server/sharded_catalog.h"
#include "storage/block_cache.h"
#include "storage/block_device.h"
#include "storage/file_block_device.h"
#include "storage/wal.h"
#include "streams/sample.h"

namespace aims {
namespace {

using storage::durable::FileBlockDevice;
using storage::durable::WriteAheadLog;

/// Fresh empty directory under the test temp root.
std::string TestDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "aims_durable_" + name + "_" +
                    std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Deterministic multi-channel recording (pure function of seed/f/c, so a
/// reopened process can regenerate the identical input).
streams::Recording MakeRecording(size_t frames, size_t channels,
                                 uint32_t seed) {
  streams::Recording rec;
  rec.sample_rate_hz = 100.0;
  for (size_t f = 0; f < frames; ++f) {
    streams::Frame frame;
    frame.timestamp = static_cast<double>(f) / 100.0;
    frame.values.resize(channels);
    for (size_t c = 0; c < channels; ++c) {
      frame.values[c] =
          std::sin(0.05 * static_cast<double>(f + 1) *
                   static_cast<double>(c + 1) + static_cast<double>(seed)) +
          0.25 * std::cos(0.11 * static_cast<double>(f) +
                          static_cast<double>(c));
    }
    rec.Append(std::move(frame));
  }
  return rec;
}

// ---- FileBlockDevice ----------------------------------------------------

TEST(FileBlockDevice, RoundTripSurvivesReopen) {
  std::string dir = TestDir("fbd_roundtrip");
  std::string path = dir + "/pages.aims";
  std::vector<uint8_t> a{1, 2, 3, 4};
  std::vector<uint8_t> b(64, 0xAB);
  {
    auto opened = FileBlockDevice::Open(path, 64);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    FileBlockDevice& dev = *opened.ValueOrDie();
    EXPECT_STREQ(dev.backend_name(), "file");
    EXPECT_EQ(dev.num_blocks(), 0u);
    storage::BlockId id0 = dev.Allocate();
    storage::BlockId id1 = dev.Allocate();
    storage::BlockId id2 = dev.Allocate();  // Allocated, never written.
    ASSERT_TRUE(dev.Write(id0, a).ok());
    ASSERT_TRUE(dev.Write(id1, b).ok());
    EXPECT_EQ(dev.Read(id0).ValueOrDie(), a);
    EXPECT_EQ(dev.Read(id1).ValueOrDie(), b);
    // Unwritten slot reads back empty, matching MemBlockDevice semantics.
    EXPECT_TRUE(dev.Read(id2).ValueOrDie().empty());
    ASSERT_TRUE(dev.SyncPages().ok());
  }
  // Reopen: block count comes back from the file length, payloads from
  // their checksummed slots.
  auto reopened = FileBlockDevice::Open(path, 64);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  FileBlockDevice& dev = *reopened.ValueOrDie();
  EXPECT_EQ(dev.num_blocks(), 3u);
  EXPECT_EQ(dev.Read(0).ValueOrDie(), a);
  EXPECT_EQ(dev.Read(1).ValueOrDie(), b);
  EXPECT_TRUE(dev.Read(2).ValueOrDie().empty());
}

TEST(FileBlockDevice, RejectsBlockSizeMismatch) {
  std::string path = TestDir("fbd_blocksize") + "/pages.aims";
  {
    auto opened = FileBlockDevice::Open(path, 64);
    ASSERT_TRUE(opened.ok());
  }
  auto mismatched = FileBlockDevice::Open(path, 128);
  ASSERT_FALSE(mismatched.ok());
  EXPECT_EQ(mismatched.status().code(), StatusCode::kInvalidArgument);
}

TEST(FileBlockDevice, DetectsPayloadCorruptionOnDisk) {
  std::string path = TestDir("fbd_bitrot") + "/pages.aims";
  auto opened = FileBlockDevice::Open(path, 64);
  ASSERT_TRUE(opened.ok());
  FileBlockDevice& dev = *opened.ValueOrDie();
  storage::BlockId id = dev.Allocate();
  ASSERT_TRUE(dev.Write(id, std::vector<uint8_t>(32, 0x5A)).ok());
  ASSERT_TRUE(dev.Read(id).ok());

  // Flip one payload byte on disk, behind the device's back: slot 0 lives
  // at superblock(64) + page header(24).
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(64 + 24 + 5);
    char flipped = 0x5A ^ 0x10;
    f.write(&flipped, 1);
    ASSERT_TRUE(f.good());
  }
  auto read = dev.Read(id);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kIoError);
}

TEST(FileBlockDevice, DetectsTornPageHeader) {
  std::string path = TestDir("fbd_torn") + "/pages.aims";
  auto opened = FileBlockDevice::Open(path, 64);
  ASSERT_TRUE(opened.ok());
  FileBlockDevice& dev = *opened.ValueOrDie();
  storage::BlockId id = dev.Allocate();
  ASSERT_TRUE(dev.Write(id, {7, 7, 7}).ok());

  // Scribble garbage over the page header (nonzero wrong magic): a torn
  // write mid-header must be *detected*, not decoded.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(64);
    const char garbage[8] = {0x13, 0x57, char(0x9B), char(0xDF),
                             0x24, 0x68, char(0xAC), char(0xE0)};
    f.write(garbage, sizeof(garbage));
    ASSERT_TRUE(f.good());
  }
  auto read = dev.Read(id);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kIoError);
}

// ---- WriteAheadLog ------------------------------------------------------

TEST(WriteAheadLog, ReplaysCommittedGroupsInOrder) {
  std::string path = TestDir("wal_replay") + "/wal.aims";
  {
    auto opened = WriteAheadLog::Open(path);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    WriteAheadLog& wal = *opened.ValueOrDie().wal;
    EXPECT_TRUE(opened.ValueOrDie().committed.empty());

    uint64_t t1 = wal.BeginTxn().ValueOrDie();
    ASSERT_TRUE(wal.AppendBlockPut(t1, 0, {1, 2}).ok());
    ASSERT_TRUE(wal.AppendBlockPut(t1, 1, {3}).ok());
    ASSERT_TRUE(wal.AppendCatalog(t1, {9, 9, 9}).ok());
    ASSERT_TRUE(wal.Commit(t1).ok());

    uint64_t t2 = wal.BeginTxn().ValueOrDie();
    ASSERT_TRUE(wal.AppendBlockPut(t2, 0, {4, 5, 6}).ok());
    ASSERT_TRUE(wal.Commit(t2).ok());
  }
  auto reopened = WriteAheadLog::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const auto& committed = reopened.ValueOrDie().committed;
  ASSERT_EQ(committed.size(), 2u);
  EXPECT_EQ(committed[0].txn_id, 1u);
  ASSERT_EQ(committed[0].block_puts.size(), 2u);
  EXPECT_EQ(committed[0].block_puts[0].first, 0u);
  EXPECT_EQ(committed[0].block_puts[0].second, (std::vector<uint8_t>{1, 2}));
  EXPECT_EQ(committed[0].block_puts[1].second, (std::vector<uint8_t>{3}));
  ASSERT_EQ(committed[0].catalog_blobs.size(), 1u);
  EXPECT_EQ(committed[0].catalog_blobs[0], (std::vector<uint8_t>{9, 9, 9}));
  EXPECT_EQ(committed[1].txn_id, 2u);
  ASSERT_EQ(committed[1].block_puts.size(), 1u);
  EXPECT_EQ(committed[1].block_puts[0].second,
            (std::vector<uint8_t>{4, 5, 6}));
  // New transactions continue past the recovered ids.
  EXPECT_EQ(reopened.ValueOrDie().wal->BeginTxn().ValueOrDie(), 3u);
}

TEST(WriteAheadLog, DropsGroupWithoutCommitRecord) {
  std::string path = TestDir("wal_uncommitted") + "/wal.aims";
  {
    auto opened = WriteAheadLog::Open(path);
    ASSERT_TRUE(opened.ok());
    WriteAheadLog& wal = *opened.ValueOrDie().wal;
    uint64_t t1 = wal.BeginTxn().ValueOrDie();
    ASSERT_TRUE(wal.AppendBlockPut(t1, 0, {1}).ok());
    ASSERT_TRUE(wal.Commit(t1).ok());
    // Second group never reaches its commit record (caller died).
    uint64_t t2 = wal.BeginTxn().ValueOrDie();
    ASSERT_TRUE(wal.AppendBlockPut(t2, 1, {2, 2}).ok());
  }
  auto reopened = WriteAheadLog::Open(path);
  ASSERT_TRUE(reopened.ok());
  const auto& committed = reopened.ValueOrDie().committed;
  ASSERT_EQ(committed.size(), 1u);
  EXPECT_EQ(committed[0].txn_id, 1u);
  EXPECT_GT(reopened.ValueOrDie().wal->Stats().discarded_bytes, 0u);
}

TEST(WriteAheadLog, TruncatesTornTail) {
  std::string path = TestDir("wal_torn") + "/wal.aims";
  {
    auto opened = WriteAheadLog::Open(path);
    ASSERT_TRUE(opened.ok());
    WriteAheadLog& wal = *opened.ValueOrDie().wal;
    uint64_t t1 = wal.BeginTxn().ValueOrDie();
    ASSERT_TRUE(wal.AppendBlockPut(t1, 0, {1, 2, 3}).ok());
    ASSERT_TRUE(wal.Commit(t1).ok());
  }
  const auto intact_size = std::filesystem::file_size(path);
  // A torn append: garbage bytes that are not a complete valid record.
  {
    std::ofstream f(path, std::ios::binary | std::ios::app);
    const char garbage[] = "torn-write-garbage";
    f.write(garbage, sizeof(garbage));
  }
  auto reopened = WriteAheadLog::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  // The committed group survives; the tail is physically truncated off.
  EXPECT_EQ(reopened.ValueOrDie().committed.size(), 1u);
  EXPECT_GT(reopened.ValueOrDie().wal->Stats().discarded_bytes, 0u);
  EXPECT_EQ(std::filesystem::file_size(path), intact_size);
}

TEST(WriteAheadLog, GroupCommitBatchesConcurrentCommits) {
  std::string path = TestDir("wal_group") + "/wal.aims";
  storage::durable::WalConfig config;
  config.group_commit_ms = 5.0;
  auto opened = WriteAheadLog::Open(path, config);
  ASSERT_TRUE(opened.ok());
  WriteAheadLog& wal = *opened.ValueOrDie().wal;
  // Append three commit records before anyone waits — the deterministic
  // equivalent of three racing committers. One sync must cover all three.
  uint64_t last_ticket = 0;
  for (int i = 0; i < 3; ++i) {
    uint64_t txn = wal.BeginTxn().ValueOrDie();
    ASSERT_TRUE(wal.AppendBlockPut(txn, 0, {uint8_t(i)}).ok());
    last_ticket = wal.AppendCommit(txn).ValueOrDie();
  }
  ASSERT_TRUE(wal.WaitDurable(last_ticket).ok());
  obs::WalStats stats = wal.Stats();
  EXPECT_EQ(stats.commits, 3u);
  EXPECT_EQ(stats.syncs, 1u);
  EXPECT_EQ(stats.max_commits_per_sync, 3u);
  // Riding an already-synced ticket needs no further sync.
  ASSERT_TRUE(wal.WaitDurable(1).ok());
  EXPECT_EQ(wal.Stats().syncs, 1u);
}

TEST(WriteAheadLog, TruncateResetsLag) {
  std::string path = TestDir("wal_truncate") + "/wal.aims";
  auto opened = WriteAheadLog::Open(path);
  ASSERT_TRUE(opened.ok());
  WriteAheadLog& wal = *opened.ValueOrDie().wal;
  uint64_t txn = wal.BeginTxn().ValueOrDie();
  ASSERT_TRUE(wal.AppendBlockPut(txn, 0, {1, 2, 3, 4}).ok());
  ASSERT_TRUE(wal.Commit(txn).ok());
  EXPECT_GT(wal.lag_bytes(), 0u);
  ASSERT_TRUE(wal.Truncate().ok());
  EXPECT_EQ(wal.lag_bytes(), 0u);
  EXPECT_EQ(wal.Stats().checkpoints, 1u);
  // The log is usable after truncation.
  uint64_t txn2 = wal.BeginTxn().ValueOrDie();
  ASSERT_TRUE(wal.Commit(txn2).ok());
}

TEST(WriteAheadLog, TxnIdsDoNotRestartAfterTruncate) {
  // Regression: Open of a truncated (empty) log used to restart txn ids
  // at 1. A reused id falls under the catalog snapshot's applied-txn
  // mark, so the NEXT recovery skipped a committed group — an
  // acknowledged ingest silently lost. The header's high-water mark,
  // written at truncation, keeps ids advancing across reopens.
  std::string path = TestDir("wal_txn_highwater") + "/wal.aims";
  uint64_t first_txn = 0;
  {
    auto opened = WriteAheadLog::Open(path);
    ASSERT_TRUE(opened.ok());
    WriteAheadLog& wal = *opened.ValueOrDie().wal;
    first_txn = wal.BeginTxn().ValueOrDie();
    ASSERT_TRUE(wal.Commit(first_txn).ok());
    ASSERT_TRUE(wal.Truncate().ok());
  }
  auto reopened = WriteAheadLog::Open(path);
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE(reopened.ValueOrDie().committed.empty());
  uint64_t next_txn = reopened.ValueOrDie().wal->BeginTxn().ValueOrDie();
  EXPECT_GT(next_txn, first_txn);
}

// ---- Write-back buffer pool ---------------------------------------------

TEST(BlockCacheWriteBack, StagesDirtyAndFlushesOnDemand) {
  storage::MemBlockDevice device(64);
  storage::BlockCacheConfig config;
  config.capacity_bytes = 1024;
  config.write_back = true;
  storage::BlockCache cache(&device, config);

  storage::BlockId id = device.Allocate();
  ASSERT_TRUE(cache.Write(id, {1, 2, 3}).ok());
  // No-steal: the write staged in the pool, nothing reached the device.
  EXPECT_EQ(device.writes(), 0u);
  EXPECT_EQ(cache.DirtyBlocks(), 1u);
  // The dirty entry serves reads (it is the only copy).
  EXPECT_EQ(cache.Read(id).ValueOrDie(), (std::vector<uint8_t>{1, 2, 3}));
  EXPECT_EQ(device.reads(), 0u);

  // Clear drops clean entries only; the staged page must survive.
  cache.Clear();
  EXPECT_EQ(cache.DirtyBlocks(), 1u);
  EXPECT_EQ(cache.Read(id).ValueOrDie(), (std::vector<uint8_t>{1, 2, 3}));

  // Flush writes it back and makes it clean (still resident).
  ASSERT_TRUE(cache.FlushBlocks({id}).ok());
  EXPECT_EQ(cache.DirtyBlocks(), 0u);
  EXPECT_EQ(device.writes(), 1u);
  EXPECT_EQ(device.Read(id).ValueOrDie(), (std::vector<uint8_t>{1, 2, 3}));
  // Re-flushing a clean block is a no-op.
  ASSERT_TRUE(cache.FlushBlocks({id}).ok());
  EXPECT_EQ(device.writes(), 1u);
}

TEST(BlockCacheWriteBack, DropDirtyRollsBackStagedWrites) {
  storage::MemBlockDevice device(64);
  storage::BlockCacheConfig config;
  config.capacity_bytes = 1024;
  config.write_back = true;
  storage::BlockCache cache(&device, config);
  storage::BlockId id = device.Allocate();
  ASSERT_TRUE(cache.Write(id, {9, 9}).ok());
  EXPECT_EQ(cache.DirtyBlocks(), 1u);
  cache.DropDirty({id});
  EXPECT_EQ(cache.DirtyBlocks(), 0u);
  EXPECT_EQ(device.writes(), 0u);
  // The device still holds the pre-staging (empty) payload.
  EXPECT_TRUE(device.Read(id).ValueOrDie().empty());
}

TEST(BlockCacheWriteBack, DirtyEntriesPinnedAgainstEviction) {
  storage::MemBlockDevice device(64);
  storage::BlockCacheConfig config;
  // Budget fits barely one payload per shard; dirty admissions overrun it.
  config.capacity_bytes = 32;
  config.num_shards = 1;
  config.write_back = true;
  storage::BlockCache cache(&device, config);
  std::vector<storage::BlockId> ids;
  for (int i = 0; i < 4; ++i) {
    storage::BlockId id = device.Allocate();
    ids.push_back(id);
    ASSERT_TRUE(cache.Write(id, std::vector<uint8_t>(24, uint8_t(i))).ok());
  }
  // All four staged pages are resident despite 4 * 24 > 32 bytes of budget
  // — evicting a dirty page would lose the only copy.
  EXPECT_EQ(cache.DirtyBlocks(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(cache.Read(ids[i]).ValueOrDie(),
              std::vector<uint8_t>(24, uint8_t(i)));
  }
  ASSERT_TRUE(cache.FlushBlocks(ids).ok());
  EXPECT_EQ(cache.DirtyBlocks(), 0u);
}

// ---- AimsSystem on the durable backend ----------------------------------

TEST(DurableSystem, IngestSurvivesReopen) {
  std::string dir = TestDir("sys_reopen");
  core::AimsConfig config;
  config.durability.path = dir;
  streams::Recording rec_a = MakeRecording(300, 2, 1);
  streams::Recording rec_b = MakeRecording(150, 3, 2);

  std::vector<double> channel_a0, channel_b2;
  {
    core::AimsSystem system(config);
    ASSERT_TRUE(system.init_status().ok()) << system.init_status().ToString();
    ASSERT_TRUE(system.durable());
    auto a = system.IngestRecording("alpha", rec_a);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    auto b = system.IngestRecording("beta", rec_b);
    ASSERT_TRUE(b.ok());
    channel_a0 = system.ReadChannel(a.ValueOrDie(), 0).ValueOrDie();
    channel_b2 = system.ReadChannel(b.ValueOrDie(), 2).ValueOrDie();
    EXPECT_EQ(system.WalStats().commits, 2u);
  }
  core::AimsSystem reopened(config);
  ASSERT_TRUE(reopened.init_status().ok())
      << reopened.init_status().ToString();
  // Both committed ingests were replayed from the WAL.
  EXPECT_EQ(reopened.WalStats().recovered_txns, 2u);
  auto sessions = reopened.ListSessions();
  ASSERT_EQ(sessions.size(), 2u);
  EXPECT_EQ(sessions[0].name, "alpha");
  EXPECT_EQ(sessions[1].name, "beta");
  EXPECT_EQ(sessions[0].num_frames, 300u);
  EXPECT_EQ(sessions[1].num_channels, 3u);
  // Recovered block payloads are byte-identical, so reconstruction is
  // bit-exact against the pre-crash values.
  EXPECT_EQ(reopened.ReadChannel(sessions[0].id, 0).ValueOrDie(), channel_a0);
  EXPECT_EQ(reopened.ReadChannel(sessions[1].id, 2).ValueOrDie(), channel_b2);
  // Range queries work on the recovered store.
  auto stats = reopened.QueryRange(sessions[0].id, 1, 10, 200);
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
}

TEST(DurableSystem, IngestAfterCheckpointedReopenSurvivesNextReopen) {
  // Regression for txn-id reuse (the three-open sequence the crash-smoke
  // loop runs): open 1 ingests; open 2 only recovers — its checkpoint
  // truncates the WAL to empty; open 3 ingests into the empty log. With
  // restarting txn ids, open 3's commit reused the snapshot's applied-txn
  // mark and open 4's recovery skipped it — "beta" vanished.
  std::string dir = TestDir("sys_txn_reuse");
  core::AimsConfig config;
  config.durability.path = dir;
  {
    core::AimsSystem system(config);
    ASSERT_TRUE(system.init_status().ok());
    ASSERT_TRUE(system.IngestRecording("alpha", MakeRecording(64, 1, 1)).ok());
  }
  {
    core::AimsSystem recover_only(config);
    ASSERT_TRUE(recover_only.init_status().ok());
  }
  {
    core::AimsSystem system(config);
    ASSERT_TRUE(system.init_status().ok());
    ASSERT_TRUE(system.IngestRecording("beta", MakeRecording(64, 1, 2)).ok());
  }
  core::AimsSystem reopened(config);
  ASSERT_TRUE(reopened.init_status().ok());
  auto sessions = reopened.ListSessions();
  ASSERT_EQ(sessions.size(), 2u);
  EXPECT_EQ(sessions[0].name, "alpha");
  EXPECT_EQ(sessions[1].name, "beta");
}

TEST(DurableSystem, CheckpointTruncatesAndSnapshotRestores) {
  std::string dir = TestDir("sys_checkpoint");
  core::AimsConfig config;
  config.durability.path = dir;
  config.durability.checkpoint_wal_bytes = 0;  // No auto-checkpoints.
  std::vector<double> channel;
  {
    core::AimsSystem system(config);
    ASSERT_TRUE(system.init_status().ok());
    auto id = system.IngestRecording("snap", MakeRecording(200, 1, 3));
    ASSERT_TRUE(id.ok());
    channel = system.ReadChannel(id.ValueOrDie(), 0).ValueOrDie();
    EXPECT_GT(system.WalStats().lag_bytes, 0u);
    ASSERT_TRUE(system.Checkpoint().ok());
    EXPECT_EQ(system.WalStats().lag_bytes, 0u);
  }
  core::AimsSystem reopened(config);
  ASSERT_TRUE(reopened.init_status().ok());
  // Nothing to replay — the checkpoint snapshot carries the catalog and
  // the page file carries the blocks.
  EXPECT_EQ(reopened.WalStats().recovered_txns, 0u);
  auto sessions = reopened.ListSessions();
  ASSERT_EQ(sessions.size(), 1u);
  EXPECT_EQ(sessions[0].name, "snap");
  EXPECT_EQ(reopened.ReadChannel(sessions[0].id, 0).ValueOrDie(), channel);
}

TEST(DurableSystem, AutoCheckpointByWalLag) {
  std::string dir = TestDir("sys_autockpt");
  core::AimsConfig config;
  config.durability.path = dir;
  config.durability.checkpoint_wal_bytes = 1;  // Checkpoint every ingest.
  core::AimsSystem system(config);
  ASSERT_TRUE(system.init_status().ok());
  uint64_t checkpoints_before = system.WalStats().checkpoints;
  ASSERT_TRUE(system.IngestRecording("ck", MakeRecording(100, 1, 4)).ok());
  EXPECT_GT(system.WalStats().checkpoints, checkpoints_before);
  EXPECT_EQ(system.WalStats().lag_bytes, 0u);
}

// The commit record is the ingest's failure boundary: a write-back fault
// after it leaves the pages dirty and pinned, and the ingest stands.
TEST(DurableSystem, CheckpointWritesBackFailedPagesFirst) {
  std::string dir = TestDir("sys_writeback_fault");
  core::AimsConfig config;
  config.durability.path = dir;
  config.durability.checkpoint_wal_bytes = 0;  // No auto-checkpoints.
  double sum = 0.0;
  {
    core::AimsSystem system(config);
    ASSERT_TRUE(system.init_status().ok());
    system.mutable_device()->FailNextWrites(1);
    auto id = system.IngestRecording("wb", MakeRecording(200, 1, 5));
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    EXPECT_GT(system.block_cache()->DirtyBlocks(), 0u);
    sum = system.QueryRange(id.ValueOrDie(), 0, 10, 180).ValueOrDie().sum;
    ASSERT_TRUE(system.Checkpoint().ok());
    EXPECT_EQ(system.block_cache()->DirtyBlocks(), 0u);
    EXPECT_EQ(system.WalStats().lag_bytes, 0u);
  }
  // Nothing is replayed: the pages reached the page file before the
  // checkpoint let the log drop the records that held them.
  core::AimsSystem reopened(config);
  ASSERT_TRUE(reopened.init_status().ok());
  EXPECT_EQ(reopened.WalStats().recovered_txns, 0u);
  ASSERT_EQ(reopened.ListSessions().size(), 1u);
  auto after = reopened.QueryRange(0, 0, 10, 180);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->sum, sum);
}

TEST(DurableSystem, FailedCheckpointKeepsTheWal) {
  std::string dir = TestDir("sys_checkpoint_fault");
  core::AimsConfig config;
  config.durability.path = dir;
  config.durability.checkpoint_wal_bytes = 0;  // No auto-checkpoints.
  double sum = 0.0;
  {
    core::AimsSystem system(config);
    ASSERT_TRUE(system.init_status().ok());
    system.mutable_device()->FailNextWrites(1);
    auto id = system.IngestRecording("wb", MakeRecording(200, 1, 6));
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    sum = system.QueryRange(id.ValueOrDie(), 0, 10, 180).ValueOrDie().sum;
    const uint64_t lag = system.WalStats().lag_bytes;
    ASSERT_GT(lag, 0u);
    system.mutable_device()->FailNextWrites(1);
    EXPECT_EQ(system.Checkpoint().code(), StatusCode::kIoError);
    EXPECT_GT(system.block_cache()->DirtyBlocks(), 0u);
    EXPECT_EQ(system.WalStats().lag_bytes, lag);
  }
  // The kept WAL recovers the session on reopen.
  core::AimsSystem reopened(config);
  ASSERT_TRUE(reopened.init_status().ok());
  EXPECT_EQ(reopened.WalStats().recovered_txns, 1u);
  ASSERT_EQ(reopened.ListSessions().size(), 1u);
  auto after = reopened.QueryRange(0, 0, 10, 180);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->sum, sum);
}

TEST(DurableSystem, AnalyzeReconciliationHoldsOnFileBackend) {
  std::string dir = TestDir("sys_analyze");
  core::AimsConfig config;
  config.durability.path = dir;
  core::SessionId id = 0;
  {
    core::AimsSystem system(config);
    ASSERT_TRUE(system.init_status().ok());
    auto ingested = system.IngestRecording("q", MakeRecording(500, 1, 5));
    ASSERT_TRUE(ingested.ok());
    id = ingested.ValueOrDie();
  }
  // Reopen: the buffer pool is cold, so EXPLAIN must predict every
  // scheduled block as a cold device read — and ANALYZE must match it.
  core::AimsSystem system(config);
  ASSERT_TRUE(system.init_status().ok());
  auto plan = system.PlanRangeQuery(id, 0, 5, 400);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_GT(plan.ValueOrDie().predicted_blocks, 0u);
  EXPECT_EQ(plan.ValueOrDie().predicted_cold_blocks,
            plan.ValueOrDie().predicted_blocks);

  const size_t reads_before = system.device().reads();
  auto result = system.QueryRangeProgressive(id, 0, 5, 400);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(system.device().reads() - reads_before,
            plan.ValueOrDie().predicted_cold_blocks);

  // Second run: everything the query touched is now pool-resident, so the
  // replan predicts zero cold reads and the device sees none.
  auto replan = system.PlanRangeQuery(id, 0, 5, 400);
  ASSERT_TRUE(replan.ok());
  EXPECT_EQ(replan.ValueOrDie().predicted_cold_blocks, 0u);
  const size_t reads_mid = system.device().reads();
  ASSERT_TRUE(system.QueryRangeProgressive(id, 0, 5, 400).ok());
  EXPECT_EQ(system.device().reads(), reads_mid);
}

TEST(DurableSystem, FailedOpenParksStatusAndRefusesIngest) {
  // A regular file where the store directory should be: open must fail.
  std::string base = TestDir("sys_badpath");
  std::string file_in_the_way = base + "/not_a_directory";
  { std::ofstream(file_in_the_way) << "occupied"; }
  core::AimsConfig config;
  config.durability.path = file_in_the_way;
  core::AimsSystem system(config);
  EXPECT_FALSE(system.init_status().ok());
  auto id = system.IngestRecording("refused", MakeRecording(100, 1, 6));
  ASSERT_FALSE(id.ok());
  // Read-side accessors stay valid on the fallback skeleton.
  EXPECT_TRUE(system.ListSessions().empty());
  EXPECT_EQ(system.WalStats().commits, 0u);
}

// ---- ShardedCatalog / server / obs wiring -------------------------------

TEST(DurableCatalog, PerShardStoresSurviveReopen) {
  std::string dir = TestDir("catalog_shards");
  core::AimsConfig config;
  config.durability.path = dir;
  {
    server::ShardedCatalog catalog(2, config);
    ASSERT_TRUE(catalog.init_status().ok());
    ASSERT_TRUE(catalog.durable());
    // Pick one tenant per shard (placement is the router's, not modulo).
    server::ClientId on_shard0 = 0, on_shard1 = 0;
    for (server::ClientId c = 0; c < 64; ++c) {
      (catalog.router().ShardForClient(c) == 0 ? on_shard0 : on_shard1) = c;
    }
    ASSERT_NE(catalog.router().ShardForClient(on_shard0),
              catalog.router().ShardForClient(on_shard1));
    auto a = catalog.Ingest(on_shard0, "c0", MakeRecording(200, 1, 7));
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    auto b = catalog.Ingest(on_shard1, "c1", MakeRecording(200, 1, 8));
    ASSERT_TRUE(b.ok());
    EXPECT_TRUE(std::filesystem::exists(dir + "/shard_0/pages.aims"));
    EXPECT_TRUE(std::filesystem::exists(dir + "/shard_1/pages.aims"));
    // Shard WALs only — the routing journal keeps its own books.
    obs::WalStats total = catalog.TotalWalStats();
    EXPECT_EQ(total.commits, 2u);
  }
  // Reopen replays both shard stores AND the routing journal: the same
  // opaque ids resolve to the same sessions.
  server::ShardedCatalog reopened(2, config);
  ASSERT_TRUE(reopened.init_status().ok());
  EXPECT_EQ(reopened.total_sessions(), 2u);
  auto sessions = reopened.ListSessions();
  ASSERT_EQ(sessions.size(), 2u);
}

TEST(DurableCatalog, IngestIoStatsCountStagedBlocks) {
  std::string dir = TestDir("catalog_iostats");
  core::AimsConfig config;
  config.durability.path = dir;
  server::ShardedCatalog catalog(1, config);
  ASSERT_TRUE(catalog.init_status().ok());
  server::ShardedCatalog::IngestIoStats io;
  auto id = catalog.Ingest(0, "billed", MakeRecording(300, 2, 9), nullptr, &io);
  ASSERT_TRUE(id.ok());
  EXPECT_GT(io.blocks_written, 0u);
  EXPECT_EQ(io.bytes_written, io.blocks_written * config.block_size_bytes);
  // The staged protocol writes back exactly the staged blocks.
  EXPECT_EQ(io.blocks_written, catalog.total_blocks_written());
}

// Regression: a write-back fault after the commit record used to fail the
// ingest while its session stayed committed. The retry stored a second
// copy, the failed write was charged to nobody, and the next checkpoint
// dropped the WAL records of the still-dirty pages, so after reopen the
// first copy came back as a lost-and-found session with unwritten pages.
TEST(DurableServer, WriteBackFaultAcksOnceAndSurvivesCheckpoint) {
  std::string dir = TestDir("server_writeback_fault");
  server::ServerConfig config;
  config.num_shards = 1;
  config.num_threads = 2;
  config.system.durability.path = dir;
  config.system.durability.checkpoint_wal_bytes = 1;  // Checkpoint each ingest.
  config.admission.max_attempts = 3;
  server::GlobalSessionId id = 0;
  double sum = 0.0;
  {
    server::AimsServer server(config);
    ASSERT_TRUE(server.OpenSession({1}).ok());
    const size_t writes_before = server.catalog().total_blocks_written();
    server::AdminFaultRequest fault;
    fault.fail_next_writes = 1;
    ASSERT_TRUE(server.AdminFault(fault).ok());
    auto ingest = server.IngestRecording({1, "wb", MakeRecording(300, 2, 7)});
    ASSERT_TRUE(ingest.ok()) << ingest.status().ToString();
    id = ingest->session;
    EXPECT_EQ(server.metrics().GetCounter("ingest.retries")->value(), 0u);
    EXPECT_EQ(server.catalog().total_sessions(), 1u);
    // Every device write, the failed one included, is the tenant's.
    auto usage = server.GetTenantUsage({1});
    ASSERT_TRUE(usage.ok());
    const size_t device_delta =
        server.catalog().total_blocks_written() - writes_before;
    EXPECT_GT(device_delta, 1u);
    EXPECT_EQ(usage->total.blocks_written, device_delta);
    // The auto-checkpoint wrote the dirty pages back and emptied the log.
    EXPECT_EQ(server.catalog().TotalWalStats().lag_bytes, 0u);
    auto answer = server.catalog().QueryRange(id, 1, 10, 250);
    ASSERT_TRUE(answer.ok());
    sum = answer->sum;
    server.Shutdown();
  }
  server::ShardedCatalog reopened(1, config.system);
  ASSERT_TRUE(reopened.init_status().ok());
  auto sessions = reopened.ListSessions();
  ASSERT_EQ(sessions.size(), 1u);
  EXPECT_EQ(sessions[0].id, id);
  EXPECT_EQ(sessions[0].client, 1u) << "no lost-and-found adoption";
  auto after = reopened.QueryRange(id, 1, 10, 250);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->sum, sum);
}

TEST(DurableServer, GetHealthCarriesWalStats) {
  std::string dir = TestDir("server_health");
  server::ServerConfig config;
  config.num_shards = 2;
  config.system.durability.path = dir;
  server::AimsServer server(config);
  auto health = server.GetHealth(server::GetHealthRequest{});
  ASSERT_TRUE(health.ok());
  // Every shard checkpoints once at open, so the summed counters are live.
  EXPECT_GE(health.ValueOrDie().wal.checkpoints, 2u);
  server.Shutdown();
}

// ---- One ingest path on both backends ----------------------------------

/// Runs each case on the in-memory backend (false) and the durable one
/// (true): both go through the same staged ingest protocol.
class OneIngestPath : public ::testing::TestWithParam<bool> {
 protected:
  core::AimsConfig Config(const std::string& name) const {
    core::AimsConfig config;
    if (GetParam()) config.durability.path = TestDir(name);
    return config;
  }
};

TEST_P(OneIngestPath, IoStatsEqualDeviceWriteDelta) {
  core::AimsConfig config = Config("path_io");
  server::ShardedCatalog catalog(1, config);
  ASSERT_TRUE(catalog.init_status().ok());
  server::ShardedCatalog::IngestIoStats io;
  size_t before = catalog.total_blocks_written();
  ASSERT_TRUE(
      catalog.Ingest(1, "ok", MakeRecording(300, 2, 1), nullptr, &io).ok());
  EXPECT_GT(io.blocks_written, 0u);
  EXPECT_EQ(io.blocks_written, catalog.total_blocks_written() - before);
  EXPECT_EQ(io.bytes_written, io.blocks_written * config.block_size_bytes);

  // In memory the fault hits a staging write, before any commit, so the
  // ingest fails; on disk it hits the write-back after the commit record,
  // so the ingest stands. Either way the failed write is charged.
  server::AdminFaultRequest fault;
  fault.fail_next_writes = 1;
  ASSERT_TRUE(catalog.ApplyFault(fault).ok());
  before = catalog.total_blocks_written();
  auto faulted =
      catalog.Ingest(1, "fault", MakeRecording(300, 2, 2), nullptr, &io);
  EXPECT_EQ(faulted.ok(), GetParam());
  EXPECT_GT(io.blocks_written, 0u);
  EXPECT_EQ(io.blocks_written, catalog.total_blocks_written() - before);
  EXPECT_EQ(io.bytes_written, io.blocks_written * config.block_size_bytes);
}

TEST_P(OneIngestPath, AggregateUpdatesDeliveredExactlyOnce) {
  server::ShardedCatalog catalog(2, Config("path_agg"));
  ASSERT_TRUE(catalog.init_status().ok());
  std::map<server::GlobalSessionId, size_t> delivered;
  catalog.SetIngestCommitHook(
      [&](server::GlobalSessionId id, server::ClientId,
          const std::vector<core::StandingRangeUpdate>& updates) {
        delivered[id] += updates.size();
      });
  core::StandingRangeQuery query;
  query.handle = 1;
  query.channel = 0;
  query.first_frame = 5;
  query.last_frame = 90;
  catalog.SetStandingQueries({query});
  std::vector<server::GlobalSessionId> ids;
  for (uint32_t seed = 0; seed < 3; ++seed) {
    auto id = catalog.Ingest(7, "s", MakeRecording(128, 1, seed));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  // A migration copy is not tenant activity: it delivers nothing.
  server::DataMigrator migrator(&catalog);
  const size_t target = 1 - catalog.router().ShardForClient(7);
  ASSERT_TRUE(migrator.MigrateTenant(7, target).ok());
  ASSERT_EQ(delivered.size(), ids.size());
  for (server::GlobalSessionId id : ids) EXPECT_EQ(delivered[id], 1u);
}

TEST_P(OneIngestPath, MigrationCarriesSealedSegmentsVerbatim) {
  core::AimsConfig config = Config("path_migrate");
  server::ShardedCatalog catalog(2, config);
  ASSERT_TRUE(catalog.init_status().ok());
  auto id = catalog.Ingest(1, "move", MakeRecording(256, 1, 9));
  ASSERT_TRUE(id.ok());
  // Tier the segments first so a rebuilt-raw copy would be detectable.
  server::ShardedCatalog::TenantRetentionPolicies policies;
  policies.default_policy.downsample_age_seconds = 1.0;
  ASSERT_TRUE(catalog.SweepRetention(policies, 3600 * 1000000ll).ok());
  auto before = catalog.ListSegments(*id);
  ASSERT_TRUE(before.ok());
  ASSERT_FALSE(before->empty());
  ASSERT_EQ((*before)[0].tier, 1u);
  auto samples_before = catalog.ReadRawSamples(*id, 0);
  ASSERT_TRUE(samples_before.ok());

  const size_t wal_commits = catalog.TotalWalStats().commits;
  server::DataMigrator migrator(&catalog);
  const size_t target = 1 - catalog.router().ShardForClient(1);
  ASSERT_TRUE(migrator.MigrateTenant(1, target).ok());
  // The copy and its segments commit as one shard WAL group.
  EXPECT_EQ(catalog.TotalWalStats().commits,
            wal_commits + (GetParam() ? 1u : 0u));

  auto check = [&](const server::ShardedCatalog& moved) {
    auto after = moved.ListSegments(*id);
    ASSERT_TRUE(after.ok());
    ASSERT_EQ(after->size(), before->size());
    EXPECT_EQ((*after)[0].tier, 1u) << "migration must not rebuild raw";
    EXPECT_EQ((*after)[0].decimation, (*before)[0].decimation);
    EXPECT_EQ((*after)[0].nmse, (*before)[0].nmse);
    auto samples_after = moved.ReadRawSamples(*id, 0);
    ASSERT_TRUE(samples_after.ok());
    ASSERT_EQ(samples_after->size(), samples_before->size());
    for (size_t i = 0; i < samples_after->size(); ++i) {
      EXPECT_EQ((*samples_after)[i].value, (*samples_before)[i].value);
    }
  };
  check(catalog);
  if (GetParam()) {
    server::ShardedCatalog reopened(2, config);
    ASSERT_TRUE(reopened.init_status().ok());
    check(reopened);
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, OneIngestPath, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Durable" : "InMemory";
                         });

TEST(WalExporter, PrometheusEmitsWalFamily) {
  obs::MetricsRegistry registry;
  obs::WalStats wal;
  wal.records = 12;
  wal.commits = 3;
  wal.syncs = 2;
  wal.max_commits_per_sync = 2;
  wal.lag_bytes = 456;
  wal.recovered_txns = 1;
  std::string text =
      obs::PrometheusExport(registry, nullptr, nullptr, nullptr, &wal);
  EXPECT_NE(text.find("# TYPE aims_wal_records_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("aims_wal_records_total 12"), std::string::npos);
  EXPECT_NE(text.find("aims_wal_commits_total 3"), std::string::npos);
  EXPECT_NE(text.find("aims_wal_syncs_total 2"), std::string::npos);
  EXPECT_NE(text.find("aims_wal_max_commits_per_sync 2"), std::string::npos);
  EXPECT_NE(text.find("aims_wal_lag_bytes 456"), std::string::npos);
  EXPECT_NE(text.find("aims_wal_recovered_txns 1"), std::string::npos);
  // Omitted when no WAL snapshot is passed (in-memory deployments).
  std::string without = obs::PrometheusExport(registry, nullptr);
  EXPECT_EQ(without.find("aims_wal_"), std::string::npos);
}

TEST(WalHealth, ReporterJudgesWalLagAgainstBudget) {
  obs::MetricsRegistry registry;
  obs::Gauge* lag = registry.GetGauge("storage.wal_lag_bytes");
  obs::StatsReporterConfig config;
  config.wal_lag_budget_bytes = 1000.0;
  obs::StatsReporter reporter(&registry, config);

  lag->Set(100);
  obs::HealthSnapshot snap = reporter.SnapshotNow();
  EXPECT_EQ(snap.level, obs::HealthLevel::kOk);
  EXPECT_DOUBLE_EQ(snap.wal_lag_saturation, 0.1);

  lag->Set(800);
  snap = reporter.SnapshotNow();
  EXPECT_EQ(snap.level, obs::HealthLevel::kDegraded);
  ASSERT_EQ(snap.reasons.size(), 1u);
  EXPECT_NE(snap.reasons[0].find("checkpoint budget"), std::string::npos);

  lag->Set(2000);
  snap = reporter.SnapshotNow();
  EXPECT_EQ(snap.level, obs::HealthLevel::kSaturated);
}

}  // namespace
}  // namespace aims
