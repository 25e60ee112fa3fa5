#include "storage/block_cache.h"

#include "common/macros.h"

namespace aims::storage {

BlockCache::BlockCache(BlockDevice* device, BlockCacheConfig config)
    : device_(device),
      config_(config),
      shard_capacity_bytes_(config.capacity_bytes /
                            std::max<size_t>(config.num_shards, 1)),
      shards_(std::max<size_t>(config.num_shards, 1)) {
  AIMS_CHECK(device_ != nullptr);
}

Result<std::vector<uint8_t>> BlockCache::Read(BlockId id, bool* hit) const {
  Shard& shard = ShardFor(id);
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.index.find(id);
    if (it != shard.index.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      hits_.fetch_add(1, kRelaxed);
      if (hit != nullptr) *hit = true;
      return it->second->payload;
    }
  }
  // Miss: read through outside the lock so one slow device access (8 ms
  // simulated seek) never serializes the whole shard.
  misses_.fetch_add(1, kRelaxed);
  if (hit != nullptr) *hit = false;
  AIMS_ASSIGN_OR_RETURN(std::vector<uint8_t> payload, device_->Read(id));
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    // A concurrent miss on the same block may have admitted it already;
    // its copy is identical (reads race only with reads), so keep it.
    if (shard.index.find(id) == shard.index.end()) {
      InsertLocked(shard, id, payload, /*dirty=*/false);
    }
  }
  return payload;
}

void BlockCache::EvictToBudgetLocked(Shard& shard) const {
  // Walk from the LRU tail, evicting clean entries only: dirty entries
  // are the sole copy of staged data and are pinned until FlushBlocks.
  auto it = shard.lru.end();
  while (shard.bytes > shard_capacity_bytes_ && it != shard.lru.begin()) {
    --it;
    if (it->dirty) continue;
    shard.bytes -= it->payload.size();
    bytes_cached_.fetch_sub(it->payload.size(), kRelaxed);
    blocks_cached_.fetch_sub(1, kRelaxed);
    evictions_.fetch_add(1, kRelaxed);
    shard.index.erase(it->id);
    it = shard.lru.erase(it);
  }
}

void BlockCache::InsertLocked(Shard& shard, BlockId id,
                              const std::vector<uint8_t>& payload,
                              bool dirty) const {
  if (!dirty && payload.size() > shard_capacity_bytes_) {
    return;  // a clean payload that would evict a whole shard
  }
  shard.lru.push_front(Entry{id, payload, dirty});
  shard.index[id] = shard.lru.begin();
  shard.bytes += payload.size();
  bytes_cached_.fetch_add(payload.size(), kRelaxed);
  blocks_cached_.fetch_add(1, kRelaxed);
  insertions_.fetch_add(1, kRelaxed);
  if (dirty) dirty_blocks_.fetch_add(1, kRelaxed);
  EvictToBudgetLocked(shard);
}

Status BlockCache::Write(BlockId id, const std::vector<uint8_t>& payload) {
  if (config_.write_back) {
    // Buffer-pool staging: the payload parks in the cache as a dirty
    // pinned entry and reaches the device only via FlushBlocks, once its
    // transaction's commit record is durable (no-steal).
    Shard& shard = ShardFor(id);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.index.find(id);
    if (it != shard.index.end()) {
      Entry& entry = *it->second;
      shard.bytes -= entry.payload.size();
      bytes_cached_.fetch_sub(entry.payload.size(), kRelaxed);
      if (!entry.dirty) dirty_blocks_.fetch_add(1, kRelaxed);
      entry.payload = payload;
      entry.dirty = true;
      shard.bytes += payload.size();
      bytes_cached_.fetch_add(payload.size(), kRelaxed);
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      EvictToBudgetLocked(shard);
    } else {
      InsertLocked(shard, id, payload, /*dirty=*/true);
    }
    return Status::OK();
  }
  // Invalidate before the device write: whatever the write's outcome, the
  // cache never holds bytes the device does not.
  Invalidate(id);
  return device_->Write(id, payload);
}

Status BlockCache::FlushBlocks(const std::vector<BlockId>& ids) {
  for (BlockId id : ids) {
    Shard& shard = ShardFor(id);
    std::vector<uint8_t> payload;
    {
      std::lock_guard<std::mutex> lock(shard.mutex);
      auto it = shard.index.find(id);
      if (it == shard.index.end() || !it->second->dirty) continue;
      payload = it->second->payload;
    }
    // The device write happens outside the shard lock; the exclusive
    // synchronization FlushBlocks requires means nothing can change the
    // entry underneath us.
    AIMS_RETURN_NOT_OK(device_->Write(id, payload));
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.index.find(id);
    if (it != shard.index.end() && it->second->dirty) {
      it->second->dirty = false;
      dirty_blocks_.fetch_sub(1, kRelaxed);
      EvictToBudgetLocked(shard);
    }
  }
  return Status::OK();
}

Status BlockCache::FlushDirty() {
  std::vector<BlockId> ids;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (const Entry& entry : shard.lru) {
      if (entry.dirty) ids.push_back(entry.id);
    }
  }
  return FlushBlocks(ids);
}

void BlockCache::DropDirty(const std::vector<BlockId>& ids) {
  for (BlockId id : ids) {
    Shard& shard = ShardFor(id);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.index.find(id);
    if (it == shard.index.end() || !it->second->dirty) continue;
    shard.bytes -= it->second->payload.size();
    bytes_cached_.fetch_sub(it->second->payload.size(), kRelaxed);
    blocks_cached_.fetch_sub(1, kRelaxed);
    dirty_blocks_.fetch_sub(1, kRelaxed);
    invalidations_.fetch_add(1, kRelaxed);
    shard.lru.erase(it->second);
    shard.index.erase(it);
  }
}

size_t BlockCache::DirtyBlocks() const {
  return dirty_blocks_.load(kRelaxed);
}

void BlockCache::Invalidate(BlockId id) {
  Shard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.index.find(id);
  if (it == shard.index.end()) return;
  shard.bytes -= it->second->payload.size();
  bytes_cached_.fetch_sub(it->second->payload.size(), kRelaxed);
  blocks_cached_.fetch_sub(1, kRelaxed);
  if (it->second->dirty) dirty_blocks_.fetch_sub(1, kRelaxed);
  invalidations_.fetch_add(1, kRelaxed);
  shard.lru.erase(it->second);
  shard.index.erase(it);
}

bool BlockCache::Contains(BlockId id) const {
  Shard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.mutex);
  return shard.index.find(id) != shard.index.end();
}

void BlockCache::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    // Dirty entries survive a Clear: they are the only copy of staged
    // data, so "cool the cache" must never mean "lose the pool".
    for (auto it = shard.lru.begin(); it != shard.lru.end();) {
      if (it->dirty) {
        ++it;
        continue;
      }
      shard.bytes -= it->payload.size();
      bytes_cached_.fetch_sub(it->payload.size(), kRelaxed);
      blocks_cached_.fetch_sub(1, kRelaxed);
      shard.index.erase(it->id);
      it = shard.lru.erase(it);
    }
  }
}

obs::CacheStats BlockCache::Stats() const {
  obs::CacheStats stats;
  stats.hits = hits_.load(kRelaxed);
  stats.misses = misses_.load(kRelaxed);
  stats.evictions = evictions_.load(kRelaxed);
  stats.invalidations = invalidations_.load(kRelaxed);
  stats.insertions = insertions_.load(kRelaxed);
  stats.bytes_cached = bytes_cached_.load(kRelaxed);
  stats.blocks_cached = blocks_cached_.load(kRelaxed);
  stats.capacity_bytes = config_.capacity_bytes;
  return stats;
}

}  // namespace aims::storage
