#include "src/cache/page_cache.h"

#include <algorithm>
#include <cassert>
#include <string>
#include <utility>

namespace duet {

const char* PageEventTypeName(PageEventType type) {
  switch (type) {
    case PageEventType::kAdded:
      return "ADDED";
    case PageEventType::kRemoved:
      return "REMOVED";
    case PageEventType::kDirtied:
      return "DIRTIED";
    case PageEventType::kFlushed:
      return "FLUSHED";
  }
  return "UNKNOWN";
}

namespace {

// Trace kinds indexed by PageEventType (kAdded..kFlushed).
constexpr obs::TraceKind kPageTraceKind[4] = {
    obs::TraceKind::kPageAdded, obs::TraceKind::kPageRemoved,
    obs::TraceKind::kPageDirtied, obs::TraceKind::kPageFlushed};

}  // namespace

PageCache::PageCache(uint64_t capacity_pages, std::function<SimTime()> clock)
    : capacity_(capacity_pages), clock_(std::move(clock)), obs_(obs::CurrentObs()) {
  assert(capacity_ > 0);
  assert(clock_ != nullptr);
  // Pre-size the entry arena for the configured capacity: the steady state
  // allocates nothing. The page table deliberately starts small and doubles
  // on demand: sizing it for full capacity up front would spread every probe
  // across megabytes of mostly-empty cells (evicting L1/L2 on workloads
  // whose live page set is far below capacity), while demand growth keeps
  // the table proportional to the working set at O(n) amortized rehash.
  arena_.reserve(capacity_ + capacity_ / 4);
  free_slots_.reserve(64);
  ctr_events_[0] = obs_->metrics.GetCounter("cache.added");
  ctr_events_[1] = obs_->metrics.GetCounter("cache.removed");
  ctr_events_[2] = obs_->metrics.GetCounter("cache.dirtied");
  ctr_events_[3] = obs_->metrics.GetCounter("cache.flushed");
  ctr_hits_ = obs_->metrics.GetCounter("cache.hits");
  ctr_misses_ = obs_->metrics.GetCounter("cache.misses");
  ctr_evictions_ = obs_->metrics.GetCounter("cache.evictions");
  ctr_removed_dirty_ = obs_->metrics.GetCounter("cache.removed_dirty");
}

void PageCache::Emit(PageEventType type, InodeNo ino, PageIdx idx,
                     bool exists, bool dirty) {
  ctr_events_[static_cast<int>(type)]->Add();
  obs_->trace.Emit(clock_(), obs::TraceLayer::kCache,
                   kPageTraceKind[static_cast<int>(type)], ino, idx);
  PageEvent event{type, ino, idx, exists, dirty};
  for (PageEventListener* l : listeners_) {
    l->OnPageEvent(event);
  }
}

template <PageCache::Links PageCache::Entry::*kLinks>
inline void PageCache::Link(RecencyList& list, uint32_t slot, uint32_t older) {
  Links& l = arena_[slot].*kLinks;
  l.older = older;
  l.newer = older == kNoSlot ? list.oldest : (arena_[older].*kLinks).newer;
  (older == kNoSlot ? list.oldest : (arena_[older].*kLinks).newer) = slot;
  (l.newer == kNoSlot ? list.newest : (arena_[l.newer].*kLinks).older) = slot;
}

template <PageCache::Links PageCache::Entry::*kLinks>
inline void PageCache::LinkFront(RecencyList& list, uint32_t slot) {
  Links& l = arena_[slot].*kLinks;
  l.newer = kNoSlot;
  l.older = list.newest;
  (list.newest == kNoSlot ? list.oldest : (arena_[list.newest].*kLinks).newer) = slot;
  list.newest = slot;
}

template <PageCache::Links PageCache::Entry::*kLinks>
inline void PageCache::Unlink(RecencyList& list, uint32_t slot) {
  const Links& l = arena_[slot].*kLinks;
  (l.newer == kNoSlot ? list.newest : (arena_[l.newer].*kLinks).older) = l.older;
  (l.older == kNoSlot ? list.oldest : (arena_[l.older].*kLinks).newer) = l.newer;
}

template <PageCache::Links PageCache::Entry::*kLinks>
inline void PageCache::MoveToFront(RecencyList& list, uint32_t slot) {
  if (slot == list.newest) {
    return;
  }
  Links& l = arena_[slot].*kLinks;
  (arena_[l.newer].*kLinks).older = l.older;  // not newest => newer exists
  (l.older == kNoSlot ? list.oldest : (arena_[l.older].*kLinks).newer) = l.newer;
  l.newer = kNoSlot;
  l.older = list.newest;
  (arena_[list.newest].*kLinks).newer = slot;
  list.newest = slot;
}

void PageCache::CommitEntry(uint32_t slot, InodeNo ino, PageIdx idx, bool dirty) {
  // `slot` was peeked (freelist back / arena end) before the page-table
  // probe; commit the allocation it named.
  if (!free_slots_.empty()) {
    assert(free_slots_.back() == slot);
    free_slots_.pop_back();
  } else {
    assert(slot == arena_.size());
    arena_.emplace_back();
  }
  Entry& e = arena_[slot];
  e.ino = ino;
  e.idx = idx;
  e.page.dirty = dirty;
  LinkFront<&Entry::lru>(lru_, slot);
  LinkFront<&Entry::cls>(ClassList(dirty), slot);
  // Inode chain tail (insertion order, the canonical iteration order).
  InodeChain& chain = inode_chains_[ino];
  e.ino_next = kNoSlot;
  e.ino_prev = chain.tail;
  if (chain.tail != kNoSlot) {
    arena_[chain.tail].ino_next = slot;
  } else {
    chain.head = slot;
  }
  chain.tail = slot;
  ++chain.count;
  ++page_count_;
}

// The caller has already removed the key from the page table (fused with
// its lookup probe); this only unlinks and recycles the arena entry.
void PageCache::DestroyEntry(uint32_t slot) {
  Entry& e = arena_[slot];
  assert(e.ino != kInvalidInode);
  Unlink<&Entry::lru>(lru_, slot);
  Unlink<&Entry::cls>(ClassList(e.page.dirty), slot);
  // Inode chain unlink.
  auto it = inode_chains_.find(e.ino);
  assert(it != inode_chains_.end());
  InodeChain& chain = it->second;
  if (e.ino_prev != kNoSlot) {
    arena_[e.ino_prev].ino_next = e.ino_next;
  } else {
    chain.head = e.ino_next;
  }
  if (e.ino_next != kNoSlot) {
    arena_[e.ino_next].ino_prev = e.ino_prev;
  } else {
    chain.tail = e.ino_prev;
  }
  // Deliberately keep the chain record when it empties: insert/remove churn
  // on the same inode would otherwise rebuild the directory entry on every
  // cycle. Empty records are 24 bytes, bounded by the number of distinct
  // inodes ever cached, and reaped by RemoveInode (truncate/delete).
  --chain.count;
  e = Entry{};
  free_slots_.push_back(slot);
  --page_count_;
}

inline void PageCache::Touch(uint32_t slot) {
  MoveToFront<&Entry::lru>(lru_, slot);
  MoveToFront<&Entry::cls>(ClassList(arena_[slot].page.dirty), slot);
}

void PageCache::SetDirty(uint32_t slot) {
  Entry& e = arena_[slot];
  Unlink<&Entry::cls>(clean_, slot);
  LinkFront<&Entry::cls>(dirty_, slot);
  e.page.dirty = true;
  e.page.dirtied_at = clock_();
  ++dirty_count_;
  Emit(PageEventType::kDirtied, e.ino, e.idx, /*exists=*/true, /*dirty=*/true);
}

void PageCache::PlaceClean(uint32_t slot) {
  // Walk outward from the page one step each way; the first clean page met
  // is its nearest clean neighbour in the global order. Join the clean list
  // just newer than an older neighbour or just older than a newer one. If
  // neither exists, the clean list is empty.
  uint32_t older = arena_[slot].lru.older;
  uint32_t newer = arena_[slot].lru.newer;
  while (older != kNoSlot || newer != kNoSlot) {
    if (older != kNoSlot) {
      ++clean_place_steps_;
      if (!arena_[older].page.dirty) {
        Link<&Entry::cls>(clean_, slot, older);
        return;
      }
      older = arena_[older].lru.older;
    }
    if (newer != kNoSlot) {
      ++clean_place_steps_;
      if (!arena_[newer].page.dirty) {
        Link<&Entry::cls>(clean_, slot, arena_[newer].cls.older);
        return;
      }
      newer = arena_[newer].lru.newer;
    }
  }
  Link<&Entry::cls>(clean_, slot, kNoSlot);
}

std::optional<uint64_t> PageCache::Lookup(InodeNo ino, PageIdx idx) {
  uint32_t slot = FindSlot(ino, idx);
  if (slot != kNoSlot) {
    ctr_hits_->Add();
    Touch(slot);
    return arena_[slot].page.data;
  }
  ctr_misses_->Add();
  return std::nullopt;
}

const CachedPage* PageCache::Peek(InodeNo ino, PageIdx idx) const {
  uint32_t slot = FindSlot(ino, idx);
  return slot == kNoSlot ? nullptr : &arena_[slot].page;
}

void PageCache::Insert(InodeNo ino, PageIdx idx, uint64_t data, bool dirty) {
  // Peek the slot a new entry would take, then resolve lookup + insertion
  // with a single table probe; the allocation commits only on insertion.
  uint32_t new_slot = free_slots_.empty()
                          ? static_cast<uint32_t>(arena_.size())
                          : free_slots_.back();
  uint32_t slot = page_table_.FindOrInsert(ino, idx, new_slot);
  if (slot != new_slot) {
    // Overwrite in place; only a clean->dirty transition emits an event.
    arena_[slot].page.data = data;
    Touch(slot);
    if (dirty && !arena_[slot].page.dirty) {
      SetDirty(slot);
    }
    return;
  }
  CommitEntry(slot, ino, idx, dirty);
  Entry& entry = arena_[slot];
  entry.page.data = data;
  entry.page.dirtied_at = dirty ? clock_() : 0;
  if (dirty) {
    ++dirty_count_;
  }
  Emit(PageEventType::kAdded, ino, idx, /*exists=*/true, dirty);
  if (dirty) {
    Emit(PageEventType::kDirtied, ino, idx, /*exists=*/true, /*dirty=*/true);
  }
  EvictIfNeeded();
}

bool PageCache::MarkDirty(InodeNo ino, PageIdx idx, uint64_t data) {
  uint32_t slot = FindSlot(ino, idx);
  if (slot == kNoSlot) {
    return false;
  }
  arena_[slot].page.data = data;
  Touch(slot);
  if (!arena_[slot].page.dirty) {
    SetDirty(slot);
  }
  return true;
}

bool PageCache::MarkClean(InodeNo ino, PageIdx idx) {
  uint32_t slot = FindSlot(ino, idx);
  if (slot == kNoSlot || !arena_[slot].page.dirty) {
    return false;
  }
  Unlink<&Entry::cls>(dirty_, slot);
  arena_[slot].page.dirty = false;
  --dirty_count_;
  PlaceClean(slot);
  Emit(PageEventType::kFlushed, ino, idx, /*exists=*/true, /*dirty=*/false);
  EvictIfNeeded();  // newly clean pages may satisfy a pending overshoot
  return true;
}

bool PageCache::Remove(InodeNo ino, PageIdx idx) {
  // Erase returns the slot, fusing lookup and table removal into one probe.
  uint32_t slot = page_table_.Erase(ino, idx);
  if (slot == kNoSlot) {
    return false;
  }
  if (arena_[slot].page.dirty) {
    --dirty_count_;
    ctr_removed_dirty_->Add();
  }
  DestroyEntry(slot);
  Emit(PageEventType::kRemoved, ino, idx, /*exists=*/false, /*dirty=*/false);
  return true;
}

void PageCache::RemoveInode(InodeNo ino) {
  auto it = inode_chains_.find(ino);
  if (it == inode_chains_.end()) {
    return;
  }
  // Collect indices first: Emit may re-enter observers that inspect us.
  std::vector<PageIdx> indices;
  indices.reserve(it->second.count);
  for (uint32_t slot = it->second.head; slot != kNoSlot;
       slot = arena_[slot].ino_next) {
    indices.push_back(arena_[slot].idx);
  }
  for (PageIdx idx : indices) {
    Remove(ino, idx);
  }
  // Reap the (now empty) chain record: the inode is going away for good.
  it = inode_chains_.find(ino);
  if (it != inode_chains_.end() && it->second.count == 0) {
    inode_chains_.erase(it);
  }
}

bool PageCache::Contains(InodeNo ino, PageIdx idx) const {
  return FindSlot(ino, idx) != kNoSlot;
}

uint64_t PageCache::CachedPagesOfInode(InodeNo ino) const {
  auto it = inode_chains_.find(ino);
  return it == inode_chains_.end() ? 0 : it->second.count;
}

void PageCache::ForEachPage(
    const std::function<void(InodeNo, PageIdx, const CachedPage&)>& fn) const {
  // Canonical order: inodes ascending, then insertion order within each
  // inode. Hash-table layout must never leak into observable iteration.
  std::vector<InodeNo> inodes;
  inodes.reserve(inode_chains_.size());
  for (const auto& [ino, chain] : inode_chains_) {
    inodes.push_back(ino);
  }
  std::sort(inodes.begin(), inodes.end());
  for (InodeNo ino : inodes) {
    ForEachPageOfInode(ino, [&](PageIdx idx, const CachedPage& page) {
      fn(ino, idx, page);
    });
  }
}

void PageCache::ForEachPageOfInode(
    InodeNo ino, const std::function<void(PageIdx, const CachedPage&)>& fn) const {
  auto it = inode_chains_.find(ino);
  if (it == inode_chains_.end()) {
    return;
  }
  for (uint32_t slot = it->second.head; slot != kNoSlot;
       slot = arena_[slot].ino_next) {
    fn(arena_[slot].idx, arena_[slot].page);
  }
}

std::vector<PageCache::DirtyPageRef> PageCache::CollectDirty(SimTime not_after,
                                                             uint64_t max) const {
  std::vector<DirtyPageRef> out;
  // Walk from the cold end (oldest first), as the kernel flusher does.
  for (uint32_t slot = dirty_.oldest; slot != kNoSlot && out.size() < max;
       slot = arena_[slot].cls.newer) {
    const Entry& e = arena_[slot];
    if (e.page.dirtied_at <= not_after) {
      out.push_back(DirtyPageRef{e.ino, e.idx, e.page.data});
    }
  }
  return out;
}

void PageCache::SetEvictionAdvisor(EvictionAdvisor advisor, size_t window) {
  advisor_ = std::move(advisor);
  advisor_window_ = window;
}

void PageCache::ClearEvictionAdvisor() { advisor_ = nullptr; }

void PageCache::AddListener(PageEventListener* listener) {
  assert(listener != nullptr);
  listeners_.push_back(listener);
}

void PageCache::RemoveListener(PageEventListener* listener) {
  listeners_.erase(std::remove(listeners_.begin(), listeners_.end(), listener),
                   listeners_.end());
}

uint64_t PageCache::IndexMemoryBytes() const {
  return arena_.capacity() * sizeof(Entry) +
         free_slots_.capacity() * sizeof(uint32_t) + page_table_.MemoryBytes() +
         inode_chains_.size() * (sizeof(InodeNo) + sizeof(InodeChain));
}

void PageCache::EvictIfNeeded() {
  if (page_count_ <= capacity_) {
    return;
  }
  if (advisor_ != nullptr) {
    CollectAdvised();
    for (uint32_t slot : advised_) {
      Evict(slot);
    }
  }
  // Plain LRU over clean pages: the clean list's cold end is the coldest
  // clean page. Dirty pages wait for writeback, which calls back here. The
  // page just inserted or touched (the global MRU end) is never evicted.
  while (page_count_ > capacity_ && clean_.oldest != kNoSlot &&
         clean_.oldest != lru_.newest) {
    ++eviction_scan_steps_;
    Evict(clean_.oldest);
  }
}

void PageCache::CollectAdvised() {
  // Informed replacement: within a window of the coldest clean pages, pick
  // the ones the advisor marks (already-processed data). The window is at
  // least the overshoot, so the plain pass that follows evicts only pages
  // inside it. Every pick is asked before any eviction runs.
  uint64_t need = page_count_ - capacity_;
  uint64_t window = std::max<uint64_t>(advisor_window_, need);
  advised_.clear();
  for (uint32_t slot = clean_.oldest;
       slot != kNoSlot && slot != lru_.newest && window > 0 &&
       advised_.size() < need;
       slot = arena_[slot].cls.newer, --window) {
    ++eviction_scan_steps_;
    if (advisor_(arena_[slot].ino, arena_[slot].idx)) {
      advised_.push_back(slot);
    }
  }
}

void PageCache::Evict(uint32_t slot) {
  InodeNo ino = arena_[slot].ino;
  PageIdx idx = arena_[slot].idx;
  ctr_evictions_->Add();
  obs_->trace.Emit(clock_(), obs::TraceLayer::kCache,
                   obs::TraceKind::kPageEvicted, ino, idx);
  Remove(ino, idx);
}

Status PageCache::CheckInvariants() const {
  auto fail = [](const std::string& what) {
    return Status(StatusCode::kCorruption, "page cache: " + what);
  };
  if (arena_.size() - free_slots_.size() != page_count_ ||
      page_table_.size() != page_count_) {
    return fail("live entries or indexed keys differ from the page count");
  }
  // Walk the global list from its cold end. Each page must be the next page
  // of its class list, so each class list is the global order restricted to
  // its class and together they cover the global list exactly once.
  uint32_t next[2] = {clean_.oldest, dirty_.oldest};
  uint32_t last[2] = {kNoSlot, kNoSlot};
  uint64_t length = 0;
  uint64_t dirty = 0;
  uint32_t prev = kNoSlot;
  for (uint32_t slot = lru_.oldest; slot != kNoSlot;
       prev = slot, slot = arena_[slot].lru.newer) {
    if (slot >= arena_.size() || ++length > page_count_) {
      return fail("global LRU list is longer than the page count");
    }
    const Entry& e = arena_[slot];
    if (e.ino == kInvalidInode || e.lru.older != prev ||
        page_table_.Find(e.ino, e.idx) != slot) {
      return fail("global LRU list links a free, unindexed or misordered entry");
    }
    int cls = e.page.dirty ? 1 : 0;
    if (next[cls] != slot || e.cls.older != last[cls]) {
      return fail(cls == 1 ? "dirty list is not the global order of dirty pages"
                           : "clean list is not the global order of clean pages");
    }
    next[cls] = e.cls.newer;
    last[cls] = slot;
    dirty += cls;
  }
  if (prev != lru_.newest || length != page_count_) {
    return fail("global LRU list length or MRU end is wrong");
  }
  if (next[0] != kNoSlot || next[1] != kNoSlot || clean_.newest != last[0] ||
      dirty_.newest != last[1]) {
    return fail("a class list holds pages not on the global list");
  }
  if (dirty != dirty_count_) {
    return fail("dirty list length differs from the dirty count");
  }
  return Status::Ok();
}

}  // namespace duet
