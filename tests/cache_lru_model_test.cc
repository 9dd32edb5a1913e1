// Differential test of the page cache's recency lists against a naive
// reference: one std::list in global LRU order, evicting by a tail scan that
// skips dirty pages. Seeded random operation sequences on small caches must
// produce the same event stream (eviction order included), the same return
// values and the same CollectDirty results, and the cache's structural
// invariants must hold after every step.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <list>
#include <optional>
#include <string>
#include <vector>

#include "src/cache/page_cache.h"
#include "src/obs/obs.h"
#include "src/util/rng.h"

namespace duet {
namespace {

SimTime g_now = 0;

std::string Describe(const PageEvent& e) {
  return std::string(PageEventTypeName(e.type)) + " " + std::to_string(e.ino) +
         ":" + std::to_string(e.idx) + (e.exists ? " exists" : "") +
         (e.dirty ? " dirty" : "");
}

class EventLog : public PageEventListener {
 public:
  void OnPageEvent(const PageEvent& event) override {
    events.push_back(Describe(event));
  }
  std::vector<std::string> events;
};

// The reference model. Front of `lru_` is the most recently used page.
class LruModel {
 public:
  LruModel(uint64_t capacity, PageCache::EvictionAdvisor advisor, size_t window)
      : capacity_(capacity), advisor_(std::move(advisor)), window_(window) {}

  std::optional<uint64_t> Lookup(InodeNo ino, PageIdx idx) {
    auto it = Find(ino, idx);
    if (it == lru_.end()) {
      return std::nullopt;
    }
    lru_.splice(lru_.begin(), lru_, it);
    return it->data;
  }

  void Insert(InodeNo ino, PageIdx idx, uint64_t data, bool dirty) {
    auto it = Find(ino, idx);
    if (it != lru_.end()) {
      it->data = data;
      lru_.splice(lru_.begin(), lru_, it);
      if (dirty && !it->dirty) {
        SetDirty(*it);
      }
      return;
    }
    lru_.push_front(Page{ino, idx, data, dirty, dirty ? g_now : 0, next_seq_++});
    Log(PageEventType::kAdded, ino, idx, true, dirty);
    if (dirty) {
      Log(PageEventType::kDirtied, ino, idx, true, true);
    }
    EvictIfNeeded();
  }

  bool MarkDirty(InodeNo ino, PageIdx idx, uint64_t data) {
    auto it = Find(ino, idx);
    if (it == lru_.end()) {
      return false;
    }
    it->data = data;
    lru_.splice(lru_.begin(), lru_, it);
    if (!it->dirty) {
      SetDirty(*it);
    }
    return true;
  }

  bool MarkClean(InodeNo ino, PageIdx idx) {
    auto it = Find(ino, idx);
    if (it == lru_.end() || !it->dirty) {
      return false;
    }
    it->dirty = false;
    Log(PageEventType::kFlushed, ino, idx, true, false);
    EvictIfNeeded();
    return true;
  }

  bool Remove(InodeNo ino, PageIdx idx) {
    auto it = Find(ino, idx);
    if (it == lru_.end()) {
      return false;
    }
    lru_.erase(it);
    Log(PageEventType::kRemoved, ino, idx, false, false);
    return true;
  }

  // Removes the inode's pages in cache-insertion order, as the cache does.
  void RemoveInode(InodeNo ino) {
    std::vector<const Page*> pages;
    for (const Page& p : lru_) {
      if (p.ino == ino) {
        pages.push_back(&p);
      }
    }
    std::sort(pages.begin(), pages.end(),
              [](const Page* a, const Page* b) { return a->seq < b->seq; });
    std::vector<PageIdx> order;
    for (const Page* p : pages) {
      order.push_back(p->idx);
    }
    for (PageIdx idx : order) {
      Remove(ino, idx);
    }
  }

  std::vector<std::string> CollectDirty(SimTime not_after, uint64_t max) const {
    std::vector<std::string> out;
    for (auto it = lru_.rbegin(); it != lru_.rend() && out.size() < max; ++it) {
      if (it->dirty && it->dirtied_at <= not_after) {
        out.push_back(std::to_string(it->ino) + ":" + std::to_string(it->idx) +
                      "=" + std::to_string(it->data));
      }
    }
    return out;
  }

  // A random page of the model (dirty or clean), for targeting operations.
  bool PickPage(Rng& rng, bool dirty_only, InodeNo* ino, PageIdx* idx) const {
    std::vector<const Page*> pool;
    for (const Page& p : lru_) {
      if (!dirty_only || p.dirty) {
        pool.push_back(&p);
      }
    }
    if (pool.empty()) {
      return false;
    }
    const Page* p = pool[rng.Uniform(pool.size())];
    *ino = p->ino;
    *idx = p->idx;
    return true;
  }

  uint64_t PageCount() const { return lru_.size(); }
  uint64_t DirtyCount() const {
    return std::count_if(lru_.begin(), lru_.end(),
                         [](const Page& p) { return p.dirty; });
  }
  uint64_t evictions() const { return evictions_; }
  std::vector<std::string> events;

 private:
  struct Page {
    InodeNo ino;
    PageIdx idx;
    uint64_t data;
    bool dirty;
    SimTime dirtied_at;
    uint64_t seq;  // insertion order
  };
  using Iter = std::list<Page>::iterator;

  Iter Find(InodeNo ino, PageIdx idx) {
    return std::find_if(lru_.begin(), lru_.end(), [&](const Page& p) {
      return p.ino == ino && p.idx == idx;
    });
  }

  void SetDirty(Page& p) {
    p.dirty = true;
    p.dirtied_at = g_now;
    Log(PageEventType::kDirtied, p.ino, p.idx, true, true);
  }

  void Log(PageEventType type, InodeNo ino, PageIdx idx, bool exists, bool dirty) {
    events.push_back(Describe(PageEvent{type, ino, idx, exists, dirty}));
  }

  // Scan from the LRU tail toward (never reaching) the MRU page, skipping
  // dirty pages. With an advisor, the window covers max(window, overshoot)
  // clean candidates; advised ones go first, then the rest in LRU order.
  void EvictIfNeeded() {
    if (lru_.size() <= capacity_) {
      return;
    }
    uint64_t need = lru_.size() - capacity_;
    std::vector<std::pair<InodeNo, PageIdx>> advised;
    std::vector<std::pair<InodeNo, PageIdx>> rest;
    uint64_t window = advisor_ ? std::max<uint64_t>(window_, need) : UINT64_MAX;
    uint64_t scanned = 0;
    for (auto it = lru_.rbegin(); it != lru_.rend() && scanned < window; ++it) {
      if (std::next(it) == lru_.rend()) {
        break;  // the MRU page
      }
      if (it->dirty) {
        continue;
      }
      ++scanned;
      if (advisor_ && advisor_(it->ino, it->idx)) {
        advised.emplace_back(it->ino, it->idx);
      } else {
        rest.emplace_back(it->ino, it->idx);
      }
    }
    advised.insert(advised.end(), rest.begin(), rest.end());
    for (size_t i = 0; i < advised.size() && i < need; ++i) {
      ++evictions_;
      Remove(advised[i].first, advised[i].second);
    }
  }

  uint64_t capacity_;
  PageCache::EvictionAdvisor advisor_;
  size_t window_;
  std::list<Page> lru_;
  uint64_t next_seq_ = 0;
  uint64_t evictions_ = 0;
};

std::vector<std::string> Describe(const std::vector<PageCache::DirtyPageRef>& refs) {
  std::vector<std::string> out;
  for (const auto& r : refs) {
    out.push_back(std::to_string(r.ino) + ":" + std::to_string(r.idx) + "=" +
                  std::to_string(r.data));
  }
  return out;
}

enum class AdvisorKind { kNone, kAlwaysFalse, kOddPages };

PageCache::EvictionAdvisor MakeAdvisor(AdvisorKind kind) {
  switch (kind) {
    case AdvisorKind::kNone:
      return nullptr;
    case AdvisorKind::kAlwaysFalse:
      return [](InodeNo, PageIdx) { return false; };
    case AdvisorKind::kOddPages:
      return [](InodeNo, PageIdx idx) { return idx % 2 == 1; };
  }
  return nullptr;
}

void RunDifferential(uint64_t seed, AdvisorKind kind) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  Rng rng(seed);
  g_now = 0;
  uint64_t capacity = 1 + rng.Uniform(8);
  size_t window = 1 + rng.Uniform(4);
  obs::ObsContext ctx;
  obs::ObsScope scope(&ctx);
  PageCache cache(capacity, [] { return g_now; });
  const obs::Counter* evictions = ctx.metrics.FindCounter("cache.evictions");
  EventLog log;
  cache.AddListener(&log);
  if (kind != AdvisorKind::kNone) {
    cache.SetEvictionAdvisor(MakeAdvisor(kind), window);
  }
  LruModel model(capacity, MakeAdvisor(kind), window);

  constexpr InodeNo kInodes = 3;
  constexpr PageIdx kPagesPerInode = 6;
  for (int step = 0; step < 400; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    g_now += rng.Uniform(3);
    InodeNo ino = 1 + rng.Uniform(kInodes);
    PageIdx idx = rng.Uniform(kPagesPerInode);
    uint64_t data = rng.Next();
    uint64_t op = rng.Uniform(100);
    if (op < 35) {
      bool dirty = rng.Chance(0.4);
      cache.Insert(ino, idx, data, dirty);
      model.Insert(ino, idx, data, dirty);
    } else if (op < 50) {
      ASSERT_EQ(cache.Lookup(ino, idx), model.Lookup(ino, idx));
    } else if (op < 60) {
      model.PickPage(rng, /*dirty_only=*/false, &ino, &idx);
      ASSERT_EQ(cache.MarkDirty(ino, idx, data), model.MarkDirty(ino, idx, data));
    } else if (op < 80) {
      // Clean any dirty page, not only the oldest.
      model.PickPage(rng, /*dirty_only=*/true, &ino, &idx);
      ASSERT_EQ(cache.MarkClean(ino, idx), model.MarkClean(ino, idx));
    } else if (op < 88) {
      ASSERT_EQ(cache.Remove(ino, idx), model.Remove(ino, idx));
    } else if (op < 91) {
      cache.RemoveInode(ino);
      model.RemoveInode(ino);
    } else {
      SimTime not_after = rng.Uniform(g_now + 1);
      uint64_t max = rng.Uniform(6);
      ASSERT_EQ(Describe(cache.CollectDirty(not_after, max)),
                model.CollectDirty(not_after, max));
    }
    ASSERT_EQ(log.events, model.events);
    ASSERT_EQ(cache.PageCount(), model.PageCount());
    ASSERT_EQ(cache.DirtyCount(), model.DirtyCount());
    ASSERT_EQ(evictions->value(), model.evictions());
    Status invariants = cache.CheckInvariants();
    ASSERT_TRUE(invariants.ok()) << invariants.ToString();
  }
}

TEST(PageCacheLruModelTest, MatchesModelWithoutAdvisor) {
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    RunDifferential(seed, AdvisorKind::kNone);
    if (HasFatalFailure()) {
      return;
    }
  }
}

TEST(PageCacheLruModelTest, MatchesModelWithAlwaysFalseAdvisor) {
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    RunDifferential(seed, AdvisorKind::kAlwaysFalse);
    if (HasFatalFailure()) {
      return;
    }
  }
}

TEST(PageCacheLruModelTest, MatchesModelWithSelectiveAdvisor) {
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    RunDifferential(seed, AdvisorKind::kOddPages);
    if (HasFatalFailure()) {
      return;
    }
  }
}

}  // namespace
}  // namespace duet
