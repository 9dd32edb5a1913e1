// Property test of the Duet notification algebra (paper §3.2 / Table 2)
// against an executable reference model.
//
// For one page, a random interleaving of cache operations, fetches and
// done-marking is generated. The reference model tracks, per session:
//  * which event types occurred since the last fetch (event subscriptions);
//  * the page state at the last fetch vs now (state subscriptions);
//  * the done rule: while the item is done it reports nothing, an event the
//    session skips because the item is done drops the reported state, and
//    after UnsetDone the item reports relative to that dropped state.
// The real DuetCore must report exactly what the model predicts: accumulated
// event bits, state items only on net change, with current polarity. Its
// CheckInvariants() must hold after every step.

#include <gtest/gtest.h>

#include "src/cowfs/cowfs.h"
#include "src/duet/duet_core.h"
#include "src/util/rng.h"
#include "tests/sim_fixture.h"

namespace duet {
namespace {

uint8_t EventBit(PageEventType type) {
  switch (type) {
    case PageEventType::kAdded:
      return kDuetPageAdded;
    case PageEventType::kRemoved:
      return kDuetPageRemoved;
    case PageEventType::kDirtied:
      return kDuetPageDirtied;
    case PageEventType::kFlushed:
      return kDuetPageFlushed;
  }
  return 0;
}

// The state bit an event changes (Table 2's pairing).
uint8_t StateBit(PageEventType type) {
  return type == PageEventType::kAdded || type == PageEventType::kRemoved
             ? kDuetPageExists
             : kDuetPageModified;
}

struct ReferenceModel {
  explicit ReferenceModel(uint8_t session_mask) : mask(session_mask) {}

  uint8_t mask;  // the session's subscription
  // Page state in the (modeled) cache.
  bool exists = false;
  bool modified = false;
  bool done = false;
  // The session's per-page record. It exists from the first event the
  // session takes until nothing is pending and, for a state session, the
  // page left the cache (the §4.2 descriptor lifetime); without one the
  // reported state reads as neither existing nor modified.
  bool tracked = false;
  bool queued = false;  // a report waits for the next fetch
  // Accumulated-but-unfetched event bits.
  uint8_t pending_events = 0;
  // State snapshot at the last fetch (or SetDone).
  bool reported_exists = false;
  bool reported_modified = false;

  void Apply(PageEventType type) {
    switch (type) {
      case PageEventType::kAdded:
        exists = true;
        break;
      case PageEventType::kRemoved:
        exists = false;
        modified = false;
        break;
      case PageEventType::kDirtied:
        modified = true;
        break;
      case PageEventType::kFlushed:
        modified = false;
        break;
    }
    if ((mask & (EventBit(type) | StateBit(type))) == 0) {
      // Not subscribed: the session never sees the event.
    } else if (done) {
      if (tracked && !queued) {
        reported_exists = false;  // skipped while done: drop the snapshot
        reported_modified = false;
      }
    } else {
      tracked = true;
      pending_events |= EventBit(type) & mask;
      queued = queued || ExpectedFlags() != 0;
    }
    Untrack();
  }

  // Item flags a fetch returns for the page if it is queued; 0 = no item.
  uint8_t ExpectedFlags() const {
    uint8_t out = pending_events & mask & kDuetEventMask;
    if ((mask & kDuetPageExists) != 0 && reported_exists != exists) {
      out |= exists ? kDuetPageExists : kDuetPageRemoved;
    }
    if ((mask & kDuetPageModified) != 0 && reported_modified != modified) {
      out |= modified ? kDuetPageModified : kDuetPageFlushed;
    }
    return out;
  }

  // Expected result of a fetch (0 = no item), consuming the report.
  uint8_t Fetch() {
    if (!queued) {
      return 0;
    }
    uint8_t out = ExpectedFlags();
    MarkUpToDate();
    Untrack();
    return out;
  }

  void SetDone() {
    done = true;
    if (tracked) {
      MarkUpToDate();
    }
    Untrack();
  }

  void UnsetDone() { done = false; }

 private:
  void MarkUpToDate() {
    queued = false;
    pending_events = 0;
    reported_exists = exists;
    reported_modified = modified;
  }

  // Drops the per-page record once nothing keeps it.
  void Untrack() {
    bool state_session = (mask & kDuetStateMask) != 0;
    if (tracked && !(exists && state_session) && ExpectedFlags() == 0) {
      tracked = false;
      queued = false;
      pending_events = 0;
      reported_exists = false;
      reported_modified = false;
    }
  }
};

class DuetSemanticsPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DuetSemanticsPropertyTest, MatchesReferenceModel) {
  Rng rng(GetParam());
  SimRig rig(100'000);
  CowFs fs(&rig.loop, &rig.device, 64);
  DuetCore duet(&fs);
  InodeNo ino = *fs.PopulateFile("/f", kPageSize);
  uint64_t token = 1000;

  // A random subscription mask (at least one bit).
  uint8_t mask = 0;
  while (mask == 0) {
    mask = static_cast<uint8_t>(rng.Uniform(64));
  }
  SessionId sid = *duet.RegisterBlockTask(mask);
  BlockNo block = *fs.Bmap(ino, 0);  // cache operations below never remap it
  ReferenceModel model(mask);  // page not cached at registration: in sync

  for (int step = 0; step < 300; ++step) {
    uint64_t action = rng.Uniform(8);
    switch (action) {
      case 0:  // add (insert clean) — only when absent
        if (!model.exists) {
          fs.cache().Insert(ino, 0, ++token, false);
          model.Apply(PageEventType::kAdded);
        }
        break;
      case 1:  // remove — only when present and clean (LRU never evicts dirty)
        if (model.exists && !model.modified) {
          ASSERT_TRUE(fs.cache().Remove(ino, 0));
          model.Apply(PageEventType::kRemoved);
        }
        break;
      case 2:  // dirty
        if (model.exists && !model.modified) {
          ASSERT_TRUE(fs.cache().MarkDirty(ino, 0, ++token));
          model.Apply(PageEventType::kDirtied);
        }
        break;
      case 3:  // flush
        if (model.exists && model.modified) {
          ASSERT_TRUE(fs.cache().MarkClean(ino, 0));
          model.Apply(PageEventType::kFlushed);
        }
        break;
      case 4:  // mark the item done
        ASSERT_TRUE(duet.SetDone(sid, block).ok());
        model.SetDone();
        break;
      case 5:  // make it live again
        ASSERT_TRUE(duet.UnsetDone(sid, block).ok());
        model.UnsetDone();
        break;
      default: {  // fetch
        uint8_t expected = model.Fetch();
        Result<std::vector<DuetItem>> items = duet.Fetch(sid, 16);
        ASSERT_TRUE(items.ok());
        if (expected == 0) {
          ASSERT_TRUE(items->empty())
              << "step " << step << ": expected no item, got flags "
              << int((*items)[0].flags);
        } else {
          ASSERT_EQ(items->size(), 1u) << "step " << step;
          EXPECT_EQ((*items)[0].flags, expected) << "step " << step;
          EXPECT_EQ((*items)[0].id, block);
        }
        break;
      }
    }
    Status invariants = duet.CheckInvariants();
    ASSERT_TRUE(invariants.ok()) << "step " << step << ": " << invariants.ToString();
    ASSERT_EQ(duet.descriptor_count(), model.tracked ? 1u : 0u) << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DuetSemanticsPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12,
                                           13, 14, 15, 16));

}  // namespace
}  // namespace duet
