#include "src/fs/meta_codec.h"

#include "src/util/crc32c.h"

namespace duet {

namespace {

constexpr uint32_t kSlotMagic = 0x444b5054;  // "DKPT"
constexpr size_t kSlotHeader = 4 + 8 + 8;    // magic, generation, payload size
constexpr size_t kSlotCrc = 4;

std::string SlotKey(const std::string& prefix, int slot) {
  return prefix + (slot == 0 ? ".0" : ".1");
}

// Parses one slot; returns nullopt if absent, bad magic, or bad CRC.
std::optional<LoadedCheckpoint> ParseSlot(const DurableImage& image,
                                          const std::string& key) {
  const std::vector<uint8_t>* blob = image.GetMeta(key);
  if (blob == nullptr) {
    return std::nullopt;
  }
  ByteReader r(*blob);
  if (r.U32() != kSlotMagic) {
    return std::nullopt;
  }
  LoadedCheckpoint out;
  out.generation = r.U64();
  uint64_t payload_size = r.U64();
  // Compared by subtraction: header + payload_size + CRC can wrap around.
  if (!r.ok() || blob->size() < kSlotHeader + kSlotCrc ||
      payload_size > blob->size() - kSlotHeader - kSlotCrc) {
    return std::nullopt;
  }
  out.payload.assign(blob->begin() + kSlotHeader,
                     blob->begin() + static_cast<long>(kSlotHeader + payload_size));
  uint32_t stored_crc = 0;
  for (size_t i = 0; i < kSlotCrc; ++i) {
    stored_crc |= static_cast<uint32_t>((*blob)[kSlotHeader + payload_size + i])
                  << (8 * i);
  }
  if (stored_crc != Crc32c(blob->data(), kSlotHeader + payload_size)) {
    return std::nullopt;
  }
  return out;
}

}  // namespace

void CommitCheckpointSlot(DurableImage* image, const std::string& prefix,
                          uint64_t generation, const std::vector<uint8_t>& payload) {
  ByteWriter w;
  w.U32(kSlotMagic);
  w.U64(generation);
  w.U64(payload.size());
  std::vector<uint8_t> blob = w.Take();
  blob.insert(blob.end(), payload.begin(), payload.end());
  uint32_t crc = Crc32c(blob.data(), blob.size());
  for (int i = 0; i < 4; ++i) {
    blob.push_back(static_cast<uint8_t>(crc >> (8 * i)));
  }
  // Overwrite the slot with the older generation (or an empty/invalid one).
  std::optional<LoadedCheckpoint> s0 = ParseSlot(*image, SlotKey(prefix, 0));
  std::optional<LoadedCheckpoint> s1 = ParseSlot(*image, SlotKey(prefix, 1));
  int target = 0;
  if (s0.has_value() && (!s1.has_value() || s0->generation > s1->generation)) {
    target = 1;
  }
  image->PutMeta(SlotKey(prefix, target), std::move(blob));
}

std::optional<LoadedCheckpoint> LoadNewestCheckpoint(const DurableImage& image,
                                                     const std::string& prefix) {
  std::optional<LoadedCheckpoint> s0 = ParseSlot(image, SlotKey(prefix, 0));
  std::optional<LoadedCheckpoint> s1 = ParseSlot(image, SlotKey(prefix, 1));
  if (s0.has_value() && s1.has_value()) {
    return s0->generation >= s1->generation ? s0 : s1;
  }
  return s0.has_value() ? s0 : s1;
}

namespace {
constexpr uint32_t kCursorMagic = 0x43525352;  // "CRSR"
}  // namespace

void PutCursorMeta(DurableImage* image, const std::string& key,
                   const std::vector<uint64_t>& words) {
  ByteWriter w;
  w.U32(kCursorMagic);
  w.U32(static_cast<uint32_t>(words.size()));
  for (uint64_t word : words) {
    w.U64(word);
  }
  std::vector<uint8_t> blob = w.Take();
  uint32_t crc = Crc32c(blob.data(), blob.size());
  for (int i = 0; i < 4; ++i) {
    blob.push_back(static_cast<uint8_t>(crc >> (8 * i)));
  }
  image->PutMeta(key, std::move(blob));
}

std::optional<std::vector<uint64_t>> GetCursorMeta(const DurableImage& image,
                                                   const std::string& key) {
  const std::vector<uint8_t>* blob = image.GetMeta(key);
  if (blob == nullptr || blob->size() < 4 + 4 + 4) {
    return std::nullopt;
  }
  ByteReader r(*blob);
  if (r.U32() != kCursorMagic) {
    return std::nullopt;
  }
  uint32_t count = r.U32();
  std::vector<uint64_t> words;
  // Bounded by the blob: a claimed count cannot outrun the bytes.
  for (uint32_t i = 0; i < count && r.ok(); ++i) {
    words.push_back(r.U64());
  }
  uint32_t stored_crc = r.U32();
  if (!r.ok() || !r.AtEnd() ||
      stored_crc != Crc32c(blob->data(), blob->size() - 4)) {
    return std::nullopt;
  }
  return words;
}

SimDuration MetaIoLatency(size_t bytes) {
  // One seek to the reserved metadata area, then ~400 MB/s streaming.
  return Micros(400) + Micros((bytes * 8) / 3200 + 1);
}

}  // namespace duet
