#ifndef RNT_COMMON_FLAT_MAP_H_
#define RNT_COMMON_FLAT_MAP_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>

namespace rnt {

/// An insert-and-lookup hash table from unsigned integer ids to small
/// trivially copyable values, for per-object tables that only grow (the
/// engine's committed store, the checker's version windows and
/// tombstones).
///
/// Layout: open addressing with linear probing, keys and values in two
/// parallel arrays, so an entry costs sizeof(K) + sizeof(V) bytes per
/// slot and no node, pointer or bucket array. The table grows by half
/// when it passes 80% load, so between growths it is 53–80% full; the
/// slot index is a multiply-shift of a mixed hash (any capacity works,
/// not only powers of two). With `segments` > 1 the keys are split by
/// hash over independently grown sub-tables, so one growth copies, and
/// briefly doubles, only that segment. Nothing is allocated before the
/// first insert.
///
/// There is no erase, and references returned by Find/operator[] stay
/// valid only until the next insert of a new key. ForEach walks in hash
/// order: use it only where order cannot matter (the online checker's
/// files must not call it; the linter's hashed-iteration rule enforces
/// that).
template <typename K, typename V>
class FlatMap {
  static_assert(std::is_unsigned_v<K>, "keys are unsigned integer ids");
  static_assert(std::is_trivially_copyable_v<V>, "values move by copy");

 public:
  /// `segments` is rounded up to a power of two.
  explicit FlatMap(std::size_t segments = 1) {
    std::size_t n = 1;
    while (n < segments) n *= 2;
    segments_.resize(n);
  }

  V* Find(K key) {
    if (key == kEmpty) return has_empty_key_ ? &empty_key_value_ : nullptr;
    const std::uint64_t h = Hash(key);
    Segment& s = SegmentFor(h);
    if (s.keys.empty()) return nullptr;
    for (std::size_t i = Home(h, s.keys.size());; i = Next(i, s)) {
      if (s.keys[i] == key) return &s.values[i];
      if (s.keys[i] == kEmpty) return nullptr;
    }
  }
  const V* Find(K key) const { return const_cast<FlatMap*>(this)->Find(key); }

  /// The value for `key`, value-initialized on first use.
  V& operator[](K key) {
    if (key == kEmpty) {
      if (!has_empty_key_) {
        has_empty_key_ = true;
        ++size_;
      }
      return empty_key_value_;
    }
    const std::uint64_t h = Hash(key);
    Segment& s = SegmentFor(h);
    if ((s.size + 1) * 5 > s.keys.size() * 4) Grow(s);
    std::size_t i = Home(h, s.keys.size());
    for (; s.keys[i] != kEmpty; i = Next(i, s)) {
      if (s.keys[i] == key) return s.values[i];
    }
    s.keys[i] = key;
    s.values[i] = V{};
    ++s.size;
    ++size_;
    return s.values[i];
  }

  std::size_t size() const { return size_; }

  /// Heap bytes held by the slot arrays (the segment headers excluded).
  std::size_t MemoryBytes() const {
    std::size_t bytes = 0;
    for (const Segment& s : segments_) {
      bytes += s.keys.capacity() * sizeof(K) + s.values.capacity() * sizeof(V);
    }
    return bytes;
  }

  /// Calls fn(key, value) for every entry, in hash order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    if (has_empty_key_) fn(kEmpty, empty_key_value_);
    for (const Segment& s : segments_) {
      for (std::size_t i = 0; i < s.keys.size(); ++i) {
        if (s.keys[i] != kEmpty) fn(s.keys[i], s.values[i]);
      }
    }
  }

 private:
  /// Marks a free slot; the one real key equal to it lives out of line.
  static constexpr K kEmpty = std::numeric_limits<K>::max();

  struct Segment {
    std::vector<K> keys;  // kEmpty where free
    std::vector<V> values;
    std::size_t size = 0;
  };

  static std::uint64_t Hash(K key) {
    // SplitMix64's finalizer: every key bit reaches the high bits that
    // Home uses and the low bits that pick the segment.
    std::uint64_t z = static_cast<std::uint64_t>(key);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Maps the hash's high 32 bits onto [0, cap) (cap < 2^32).
  static std::size_t Home(std::uint64_t h, std::size_t cap) {
    return static_cast<std::size_t>(((h >> 32) * cap) >> 32);
  }
  static std::size_t Next(std::size_t i, const Segment& s) {
    return i + 1 == s.keys.size() ? 0 : i + 1;
  }
  Segment& SegmentFor(std::uint64_t h) {
    return segments_[h & (segments_.size() - 1)];
  }

  void Grow(Segment& s) {
    const std::size_t cap = s.keys.empty() ? 8 : s.keys.size() * 3 / 2;
    std::vector<K> keys(cap, kEmpty);
    std::vector<V> values(cap);
    for (std::size_t j = 0; j < s.keys.size(); ++j) {
      if (s.keys[j] == kEmpty) continue;
      std::size_t i = Home(Hash(s.keys[j]), cap);
      while (keys[i] != kEmpty) i = i + 1 == cap ? 0 : i + 1;
      keys[i] = s.keys[j];
      values[i] = s.values[j];
    }
    s.keys = std::move(keys);
    s.values = std::move(values);
  }

  std::vector<Segment> segments_;
  std::size_t size_ = 0;
  bool has_empty_key_ = false;
  V empty_key_value_{};
};

}  // namespace rnt

#endif  // RNT_COMMON_FLAT_MAP_H_
