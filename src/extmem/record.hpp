#pragma once

#include <array>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

namespace lmas::em {

/// Streams carry fixed-size records: trivially copyable so they can move
/// through block buffers, channels and files as raw bytes (the TPIE model).
template <typename T>
concept FixedSizeRecord = std::is_trivially_copyable_v<T> &&
                          std::is_default_constructible_v<T>;

/// The evaluation's record: 128 bytes with a 4-byte key (Section 6).
struct Record128 {
  std::uint32_t key = 0;
  std::uint32_t id = 0;  // origin tag; lets tests verify permutations
  std::array<std::uint8_t, 120> payload{};

  friend bool operator<(const Record128& a, const Record128& b) noexcept {
    return a.key < b.key;
  }
  friend bool operator==(const Record128& a, const Record128& b) noexcept {
    return a.key == b.key && a.id == b.id && a.payload == b.payload;
  }
};
static_assert(sizeof(Record128) == 128);
static_assert(FixedSizeRecord<Record128>);

/// Compact record for simulations that only need keys and provenance.
struct KeyRecord {
  std::uint32_t key = 0;
  std::uint32_t id = 0;

  friend bool operator<(const KeyRecord& a, const KeyRecord& b) noexcept {
    return a.key < b.key;
  }
  friend bool operator==(const KeyRecord& a, const KeyRecord& b) noexcept =
      default;
};
static_assert(sizeof(KeyRecord) == 8);
static_assert(FixedSizeRecord<KeyRecord>);

/// Records that carry a 32-bit `key` member (KeyRecord, Record128).
template <typename T>
concept Key32Record =
    FixedSizeRecord<T> && std::same_as<decltype(T::key), std::uint32_t>;

/// Default key extractor: anything with a `.key` member.
struct KeyOf {
  template <typename T>
  auto operator()(const T& r) const noexcept {
    return r.key;
  }
};

}  // namespace lmas::em
