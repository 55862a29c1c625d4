#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace lmas::obs {

/// Minimal self-contained JSON document: enough to serialize metric
/// snapshots, utilization series and trace events, and to parse them back
/// in tests (round-trip is part of the observability contract — a bench
/// artifact nobody can re-read is not an artifact). No external deps.
///
/// Objects preserve insertion order so emitted documents are deterministic
/// and diffs between bench runs stay readable.
class Json {
 public:
  enum class Type { Null, Bool, Number, String, Array, Object };

  Json() noexcept : type_(Type::Null) {}
  Json(std::nullptr_t) noexcept : type_(Type::Null) {}
  Json(bool b) noexcept : type_(Type::Bool), bool_(b) {}
  Json(double v) noexcept : type_(Type::Number), num_(v) {}
  Json(int v) noexcept : type_(Type::Number), num_(v) {}
  Json(unsigned v) noexcept : type_(Type::Number), num_(v) {}
  Json(long v) noexcept : type_(Type::Number), num_(double(v)) {}
  Json(unsigned long v) noexcept : type_(Type::Number), num_(double(v)) {}
  Json(long long v) noexcept : type_(Type::Number), num_(double(v)) {}
  Json(unsigned long long v) noexcept : type_(Type::Number), num_(double(v)) {}
  Json(const char* s) : type_(Type::String), str_(s) {}
  Json(std::string s) : type_(Type::String), str_(std::move(s)) {}
  Json(std::string_view s) : type_(Type::String), str_(s) {}

  static Json array() {
    Json j;
    j.type_ = Type::Array;
    return j;
  }
  static Json object() {
    Json j;
    j.type_ = Type::Object;
    return j;
  }
  template <typename T>
  static Json array_of(const std::vector<T>& v) {
    Json j = array();
    j.arr_.reserve(v.size());
    for (const auto& x : v) j.arr_.emplace_back(x);
    return j;
  }

  [[nodiscard]] Type type() const noexcept { return type_; }
  [[nodiscard]] bool is_null() const noexcept { return type_ == Type::Null; }
  [[nodiscard]] bool is_bool() const noexcept { return type_ == Type::Bool; }
  [[nodiscard]] bool is_number() const noexcept {
    return type_ == Type::Number;
  }
  [[nodiscard]] bool is_string() const noexcept {
    return type_ == Type::String;
  }
  [[nodiscard]] bool is_array() const noexcept { return type_ == Type::Array; }
  [[nodiscard]] bool is_object() const noexcept {
    return type_ == Type::Object;
  }

  [[nodiscard]] bool as_bool() const noexcept { return bool_; }
  [[nodiscard]] double as_double() const noexcept { return num_; }
  [[nodiscard]] std::int64_t as_int() const noexcept {
    return std::int64_t(num_);
  }
  [[nodiscard]] const std::string& as_string() const noexcept { return str_; }

  // ----- array interface -----
  void push_back(Json v) {
    type_ = Type::Array;
    arr_.push_back(std::move(v));
  }
  [[nodiscard]] std::size_t size() const noexcept {
    return type_ == Type::Object ? obj_.size() : arr_.size();
  }
  [[nodiscard]] const Json& at(std::size_t i) const { return arr_.at(i); }
  [[nodiscard]] const std::vector<Json>& items() const noexcept {
    return arr_;
  }

  // ----- object interface -----
  // Members live in one insertion-ordered vector with no key index, so
  // operator[], contains, find and at(key) scan it: O(members) per call.
  // That is cheap for the small hand-built objects they serve; building a
  // large object key by key through operator[] is quadratic. Use append()
  // when the keys are unique by construction.

  /// Insert-or-get a member; converts a null value to an object in place.
  Json& operator[](std::string_view key) {
    type_ = Type::Object;
    for (auto& [k, v] : obj_) {
      if (k == key) return v;
    }
    obj_.emplace_back(std::string(key), Json());
    return obj_.back().second;
  }
  /// Add a member at the end without looking the key up: amortized O(1).
  /// Precondition: `key` is not already a member. Nothing checks it; a
  /// repeated key yields an object with two members of that name, which
  /// dumps as a JSON text with a duplicate key. Converts a null value to an
  /// object in place, like operator[].
  Json& append(std::string key, Json value) {
    type_ = Type::Object;
    obj_.emplace_back(std::move(key), std::move(value));
    return obj_.back().second;
  }
  [[nodiscard]] bool contains(std::string_view key) const noexcept {
    return find(key) != nullptr;
  }
  [[nodiscard]] const Json* find(std::string_view key) const noexcept {
    for (const auto& [k, v] : obj_) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  /// Throws std::out_of_range if absent.
  [[nodiscard]] const Json& at(std::string_view key) const;
  [[nodiscard]] const std::vector<std::pair<std::string, Json>>& members()
      const noexcept {
    return obj_;
  }

  /// Serialize. indent < 0 emits the compact single-line form.
  [[nodiscard]] std::string dump(int indent = -1) const;

  /// Parse a complete JSON document; nullopt on any syntax error or
  /// trailing garbage. Linear in the input size. A key repeated within
  /// one object keeps the position of its first occurrence and the value
  /// of its last.
  static std::optional<Json> parse(std::string_view text);

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  double num_ = 0;
  std::string str_;
  std::vector<Json> arr_;
  std::vector<std::pair<std::string, Json>> obj_;
};

}  // namespace lmas::obs
