#pragma once
// Minimal JSON value model, parser, and serializer.
//
// Used for the association-rule interchange format (mirroring the paper's
// released rule list, Appendix F), model checkpoints, and experiment output.
// Supports the full JSON grammar except for \u escapes beyond the Basic
// Latin range (which are preserved verbatim as escaped sequences).

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace scrubber::util {

class Json;

/// Ordered object representation: preserves insertion order so exported
/// rule files diff cleanly run-to-run.
using JsonObject = std::vector<std::pair<std::string, Json>>;
using JsonArray = std::vector<Json>;

/// Error thrown on malformed JSON input or type-mismatched access.
class JsonError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A JSON value (null, bool, number, string, array, or object).
class Json {
 public:
  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  Json(double d) : value_(d) {}
  Json(int i) : value_(static_cast<double>(i)) {}
  Json(std::int64_t i) : value_(static_cast<double>(i)) {}
  Json(std::uint64_t i) : value_(static_cast<double>(i)) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(JsonArray a) : value_(std::move(a)) {}
  Json(JsonObject o) : value_(std::move(o)) {}

  [[nodiscard]] bool is_null() const noexcept {
    return std::holds_alternative<std::nullptr_t>(value_);
  }

  /// Typed accessors; throw JsonError on type mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] std::int64_t as_int() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const JsonArray& as_array() const;
  [[nodiscard]] const JsonObject& as_object() const;
  [[nodiscard]] JsonArray& as_array();
  [[nodiscard]] JsonObject& as_object();

  /// Object field lookup; returns nullptr when absent or not an object.
  [[nodiscard]] const Json* find(std::string_view key) const noexcept;

  /// Object field lookup; throws JsonError when absent.
  [[nodiscard]] const Json& at(std::string_view key) const;

  /// Appends/overwrites a field on an object value (converts null to object).
  void set(std::string key, Json value);

  /// Serializes to a compact string; `indent` > 0 pretty-prints.
  [[nodiscard]] std::string dump(int indent = 0) const;

  /// Parses a JSON document; throws JsonError with position info on error.
  [[nodiscard]] static Json parse(std::string_view text);

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  std::variant<std::nullptr_t, bool, double, std::string, JsonArray, JsonObject>
      value_;
};

}  // namespace scrubber::util
