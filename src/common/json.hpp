// Minimal JSON value model: parse, navigate, serialize.
//
// The telemetry exporters, the --json bench reports, and `trace_analyze
// export --check` all need to read back what they write; this keeps the
// repo dependency-free (no nlohmann/json in the image) at the cost of
// supporting only what those callers need: objects, arrays, strings, finite
// numbers, bools, null.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace ht::json {

class Value;

using Array = std::vector<Value>;
// std::map keeps object keys sorted, which makes every serialization
// deterministic — a requirement for the golden-file exporter tests.
using Object = std::map<std::string, Value>;

class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() : type_(Type::kNull) {}
  Value(bool b) : type_(Type::kBool), bool_(b) {}  // NOLINT(runtime/explicit)
  Value(double d) : type_(Type::kNumber), num_(d) {}
  Value(std::int64_t i) : type_(Type::kNumber), num_(static_cast<double>(i)) {}
  Value(std::uint64_t u) : type_(Type::kNumber), num_(static_cast<double>(u)) {}
  Value(int i) : type_(Type::kNumber), num_(i) {}
  Value(const char* s) : type_(Type::kString), str_(s) {}
  Value(std::string s) : type_(Type::kString), str_(std::move(s)) {}
  Value(Array a) : type_(Type::kArray), arr_(std::move(a)) {}
  Value(Object o) : type_(Type::kObject), obj_(std::move(o)) {}

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool as_bool() const { return bool_; }
  double as_double() const { return num_; }
  std::uint64_t as_u64() const { return static_cast<std::uint64_t>(num_); }
  const std::string& as_string() const { return str_; }
  const Array& as_array() const { return arr_; }
  const Object& as_object() const { return obj_; }
  Array& as_array() { return arr_; }
  Object& as_object() { return obj_; }

  bool contains(const std::string& key) const {
    return type_ == Type::kObject && obj_.count(key) != 0;
  }
  // Missing keys return a shared null value so lookups compose.
  const Value& at(const std::string& key) const;
  const Value& at(std::size_t i) const;

  std::string dump() const;

 private:
  void dump_to(std::string& out) const;

  Type type_;
  bool bool_ = false;
  double num_ = 0;
  std::string str_;
  Array arr_;
  Object obj_;
};

// Strict parse of a complete document (trailing garbage rejected). On failure
// returns false and, when `error` is non-null, a byte-offset diagnostic.
bool parse(const std::string& text, Value& out, std::string* error = nullptr);

// JSON string escaping (quotes not included).
std::string escape(const std::string& s);

// Number formatting shared by every exporter: integers print exactly,
// non-integers with enough digits to round-trip.
std::string number(double v);

}  // namespace ht::json
