// Dynamically typed attribute value used throughout the AIQL system.
//
// Entity and event attributes (the schema in src/storage/schema.h) have mixed
// types, so predicates, relationship joins, aggregation, and result tables
// all operate on a small variant type. Values are totally ordered
// (numbers before strings, like SQL collation of mixed types never happens in
// practice because attributes are consistently typed).
#ifndef AIQL_SRC_UTIL_VALUE_H_
#define AIQL_SRC_UTIL_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>

namespace aiql {

// A named query-parameter occurrence ($name) recorded by the parser. Exists
// only between parsing and PreparedQuery::Bind — binding replaces it with a
// concrete value, and the inference pass rejects any leftover occurrence, so
// execution never evaluates one. `line` is the source position of the `$`
// token, carried for bind-time diagnostics.
struct ParamRef {
  std::string name;
  int line = 0;
};

class Value {
 public:
  Value() : v_(int64_t{0}) {}
  explicit Value(int64_t v) : v_(v) {}
  explicit Value(int v) : v_(static_cast<int64_t>(v)) {}
  explicit Value(double v) : v_(v) {}
  explicit Value(std::string v) : v_(std::move(v)) {}
  explicit Value(const char* v) : v_(std::string(v)) {}

  // Placeholder for an unbound $name parameter.
  static Value Param(std::string name, int line);

  bool is_int() const { return std::holds_alternative<int64_t>(v_); }
  bool is_double() const { return std::holds_alternative<double>(v_); }
  bool is_string() const { return std::holds_alternative<std::string>(v_); }
  bool is_numeric() const { return is_int() || is_double(); }
  bool is_param() const { return std::holds_alternative<ParamRef>(v_); }
  const ParamRef& param() const { return std::get<ParamRef>(v_); }

  int64_t as_int() const;
  double as_double() const;
  const std::string& as_string() const;

  // Renders the value for result tables and query translation.
  std::string ToString() const;

  // SQL-style three-valued comparisons collapse to two-valued here: values of
  // mismatched families compare numerically when both are numeric, otherwise
  // by string rendering.
  bool operator==(const Value& other) const;
  bool operator!=(const Value& other) const { return !(*this == other); }
  bool operator<(const Value& other) const;
  bool operator<=(const Value& other) const { return *this < other || *this == other; }
  bool operator>(const Value& other) const { return !(*this <= other); }
  bool operator>=(const Value& other) const { return !(*this < other); }

  // Stable hash usable as a join key.
  size_t Hash() const;

 private:
  std::variant<int64_t, double, std::string, ParamRef> v_;
};

struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

}  // namespace aiql

#endif  // AIQL_SRC_UTIL_VALUE_H_
