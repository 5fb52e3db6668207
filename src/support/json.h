// The one JSON codec behind every artifact and report in the tree.
//
// JsonWriter renders and JsonReader parses, over one shared surface:
// object, key, field, value, array, tuple and nullable. A persisted format
// is declared once, as a layout template over the codec (`template <class
// J, class T> void layout(J&, T&)`), and the writer and the strict reader
// both run that declaration, so their key order cannot drift. Write-only
// renderers use the writer directly.
//
// The reader checks keys in place (key order is part of each format's
// byte-stability contract; there is no DOM). It records its first failure
// — what it expected, at which byte — and then makes every operation a
// no-op, so a pass always completes, values it did not read keep their
// defaults, and the caller chooses to report or to abort. Integers are
// range-checked against their destination: fractions, exponents, NaN,
// overflow and (for unsigned fields) negative values are rejected.
// Semantic checks run after the pass, on the values it read.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace bolt::support {

namespace json_detail {
template <class T> struct is_pair : std::false_type {};
template <class A, class B> struct is_pair<std::pair<A, B>> : std::true_type {};
template <class T> struct is_vector : std::false_type {};
template <class T, class A>
struct is_vector<std::vector<T, A>> : std::true_type {};
}  // namespace json_detail

/// The surface both codecs share, over the primitives each provides:
/// key(), open(), close(), scalar() and array(container, each).
template <class Codec> class JsonCodec {
 public:
  template <class F> void object(F&& body) {
    self().open('{');
    body();
    self().close('}');
  }
  template <class F> void object(std::string_view k, F&& body) {
    self().key(k);
    object(body);
  }
  template <class T> void field(std::string_view k, T&& v) {
    self().key(k);
    value(v);
  }
  /// Strings, bools, integers, enums (as their underlying integer),
  /// doubles (written with six decimals), pairs (as 2-arrays) and
  /// sequences of those (as arrays).
  template <class T> void value(T&& v) {
    using U = std::decay_t<T>;
    if constexpr (json_detail::is_pair<U>::value) {
      tuple(v.first, v.second);
    } else if constexpr (std::is_enum_v<U>) {
      auto raw = static_cast<std::underlying_type_t<U>>(v);
      value(raw);
      if constexpr (!std::is_const_v<std::remove_reference_t<T>>) {
        v = static_cast<U>(raw);  // what the reader read (or v, unchanged)
      }
    } else if constexpr (std::is_arithmetic_v<U> ||
                         std::is_convertible_v<U, std::string_view>) {
      self().scalar(v);
    } else {
      self().array(v, [this](auto&& e) { value(e); });
    }
  }
  template <class C, class F>
  void array(std::string_view k, C&& c, F&& each) {
    self().key(k);
    self().array(c, each);
  }
  /// A fixed-arity heterogeneous array: `[a,b,...]`.
  template <class... T> void tuple(T&&... v) {
    self().open('[');
    (value(v), ...);
    self().close(']');
  }

 private:
  Codec& self() { return static_cast<Codec&>(*this); }
};

class JsonWriter : public JsonCodec<JsonWriter> {
 public:
  /// Compact by default. With `pretty_depth` > 0, keys are followed by
  /// ": ", items by ", ", and each item of a container nested at most
  /// `pretty_depth` deep starts its own indented line (BENCH_*.json).
  explicit JsonWriter(int pretty_depth = 0) : pretty_(pretty_depth) {}

  std::string take() { return std::move(out_); }

  using JsonCodec::array;
  void key(std::string_view k) {
    item();
    out_ += '"';
    out_ += k;
    out_ += pretty_ > 0 ? "\": " : "\":";
    after_key_ = true;
  }
  template <class C, class F> void array(const C& c, F&& each) {
    open('[');
    for (const auto& e : c) each(e);
    close(']');
  }
  /// Parallel containers as one array: `[each(a[i], b[i]) for i]`.
  template <class A, class B, class F>
  void array(std::string_view k, const A& a, const B& b, F&& each) {
    key(k);
    open('[');
    for (std::size_t i = 0; i < a.size(); ++i) each(a[i], b[i]);
    close(']');
  }
  /// `body()` when present, else `null`.
  template <class F> void nullable(bool present, F&& body) {
    if (present) return body();
    item();
    out_ += "null";
    comma_ = true;
  }

 private:
  friend class JsonCodec<JsonWriter>;

  /// The separator before a key or value (none right after a key).
  void item() {
    if (after_key_) {
      after_key_ = false;
      return;
    }
    if (comma_) out_ += ',';
    if (depth_ > 0 && depth_ <= pretty_) {
      newline();
    } else if (comma_ && pretty_ > 0) {
      out_ += ' ';
    }
  }
  void open(char c) {
    item();
    out_ += c;
    ++depth_;
    comma_ = false;
  }
  void close(char c) {
    if (--depth_ < pretty_) newline();
    out_ += c;
    comma_ = true;
  }
  void newline() {
    out_ += '\n';
    out_.append(2 * static_cast<std::size_t>(depth_), ' ');
  }
  template <class T> void scalar(const T& v) {
    item();
    if constexpr (std::is_convertible_v<T, std::string_view>) {
      quote(v);
    } else if constexpr (std::is_same_v<T, bool>) {
      out_ += v ? "true" : "false";
    } else if constexpr (std::is_floating_point_v<T>) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.6f", static_cast<double>(v));
      out_ += buf;
    } else if constexpr (std::is_integral_v<T>) {
      char buf[24];
      out_.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
    }
    comma_ = true;
  }
  /// Double-quoted, escaping quotes, backslashes, newlines and tabs.
  void quote(std::string_view s);

  std::string out_;
  int pretty_ = 0;
  int depth_ = 0;
  bool comma_ = false;      ///< the open container already has an item
  bool after_key_ = false;  ///< the next value belongs to the last key
};

class JsonReader : public JsonCodec<JsonReader> {
 public:
  /// `what` names the artifact kind in error messages ("contract json").
  JsonReader(const std::string& text, std::string what)
      : text_(text), what_(std::move(what)) {}

  bool ok() const { return error_.empty(); }
  /// The first failure: "<what>: <why> at byte N" (empty while ok()).
  const std::string& error() const { return error_; }
  /// "<what>: <why>", for the checks run after the pass (no byte to name).
  std::string invalid(const std::string& why) const {
    return what_ + ": " + why;
  }
  using JsonCodec::array;
  /// Reads `"k":`. A missing, misspelled or out-of-order key is rejected
  /// naming `k`, which must outlive the reader (a literal).
  void key(std::string_view k);
  /// A std::vector takes elements until ']', a std::array exactly its size.
  template <class C, class F> void array(C& c, F&& each) {
    open('[');
    if constexpr (json_detail::is_vector<C>::value) {
      while (ok() && !at(']')) each(c.emplace_back());
    } else {
      for (auto& e : c) each(e);
    }
    close(']');
  }
  template <class A, class B, class F>
  void array(std::string_view k, A& a, B& b, F&& each) {
    key(k);
    open('[');
    while (ok() && !at(']')) each(a.emplace_back(), b.emplace_back());
    close(']');
  }
  template <class F> void nullable(bool& present, F&& body) {
    present = !at('n');
    if (present) return body();
    item();
    literal("null");
    comma_ = true;
  }
  /// Call after the top-level value: trailing non-whitespace (a second
  /// object, concatenated artifacts, binary junk) is rejected.
  void end();

 private:
  friend class JsonCodec<JsonReader>;

  void item() {
    if (after_key_) {
      after_key_ = false;
    } else if (comma_) {
      expect(',');
    }
  }
  void open(char c) {
    item();
    expect(c);
    comma_ = false;
  }
  void close(char c) {
    expect(c);
    comma_ = true;
  }
  // The scalar readers write their destination only on success.
  template <class T> void scalar(T& v) {
    item();
    if constexpr (std::is_same_v<T, std::string>) {
      string(&v);
    } else if constexpr (std::is_same_v<T, bool>) {
      boolean(&v);
    } else {
      integer(&v);
    }
    comma_ = true;
  }
  template <class T> void integer(T* out) {
    bool negative = false;
    std::uint64_t magnitude = 0;
    if (!digits(&negative, &magnitude)) return;
    // Unsigned space keeps INT64_MIN (2^63, negated) free of overflow UB.
    std::uint64_t limit = std::numeric_limits<T>::max();
    if constexpr (std::is_signed_v<T>) limit += negative ? 1 : 0;
    if (std::is_unsigned_v<T> && negative && magnitude != 0) {
      fail(std::string(last_key_) + " must be non-negative");
    } else if (magnitude > limit) {
      fail("integer overflows " +
           std::to_string(std::numeric_limits<T>::digits +
                          std::is_signed_v<T>) +
           " bits");
    } else {
      *out = static_cast<T>(negative ? 0 - magnitude : magnitude);
    }
  }

  /// Records a failure at the current offset unless one is recorded.
  void fail(const std::string& why);
  void skip_ws();
  /// True when the next non-space character is `c` (consumes nothing).
  bool at(char c);
  bool consume(char c);
  void expect(char c);
  void literal(std::string_view word);
  void fail_expected(const std::string& what);
  void string(std::string* out);
  void boolean(bool* out);
  /// Sign + digits of an integer literal; false on failure (recorded).
  bool digits(bool* negative, std::uint64_t* magnitude);

  const std::string& text_;
  std::string what_;
  std::string error_;
  std::string_view last_key_;
  std::size_t pos_ = 0;
  bool comma_ = false;
  bool after_key_ = false;
};

}  // namespace bolt::support
