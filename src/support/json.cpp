#include "support/json.h"

#include <cctype>

namespace bolt::support {

void JsonWriter::quote(std::string_view s) {
  out_ += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out_ += "\\\""; break;
      case '\\': out_ += "\\\\"; break;
      case '\n': out_ += "\\n"; break;
      case '\t': out_ += "\\t"; break;
      default: out_ += c; break;
    }
  }
  out_ += '"';
}

void JsonReader::fail(const std::string& why) {
  if (!ok()) return;
  error_ = what_ + ": " + why + " at byte " + std::to_string(pos_);
}

void JsonReader::skip_ws() {
  while (pos_ < text_.size() &&
         std::isspace(static_cast<unsigned char>(text_[pos_]))) {
    ++pos_;
  }
}

bool JsonReader::at(char c) {
  skip_ws();
  return ok() && pos_ < text_.size() && text_[pos_] == c;
}

bool JsonReader::consume(char c) {
  if (!at(c)) return false;
  ++pos_;
  return true;
}

void JsonReader::fail_expected(const std::string& what) {
  fail("expected " + what + ", got " +
       (pos_ < text_.size() ? "'" + std::string(1, text_[pos_]) + "'"
                            : std::string("unexpected end of input")));
}

void JsonReader::expect(char c) {
  if (!consume(c)) fail_expected(std::string("'") + c + "'");
}

void JsonReader::literal(std::string_view word) {
  if (!at(word[0]) || text_.compare(pos_, word.size(), word) != 0) {
    return fail_expected(std::string(word));
  }
  pos_ += word.size();
}

void JsonReader::key(std::string_view k) {
  if (!ok()) return;
  last_key_ = k;
  const std::size_t close =
      (comma_ && !consume(',')) || !consume('"') ? std::string::npos
                                                 : text_.find('"', pos_);
  if (close == std::string::npos) {
    return fail_expected("key '" + std::string(k) + "'");
  }
  const std::string_view got(text_.data() + pos_, close - pos_);
  pos_ = close + 1;
  if (got != k) {
    return fail("expected key '" + std::string(k) + "', got '" +
                std::string(got) + "'");
  }
  expect(':');
  after_key_ = true;
}

void JsonReader::string(std::string* out) {
  expect('"');
  if (!ok()) return;
  std::string s;
  while (pos_ < text_.size() && text_[pos_] != '"') {
    char c = text_[pos_++];
    if (c == '\\' && pos_ < text_.size()) {
      const char esc = text_[pos_++];
      switch (esc) {
        case 'n': c = '\n'; break;
        case 't': c = '\t'; break;
        default: c = esc; break;
      }
    }
    s += c;
  }
  if (pos_ >= text_.size()) {
    return fail("unterminated string (unexpected end of input)");
  }
  ++pos_;  // closing quote
  *out = std::move(s);
}

void JsonReader::boolean(bool* out) {
  const bool t = at('t');
  if (!t && !at('f')) return fail_expected("boolean");
  literal(t ? "true" : "false");
  if (ok()) *out = t;
}

bool JsonReader::digits(bool* negative, std::uint64_t* magnitude) {
  const auto at_digit = [&] {
    return pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]));
  };
  if (!ok()) return false;
  *negative = consume('-');
  if (!at_digit()) {
    fail_expected("integer (bound constants must be finite integers)");
    return false;
  }
  for (; at_digit(); ++pos_) {
    const std::uint64_t digit = std::uint64_t(text_[pos_] - '0');
    if (*magnitude > (~std::uint64_t{0} - digit) / 10) {
      fail("integer overflows 64 bits");
      return false;
    }
    *magnitude = *magnitude * 10 + digit;
  }
  if (pos_ < text_.size() &&
      (text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E')) {
    fail("non-integer constant (bound constants must be finite integers)");
  }
  return ok();
}

void JsonReader::end() {
  skip_ws();
  if (pos_ != text_.size()) fail("trailing garbage after the top-level value");
}

}  // namespace bolt::support
