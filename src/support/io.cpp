#include "support/io.h"

#include <cstdio>

#include "support/assert.h"

namespace bolt::support {

bool write_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool wrote =
      std::fwrite(content.data(), 1, content.size(), f) == content.size();
  // fclose can surface the real write error (buffered I/O, disk full).
  if (std::fclose(f) != 0 || !wrote) {
    std::remove(path.c_str());
    return false;
  }
  return true;
}

bool read_file(const std::string& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  out->clear();
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out->append(buf, n);
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  return !read_error;
}

std::string read_file_or_die(const std::string& path, const std::string& what) {
  std::string out;
  BOLT_CHECK(read_file(path, &out), "cannot open " + what + " '" + path + "'");
  BOLT_CHECK(!out.empty(), "empty " + what + " '" + path +
                               "' (truncated write?)");
  return out;
}

}  // namespace bolt::support
