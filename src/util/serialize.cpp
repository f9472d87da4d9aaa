#include "util/serialize.h"

#include <algorithm>
#include <fstream>

namespace atlas::util {

std::string_view ByteReader::take(std::uint64_t n) {
  if (n > rest_.size()) {
    throw SerializeError("truncated input: field of " + std::to_string(n) +
                         " bytes, " + std::to_string(rest_.size()) + " left");
  }
  const std::string_view out = rest_.substr(0, static_cast<std::size_t>(n));
  rest_.remove_prefix(static_cast<std::size_t>(n));
  return out;
}

std::string ByteReader::string() { return std::string(take(u64())); }

std::size_t ByteReader::count(std::size_t min_elem_bytes) {
  const std::uint64_t n = u64();
  if (n > rest_.size() / std::max<std::size_t>(min_elem_bytes, 1)) {
    throw SerializeError("declared count " + std::to_string(n) +
                         " does not fit the " + std::to_string(rest_.size()) +
                         " bytes left");
  }
  return static_cast<std::size_t>(n);
}

void ByteReader::f32_span(float* data, std::size_t n) {
  if (u64() != n) throw SerializeError("f32 span size mismatch");
  // `data` holds n floats, so n * sizeof(float) cannot wrap.
  const std::string_view bytes = take(n * sizeof(float));
  if (n > 0) std::memcpy(data, bytes.data(), bytes.size());
}

std::uint32_t ByteReader::header(const char magic[4]) {
  if (take(4) != std::string_view(magic, 4)) {
    throw SerializeError("bad magic, expected " + std::string(magic, 4));
  }
  return u32();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open for read: " + path);
  std::string bytes;
  char buf[1 << 16];
  while (in.read(buf, sizeof(buf)) || in.gcount() > 0) {
    bytes.append(buf, static_cast<std::size_t>(in.gcount()));
  }
  if (in.bad()) throw std::runtime_error("read failed: " + path);
  return bytes;
}

void write_file(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open for write: " + path);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) throw std::runtime_error("write failed: " + path);
}

}  // namespace atlas::util
