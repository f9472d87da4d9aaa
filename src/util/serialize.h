// The one byte codec of the ATSP wire (serve/protocol) and the model
// artifacts (Matrix, SgFormer, GbdtRegressor, AtlasModel): ByteWriter
// appends fixed-width host-order fields to a std::string, ByteReader reads
// them back through a bounds-checked cursor over a std::string_view.
//
// The reader checks every declared length or element count against the
// bytes left before anything is allocated for it, so what it allocates is
// bounded by the input a length arrived in, never by the length; a truncated
// or hostile input throws SerializeError at the first field that does not fit.
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace atlas::util {

class SerializeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Appends encoded fields to a caller-owned string.
class ByteWriter {
 public:
  explicit ByteWriter(std::string& out) : out_(out) {}

  void u32(std::uint32_t v) { pod(v); }
  void u64(std::uint64_t v) { pod(v); }
  void i64(std::int64_t v) { pod(v); }
  void f32(float v) { pod(v); }
  void f64(double v) { pod(v); }
  /// u64 byte length, then the bytes.
  void string(std::string_view s) {
    u64(s.size());
    out_.append(s);
  }
  /// u64 element count, then the floats.
  void f32_span(const float* data, std::size_t n) {
    u64(n);
    out_.append(reinterpret_cast<const char*>(data), n * sizeof(float));
  }
  /// 4-byte magic, then a u32 version.
  void header(const char magic[4], std::uint32_t version) {
    out_.append(magic, 4);
    u32(version);
  }

 private:
  template <typename T>
  void pod(T v) {
    out_.append(reinterpret_cast<const char*>(&v), sizeof(T));
  }

  std::string& out_;
};

/// Reads over `bytes` (which must outlive the reader) in write order.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : rest_(bytes) {}

  std::uint32_t u32() { return pod<std::uint32_t>(); }
  std::uint64_t u64() { return pod<std::uint64_t>(); }
  std::int64_t i64() { return pod<std::int64_t>(); }
  float f32() { return pod<float>(); }
  double f64() { return pod<double>(); }
  std::string string();
  /// A u64 element count, checked against `min_elem_bytes` per element.
  std::size_t count(std::size_t min_elem_bytes);
  /// count(), then that many elements read by `fn(*this)`.
  template <typename T, typename Fn>
  std::vector<T> vector(std::size_t min_elem_bytes, Fn&& fn) {
    const std::size_t n = count(min_elem_bytes);
    std::vector<T> v;
    v.reserve(n);
    for (std::size_t i = 0; i < n; ++i) v.push_back(fn(*this));
    return v;
  }
  /// Reads a ByteWriter::f32_span whose stored count must be `n`.
  void f32_span(float* data, std::size_t n);
  /// Checks the 4-byte magic and returns the version.
  std::uint32_t header(const char magic[4]);

  std::size_t remaining() const { return rest_.size(); }
  bool done() const { return rest_.empty(); }

 private:
  /// The next `n` bytes; throws SerializeError when fewer are left.
  std::string_view take(std::uint64_t n);

  template <typename T>
  T pod() {
    T v;
    std::memcpy(&v, take(sizeof(T)).data(), sizeof(T));
    return v;
  }

  std::string_view rest_;
};

/// The whole contents of the file at `path`; throws std::runtime_error when
/// it cannot be opened or read.
std::string read_file(const std::string& path);
/// Replaces the file at `path` with `bytes`; throws std::runtime_error when
/// it cannot be opened or written.
void write_file(const std::string& path, std::string_view bytes);

}  // namespace atlas::util
