#include "sim/delta_trace.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "util/hash.h"

namespace atlas::sim {
namespace {

[[noreturn]] void fail(const std::string& what) {
  throw TraceError("delta: " + what);
}

void put_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>(0x80 | (v & 0x7f)));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

std::size_t bitmap_bytes_for(std::uint64_t num_nets) {
  return static_cast<std::size_t>((num_nets + 7) / 8);
}

/// Mask of the bits in the final bitmap byte that address real nets; set
/// padding bits are a decode error so every valid trace has one canonical
/// byte form.
unsigned last_byte_mask(std::uint64_t num_nets) {
  const unsigned rem = static_cast<unsigned>(num_nets % 8);
  return rem == 0 ? 0xffu : (1u << rem) - 1u;
}

struct Cursor {
  const unsigned char* p;
  const unsigned char* end;

  std::size_t remaining() const { return static_cast<std::size_t>(end - p); }

  std::uint64_t varint(const char* what) {
    std::uint64_t v = 0;
    for (int i = 0; i < 10; ++i) {
      if (p == end) fail(std::string(what) + ": truncated varint");
      const unsigned char b = *p++;
      v |= static_cast<std::uint64_t>(b & 0x7f) << (7 * i);
      if ((b & 0x80) == 0) return v;
    }
    fail(std::string(what) + ": varint exceeds 10 bytes");
  }

  unsigned char byte(const char* what) {
    if (p == end) fail(std::string(what) + ": truncated");
    return *p++;
  }

  const unsigned char* bytes(std::size_t n, const char* what) {
    if (remaining() < n) fail(std::string(what) + ": truncated");
    const unsigned char* at = p;
    p += n;
    return at;
  }
};

/// Decode/validate core; returns the declared cycle count. With `nl` set
/// the trace must match the netlist and `levels` receives one row of
/// num_nets 0/1 levels per cycle (parse); without it the walk only checks
/// structure and never allocates proportionally to the declared sizes
/// (validate).
int decode_delta(std::string_view bytes, int max_cycles,
                 const netlist::Netlist* nl,
                 std::vector<std::uint8_t>* levels) {
  if (!looks_like_delta(bytes)) fail("bad magic (not an ATDT delta trace)");
  Cursor cur{reinterpret_cast<const unsigned char*>(bytes.data()) +
                 sizeof(kDeltaMagic),
             reinterpret_cast<const unsigned char*>(bytes.data()) +
                 bytes.size()};
  const unsigned char version = cur.byte("version");
  if (version != kDeltaVersion) {
    fail("unsupported version " + std::to_string(version));
  }
  const std::uint64_t num_nets = cur.varint("num_nets");
  const std::uint64_t num_cycles = cur.varint("num_cycles");
  if (max_cycles < 0) max_cycles = 0;
  if (num_cycles > static_cast<std::uint64_t>(max_cycles)) {
    fail("declared cycle count " + std::to_string(num_cycles) +
         " exceeds cycle limit " + std::to_string(max_cycles));
  }
  std::uint64_t order = 0;
  {
    const unsigned char* h = cur.bytes(8, "net-order hash");
    for (int i = 0; i < 8; ++i) order |= static_cast<std::uint64_t>(h[i])
                                         << (8 * i);
  }
  if (nl != nullptr) {
    if (num_nets != nl->num_nets()) {
      fail("net count mismatch: trace has " + std::to_string(num_nets) +
           " nets, netlist has " + std::to_string(nl->num_nets()));
    }
    if (order != net_order_hash(*nl)) {
      fail("net-order hash mismatch (trace was encoded against a different "
           "netlist)");
    }
  }
  if (num_cycles == 0) {
    if (cur.remaining() != 0) fail("cycle record in a zero-cycle trace");
    return 0;
  }

  const std::size_t bm_bytes = bitmap_bytes_for(num_nets);
  const unsigned pad_mask = last_byte_mask(num_nets);
  const unsigned char* init = cur.bytes(bm_bytes, "initial level bitmap");
  if (bm_bytes > 0 && (init[bm_bytes - 1] & ~pad_mask) != 0) {
    fail("padding bits set in initial level bitmap");
  }
  std::uint8_t* rows = nullptr;  // [cycle * num_nets + net], parse only
  const auto row = [&](std::uint64_t c) {
    return rows + static_cast<std::size_t>(c * num_nets);
  };
  if (nl != nullptr) {
    // At most max_cycles rows of the netlist's own net count.
    levels->assign(static_cast<std::size_t>(num_cycles * num_nets), 0);
    rows = levels->data();
  }
  const auto xor_bitmap = [&](std::uint64_t c, const unsigned char* bm) {
    for (std::uint64_t n = 0; rows != nullptr && n < num_nets; ++n) {
      row(c)[n] ^= (bm[n / 8] >> (n % 8)) & 1u;
    }
  };
  xor_bitmap(0, init);

  std::uint64_t cycle = 0;  // last decoded cycle
  // Quiet cycles repeat the previous levels; row c starts as row c - 1.
  const auto repeat_through = [&](std::uint64_t c) {
    for (; rows != nullptr && cycle < c; ++cycle) {
      std::copy_n(row(cycle), num_nets, row(cycle + 1));
    }
    cycle = c;
  };

  while (cur.remaining() != 0) {
    const std::uint64_t skip = cur.varint("cycle skip");
    if (skip >= num_cycles || cycle + 1 + skip >= num_cycles) {
      fail("cycle record at cycle " +
           std::to_string(static_cast<unsigned long long>(cycle) + 1 + skip) +
           " past declared count " + std::to_string(num_cycles));
    }
    repeat_through(cycle + 1 + skip);

    const unsigned char kind = cur.byte("record kind");
    if (kind == 0) {
      const std::uint64_t nruns = cur.varint("run count");
      if (nruns == 0) fail("RLE record with zero runs");
      if (nruns > num_nets) {
        fail("run count " + std::to_string(nruns) + " exceeds net count " +
             std::to_string(num_nets));
      }
      std::uint64_t pos = 0;
      for (std::uint64_t r = 0; r < nruns; ++r) {
        const std::uint64_t gap = cur.varint("run gap");
        const std::uint64_t len = cur.varint("run length");
        if (len == 0) fail("zero-length RLE run");
        if (r > 0 && gap == 0) fail("adjacent RLE runs must be merged");
        if (gap > num_nets - pos || len > num_nets - pos - gap) {
          fail("RLE run past net count " + std::to_string(num_nets));
        }
        const std::uint64_t start = pos + gap;
        for (std::uint64_t n = start; rows != nullptr && n < start + len; ++n) {
          row(cycle)[n] ^= 1u;
        }
        pos = start + len;
      }
    } else if (kind == 1) {
      const unsigned char* bm = cur.bytes(bm_bytes, "toggle bitmap");
      if (bm_bytes == 0) fail("empty toggle bitmap record");
      if ((bm[bm_bytes - 1] & ~pad_mask) != 0) {
        fail("padding bits set in toggle bitmap");
      }
      bool any = false;
      for (std::size_t i = 0; i < bm_bytes; ++i) any = any || bm[i] != 0;
      if (!any) fail("empty toggle bitmap record");
      xor_bitmap(cycle, bm);
    } else {
      fail("unknown record kind " + std::to_string(kind));
    }
  }
  repeat_through(num_cycles - 1);  // trailing quiet cycles
  return static_cast<int>(num_cycles);
}

}  // namespace

bool looks_like_delta(std::string_view bytes) {
  return bytes.size() >= sizeof(kDeltaMagic) &&
         std::memcmp(bytes.data(), kDeltaMagic, sizeof(kDeltaMagic)) == 0;
}

std::uint64_t net_order_hash(const netlist::Netlist& nl) {
  std::uint64_t h = util::kFnvOffsetBasis;
  for (const netlist::Net& net : nl.nets()) {
    h = util::fnv1a64(net.name.data(), net.name.size(), h);
    const char zero = '\0';
    h = util::fnv1a64(&zero, 1, h);
  }
  return h;
}

std::string write_delta(const netlist::Netlist& nl, const ToggleTrace& trace,
                        const std::vector<bool>& clock_net_mask) {
  if (trace.num_nets() != nl.num_nets() ||
      clock_net_mask.size() != nl.num_nets()) {
    fail("trace or clock mask net count does not match netlist");
  }
  const std::size_t num_nets = nl.num_nets();
  const std::size_t bm_bytes = bitmap_bytes_for(num_nets);
  const int num_cycles = trace.num_cycles();
  // Clock-network nets are encoded as constant 0.
  const auto level = [&](int c, netlist::NetId n) {
    return !clock_net_mask[n] && trace.value(c, n);
  };

  std::string out;
  out.append(kDeltaMagic, sizeof(kDeltaMagic));
  out.push_back(static_cast<char>(kDeltaVersion));
  put_varint(out, num_nets);
  put_varint(out, static_cast<std::uint64_t>(num_cycles));
  const std::uint64_t order = net_order_hash(nl);
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((order >> (8 * i)) & 0xff));
  }
  if (num_cycles <= 0) return out;

  std::string bitmap(bm_bytes, '\0');
  for (netlist::NetId n = 0; n < num_nets; ++n) {
    if (level(0, n)) bitmap[n / 8] |= static_cast<char>(1u << (n % 8));
  }
  out += bitmap;

  std::vector<netlist::NetId> toggled;
  std::string rle;
  int prev_record_cycle = 0;
  for (int c = 1; c < num_cycles; ++c) {
    toggled.clear();
    for (netlist::NetId n = 0; n < num_nets; ++n) {
      if (level(c, n) != level(c - 1, n)) toggled.push_back(n);
    }
    if (toggled.empty()) continue;

    // Gather [start, start+len) runs of consecutive toggled indices.
    rle.clear();
    std::uint64_t nruns = 0;
    {
      std::string runs;
      std::size_t i = 0, prev_end = 0;
      while (i < toggled.size()) {
        std::size_t j = i + 1;
        while (j < toggled.size() && toggled[j] == toggled[j - 1] + 1) ++j;
        put_varint(runs, toggled[i] - prev_end);
        put_varint(runs, j - i);
        prev_end = toggled[i] + (j - i);
        ++nruns;
        i = j;
      }
      put_varint(rle, nruns);
      rle += runs;
    }

    put_varint(out, static_cast<std::uint64_t>(c - prev_record_cycle - 1));
    prev_record_cycle = c;
    if (rle.size() <= bm_bytes) {
      out.push_back('\0');  // kind 0: RLE
      out += rle;
    } else {
      out.push_back('\1');  // kind 1: raw bitmap
      bitmap.assign(bm_bytes, '\0');
      for (const netlist::NetId n : toggled) {
        bitmap[n / 8] |= static_cast<char>(1u << (n % 8));
      }
      out += bitmap;
    }
  }
  return out;
}

ToggleTrace parse_delta(std::string_view bytes, const netlist::Netlist& nl,
                        int max_cycles) {
  std::vector<std::uint8_t> levels;
  const int cycles = decode_delta(bytes, max_cycles, &nl, &levels);
  return ToggleTrace::replay(nl, cycles, std::move(levels));
}

int validate_delta(std::string_view bytes, int max_cycles) {
  return decode_delta(bytes, max_cycles, nullptr, nullptr);
}

}  // namespace atlas::sim
