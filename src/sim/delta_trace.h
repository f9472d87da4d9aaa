// Binary toggle-delta trace codec ("ATDT") — the compact wire format for
// per-cycle toggle activity.
//
// VCD text re-states every net name in its header and spends ~4 bytes per
// value change plus a timestamp line per cycle; for the streamed-predict
// path that makes the trace the wire bottleneck. The delta format instead
// assumes the decoder knows the target netlist (it always does: the netlist
// text — or its hash, for design-by-hash streaming — travels in the same
// request) and encodes only *which nets toggled each cycle*:
//
//   offset  size             field
//   0       4                magic "ATDT"
//   4       1                version (currently 1)
//   5       varint           num_nets   (must equal the target netlist's)
//   ..      varint           num_cycles
//   ..      8                net-order hash (u64 LE): FNV-1a over every net
//                            name + '\0' in NetId order — decoding against a
//                            netlist with different net names/order is an
//                            error, never a silent misattribution
//   ..      ceil(nets/8)     cycle-0 level bitmap (bit n = level of net n;
//                            clock-network nets are 0, as in a parsed VCD)
//   ..      ...              cycle records, consuming the rest of the buffer
//
// Each cycle record encodes the nets that toggled on one cycle c >= 1:
//
//   varint  skip             fully-quiet cycles since the previous record
//                            (first record: since cycle 0); trailing quiet
//                            cycles are implied by num_cycles
//   u8      kind             0 = RLE runs, 1 = raw bitmap
//   kind 0: varint nruns (>= 1), then nruns x { varint gap, varint len }:
//           run i covers nets [start, start+len), len >= 1, start = gap for
//           the first run and previous run end + gap (gap >= 1) after —
//           adjacent runs must be merged, indices must stay < num_nets
//   kind 1: ceil(nets/8) bytes, bit n set = net n toggled; at least one bit
//           must be set (a quiet cycle is encoded by skipping, never by an
//           empty record)
//
// The encoder emits whichever of the two body kinds is smaller per cycle, so
// sparse cycles cost a few varints and dense cycles are capped at one bit
// per net. All varints are LEB128, at most 10 bytes. Every structural
// violation — truncation, oversized varints, out-of-range net indices,
// records past num_cycles, empty records — throws TraceError, the VCD
// parser's error. A decode allocates at most max_cycles rows of the
// netlist's net count, and only once the header and initial bitmap match
// the netlist; validation allocates nothing proportional to the declared
// sizes. Versioning: the u8 after the magic gates the layout; decoders
// reject versions they do not know, so a future v2 (e.g. per-record
// checksums or multi-bit nets) is a clean break, not a misparse.
//
// Decoding replays the per-cycle levels through ToggleTrace::replay, as
// parse_vcd does for the equivalent VCD text, so both formats yield
// bit-identical ToggleTraces by construction.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "netlist/netlist.h"
#include "sim/simulator.h"
#include "sim/vcd.h"

namespace atlas::sim {

inline constexpr char kDeltaMagic[4] = {'A', 'T', 'D', 'T'};
inline constexpr std::uint8_t kDeltaVersion = 1;

/// True when `bytes` starts with the ATDT magic (format sniffing for files
/// and tools; not a validity check).
bool looks_like_delta(std::string_view bytes);

/// FNV-1a over every net name + '\0' in NetId order — the header field that
/// binds a delta trace to the net ordering it was encoded against.
std::uint64_t net_order_hash(const netlist::Netlist& nl);

/// Encode the data-net levels of `trace` (the same net set write_vcd dumps;
/// clock-network nets are encoded as constant 0).
std::string write_delta(const netlist::Netlist& nl, const ToggleTrace& trace,
                        const std::vector<bool>& clock_net_mask);

/// Decode delta bytes against `nl` and replay them into the ToggleTrace
/// parse_vcd yields for the equivalent VCD text. Throws TraceError on
/// malformed bytes, a num_nets/net-order mismatch with `nl`, or a declared
/// cycle count past `max_cycles` (checked before any row is allocated).
ToggleTrace parse_delta(std::string_view bytes, const netlist::Netlist& nl,
                        int max_cycles = kMaxVcdCycles);

/// Structural validation without a netlist: header, varint and record
/// framing, run/bitmap bounds against the declared num_nets, cycle bounds
/// against num_cycles and `max_cycles`. Never allocates proportionally to
/// declared sizes — the serve layer runs this on the connection thread
/// before dispatching a streamed delta upload. Returns the declared cycle
/// count; throws TraceError.
int validate_delta(std::string_view bytes, int max_cycles = kMaxVcdCycles);

}  // namespace atlas::sim
