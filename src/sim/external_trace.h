// Externally supplied per-cycle toggle traces (the "real workload" input).
//
// The paper's headline use case is time-based power analysis on real
// activity, not just the built-in synthetic W1/W2 stimuli. An ExternalTrace
// carries a client-supplied trace as an immutable blob plus its content
// hash, and resolves it against a netlist into the same ToggleTrace the
// cycle simulator produces — so the power analyzer and the ATLAS model
// consume external activity through exactly the code path they already use.
//
// Two encodings are carried behind the one resolve() path: the VCD text
// subset write_vcd emits, and the binary ATDT toggle-delta format
// (sim/delta_trace.h) that the streamed-predict wire path uses to avoid
// multi-megabyte VCD uploads. Both decoders replay their levels through
// ToggleTrace::replay, so offline `atlas_cli --vcd` and both wire formats
// stay bit-identical on the same underlying trace.
//
// The blob is kept verbatim (not pre-parsed) on purpose:
//   * the serve layer caches predictions keyed by content_hash(), so a warm
//     request never parses the trace at all;
//   * resolution needs the target netlist for name/index binding, which
//     arrives separately (offline: a Verilog file; online: the request's
//     netlist text or design hash), and must be bit-identical either way —
//     one resolve() path guarantees that.
#pragma once

#include <cstdint>
#include <string>

#include "netlist/netlist.h"
#include "sim/simulator.h"
#include "sim/vcd.h"

namespace atlas::sim {

/// On-wire / on-disk encoding of an ExternalTrace blob.
enum class TraceEncoding {
  kVcdText,  ///< write_vcd text subset
  kDelta,    ///< binary ATDT toggle-delta (sim/delta_trace.h)
};

class ExternalTrace {
 public:
  ExternalTrace() = default;

  /// Wrap VCD text (write_vcd subset). The text is validated lazily by
  /// resolve(); construction only hashes it.
  static ExternalTrace from_vcd_text(std::string text);

  /// Wrap binary ATDT delta bytes. Validated lazily by resolve(), same as
  /// the VCD constructor (use validate_delta for an eager structural check).
  static ExternalTrace from_delta_bytes(std::string bytes);

  /// Read a trace file of either encoding, sniffing the ATDT magic to pick
  /// between delta and VCD text. Throws std::runtime_error on I/O failure.
  static ExternalTrace from_file(const std::string& path);

  TraceEncoding encoding() const { return encoding_; }
  /// The raw trace blob (VCD text or ATDT bytes, per encoding()).
  const std::string& bytes() const { return bytes_; }

  /// FNV-1a of the raw trace bytes — the serve-layer embedding-cache key
  /// component, stable across processes and transports. (The same trace in
  /// the two encodings hashes differently; the cache just warms per form.)
  std::uint64_t content_hash() const { return hash_; }

  /// Decode against `nl` into per-net per-cycle values + transitions
  /// (clock-network activity replayed as ToggleTrace::replay documents).
  /// Cycle 0 carries no data-net transitions: both encodings store levels,
  /// so switching relative to the pre-trace state is unknowable — a replay
  /// matches a live simulation exactly from cycle 1 on.
  /// Throws TraceError on malformed bytes, a netlist mismatch, or a trace
  /// longer than `max_cycles`.
  ToggleTrace resolve(const netlist::Netlist& nl,
                      int max_cycles = kMaxVcdCycles) const;

 private:
  ExternalTrace(std::string bytes, TraceEncoding encoding);

  std::string bytes_;
  std::uint64_t hash_ = 0;
  TraceEncoding encoding_ = TraceEncoding::kVcdText;
};

}  // namespace atlas::sim
