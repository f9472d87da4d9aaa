#include "sim/external_trace.h"


#include "sim/delta_trace.h"
#include "util/hash.h"
#include "util/serialize.h"

namespace atlas::sim {
ExternalTrace ExternalTrace::from_vcd_text(std::string text) {
  ExternalTrace t;
  t.hash_ = util::fnv1a64(text);
  t.bytes_ = std::move(text);
  t.encoding_ = TraceEncoding::kVcdText;
  return t;
}

ExternalTrace ExternalTrace::from_delta_bytes(std::string bytes) {
  ExternalTrace t;
  t.hash_ = util::fnv1a64(bytes);
  t.bytes_ = std::move(bytes);
  t.encoding_ = TraceEncoding::kDelta;
  return t;
}

ExternalTrace ExternalTrace::from_file(const std::string& path) {
  std::string bytes = util::read_file(path);
  if (looks_like_delta(bytes)) return from_delta_bytes(std::move(bytes));
  return from_vcd_text(std::move(bytes));
}

ToggleTrace ExternalTrace::resolve(const netlist::Netlist& nl,
                                   int max_cycles) const {
  const VcdData vcd = encoding_ == TraceEncoding::kDelta
                          ? parse_delta(bytes_, nl, max_cycles)
                          : parse_vcd(bytes_, nl, max_cycles);
  return trace_from_vcd(vcd, nl);
}

}  // namespace atlas::sim
