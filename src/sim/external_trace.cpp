#include "sim/external_trace.h"

#include "sim/delta_trace.h"
#include "util/hash.h"
#include "util/serialize.h"

namespace atlas::sim {

ExternalTrace::ExternalTrace(std::string bytes, TraceEncoding encoding)
    : bytes_(std::move(bytes)), hash_(util::fnv1a64(bytes_)),
      encoding_(encoding) {}

ExternalTrace ExternalTrace::from_vcd_text(std::string text) {
  return ExternalTrace(std::move(text), TraceEncoding::kVcdText);
}

ExternalTrace ExternalTrace::from_delta_bytes(std::string bytes) {
  return ExternalTrace(std::move(bytes), TraceEncoding::kDelta);
}

ExternalTrace ExternalTrace::from_file(const std::string& path) {
  std::string bytes = util::read_file(path);
  if (looks_like_delta(bytes)) return from_delta_bytes(std::move(bytes));
  return from_vcd_text(std::move(bytes));
}

ToggleTrace ExternalTrace::resolve(const netlist::Netlist& nl,
                                   int max_cycles) const {
  return encoding_ == TraceEncoding::kDelta
             ? parse_delta(bytes_, nl, max_cycles)
             : parse_vcd(bytes_, nl, max_cycles);
}

}  // namespace atlas::sim
