#include "netlist/netlist.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

#include "util/strings.h"

namespace atlas::netlist {

using liberty::CellFunc;
using liberty::PinDir;

Netlist::Netlist(std::string name, const liberty::Library& lib)
    : name_(std::move(name)), lib_(&lib) {}

NetId Netlist::add_net(std::string name) {
  const NetId id = static_cast<NetId>(nets_.size());
  Net n;
  n.name = std::move(name);
  nets_.push_back(std::move(n));
  return id;
}

CellInstId Netlist::add_cell(std::string name, liberty::CellId lib_cell,
                             std::vector<NetId> pin_nets, SubmoduleId submodule) {
  const liberty::Cell& lc = lib_->cell(lib_cell);
  if (pin_nets.size() != lc.pins.size()) {
    throw std::invalid_argument(util::format(
        "add_cell(%s): %zu nets for %zu pins of %s", util::excerpt(name).c_str(),
        pin_nets.size(), lc.pins.size(), lc.name.c_str()));
  }
  const CellInstId id = static_cast<CellInstId>(cells_.size());
  for (std::size_t p = 0; p < pin_nets.size(); ++p) {
    Net& net = nets_.at(pin_nets[p]);
    if (lc.pins[p].dir == PinDir::kOutput) {
      if (net.has_driver() || net.is_primary_input) {
        throw std::invalid_argument("add_cell(" + util::excerpt(name) + "): net " +
                                    util::excerpt(net.name) +
                                    " already driven");
      }
      net.driver = PinRef{id, static_cast<int>(p)};
    } else {
      net.sinks.push_back(PinRef{id, static_cast<int>(p)});
    }
  }
  CellInst inst;
  inst.name = std::move(name);
  inst.lib_cell = lib_cell;
  inst.pin_nets = std::move(pin_nets);
  inst.submodule = submodule;
  cells_.push_back(std::move(inst));
  return id;
}

SubmoduleId Netlist::add_submodule(std::string name, std::string role,
                                   int component) {
  const SubmoduleId id = static_cast<SubmoduleId>(submodules_.size());
  submodules_.push_back(Submodule{std::move(name), std::move(role), component});
  return id;
}

int Netlist::add_component(std::string name) {
  components_.push_back(std::move(name));
  return static_cast<int>(components_.size()) - 1;
}

void Netlist::mark_primary_input(NetId net) {
  Net& n = nets_.at(net);
  if (n.has_driver()) {
    throw std::invalid_argument("primary input net already cell-driven: " +
                                util::excerpt(n.name));
  }
  n.is_primary_input = true;
}

void Netlist::mark_primary_output(NetId net) {
  nets_.at(net).is_primary_output = true;
}

void Netlist::disconnect_cell(CellInstId id) {
  CellInst& inst = cells_.at(id);
  const liberty::Cell& lc = lib_->cell(inst.lib_cell);
  for (std::size_t p = 0; p < inst.pin_nets.size(); ++p) {
    if (inst.pin_nets[p] == kNoNet) continue;
    Net& net = nets_.at(inst.pin_nets[p]);
    const PinRef ref{id, static_cast<int>(p)};
    if (lc.pins[p].dir == PinDir::kOutput) {
      if (net.driver == ref) net.driver = PinRef{};
    } else {
      net.sinks.erase(std::remove(net.sinks.begin(), net.sinks.end(), ref),
                      net.sinks.end());
    }
    inst.pin_nets[p] = kNoNet;
  }
}

void Netlist::move_pin(CellInstId id, int pin, NetId new_net) {
  CellInst& inst = cells_.at(id);
  const liberty::Cell& lc = lib_->cell(inst.lib_cell);
  const NetId old = inst.pin_nets.at(static_cast<std::size_t>(pin));
  const PinRef ref{id, pin};
  if (old != kNoNet) {
    Net& onet = nets_.at(old);
    if (lc.pins[static_cast<std::size_t>(pin)].dir == PinDir::kOutput) {
      if (onet.driver == ref) onet.driver = PinRef{};
    } else {
      onet.sinks.erase(std::remove(onet.sinks.begin(), onet.sinks.end(), ref),
                       onet.sinks.end());
    }
  }
  Net& nnet = nets_.at(new_net);
  if (lc.pins[static_cast<std::size_t>(pin)].dir == PinDir::kOutput) {
    if (nnet.has_driver() || nnet.is_primary_input) {
      throw std::invalid_argument("move_pin: target net already driven: " +
                                  nnet.name);
    }
    nnet.driver = ref;
  } else {
    nnet.sinks.push_back(ref);
  }
  inst.pin_nets[static_cast<std::size_t>(pin)] = new_net;
}

void Netlist::resize_cell(CellInstId id, liberty::CellId new_lib_cell) {
  CellInst& inst = cells_.at(id);
  const liberty::Cell& oldc = lib_->cell(inst.lib_cell);
  const liberty::Cell& newc = lib_->cell(new_lib_cell);
  if (oldc.pins.size() != newc.pins.size()) {
    throw std::invalid_argument("resize_cell: pin count mismatch " + oldc.name +
                                " -> " + newc.name);
  }
  for (std::size_t p = 0; p < oldc.pins.size(); ++p) {
    if (oldc.pins[p].dir != newc.pins[p].dir) {
      throw std::invalid_argument("resize_cell: pin direction mismatch");
    }
  }
  inst.lib_cell = new_lib_cell;
}

std::vector<CellInstId> Netlist::compact() {
  // Map old cell ids -> new ids, dropping fully disconnected cells.
  std::vector<CellInstId> cell_map(cells_.size(), kNoCell);
  std::vector<CellInst> new_cells;
  new_cells.reserve(cells_.size());
  for (CellInstId id = 0; id < cells_.size(); ++id) {
    const bool connected = std::any_of(
        cells_[id].pin_nets.begin(), cells_[id].pin_nets.end(),
        [](NetId n) { return n != kNoNet; });
    if (!connected) continue;
    cell_map[id] = static_cast<CellInstId>(new_cells.size());
    new_cells.push_back(std::move(cells_[id]));
  }
  // Drop nets with no driver, no PI flag, and no sinks.
  std::vector<NetId> net_map(nets_.size(), kNoNet);
  std::vector<Net> new_nets;
  new_nets.reserve(nets_.size());
  for (NetId id = 0; id < nets_.size(); ++id) {
    Net& n = nets_[id];
    // Remap/refresh endpoints first (cells may have been dropped).
    if (n.has_driver() && cell_map[n.driver.cell] == kNoCell) n.driver = PinRef{};
    std::erase_if(n.sinks,
                  [&](const PinRef& r) { return cell_map[r.cell] == kNoCell; });
    const bool used = n.has_driver() || n.is_primary_input ||
                      n.is_primary_output || !n.sinks.empty();
    if (!used) continue;
    net_map[id] = static_cast<NetId>(new_nets.size());
    new_nets.push_back(std::move(n));
  }
  for (Net& n : new_nets) {
    if (n.has_driver()) n.driver.cell = cell_map[n.driver.cell];
    for (PinRef& r : n.sinks) r.cell = cell_map[r.cell];
  }
  for (CellInst& c : new_cells) {
    for (NetId& nid : c.pin_nets) {
      nid = (nid == kNoNet) ? kNoNet : net_map[nid];
    }
  }
  cells_ = std::move(new_cells);
  nets_ = std::move(new_nets);
  if (clock_net_ != kNoNet) clock_net_ = net_map[clock_net_];
  return cell_map;
}

NetId Netlist::output_net(CellInstId id) const {
  const liberty::Cell& lc = lib_cell(id);
  const int p = lc.output_pin();
  if (p < 0) return kNoNet;
  return cells_.at(id).pin_nets[static_cast<std::size_t>(p)];
}

std::vector<NetId> Netlist::primary_inputs() const {
  std::vector<NetId> out;
  for (NetId id = 0; id < nets_.size(); ++id) {
    if (nets_[id].is_primary_input) out.push_back(id);
  }
  return out;
}

std::vector<NetId> Netlist::primary_outputs() const {
  std::vector<NetId> out;
  for (NetId id = 0; id < nets_.size(); ++id) {
    if (nets_[id].is_primary_output) out.push_back(id);
  }
  return out;
}

std::vector<CellInstId> Netlist::comb_topo_order() const {
  // Kahn's algorithm over combinational cells (incl. clock cells). Data edges
  // from sequential Q / macro Q outputs and primary inputs are cut (their
  // values are state, not combinationally derived).
  std::vector<int> pending(cells_.size(), 0);
  std::vector<CellInstId> ready;
  for (CellInstId id = 0; id < cells_.size(); ++id) {
    const liberty::Cell& lc = lib_cell(id);
    if (!liberty::is_combinational(lc.func)) continue;  // seq/macro: not ordered
    int deps = 0;
    for (std::size_t p = 0; p < lc.pins.size(); ++p) {
      if (lc.pins[p].dir != PinDir::kInput) continue;
      const NetId nid = cells_[id].pin_nets[p];
      if (nid == kNoNet) continue;
      const Net& n = nets_[nid];
      if (!n.has_driver()) continue;  // primary input
      const liberty::Cell& drv = lib_cell(n.driver.cell);
      if (liberty::is_combinational(drv.func)) ++deps;
    }
    pending[id] = deps;
    if (deps == 0) ready.push_back(id);
  }
  std::vector<CellInstId> order;
  order.reserve(cells_.size());
  std::size_t head = 0;
  std::vector<CellInstId> queue = std::move(ready);
  std::size_t comb_count = 0;
  for (CellInstId id = 0; id < cells_.size(); ++id) {
    if (liberty::is_combinational(lib_cell(id).func)) ++comb_count;
  }
  while (head < queue.size()) {
    const CellInstId id = queue[head++];
    order.push_back(id);
    const NetId out = output_net(id);
    if (out == kNoNet) continue;
    for (const PinRef& sink : nets_[out].sinks) {
      const liberty::Cell& sc = lib_cell(sink.cell);
      if (!liberty::is_combinational(sc.func)) continue;
      if (--pending[sink.cell] == 0) queue.push_back(sink.cell);
    }
  }
  if (order.size() != comb_count) {
    throw std::runtime_error(util::format(
        "comb_topo_order: combinational cycle (%zu of %zu cells ordered)",
        order.size(), comb_count));
  }
  return order;
}

void Netlist::check() const {
  for (CellInstId id = 0; id < cells_.size(); ++id) {
    const CellInst& inst = cells_[id];
    const liberty::Cell& lc = lib_cell(id);
    if (inst.pin_nets.size() != lc.pins.size()) {
      throw std::runtime_error("check: pin/net arity mismatch on " + inst.name);
    }
    for (std::size_t p = 0; p < lc.pins.size(); ++p) {
      const NetId nid = inst.pin_nets[p];
      if (nid == kNoNet) {
        throw std::runtime_error("check: unconnected pin " + lc.pins[p].name +
                                 " on " + inst.name);
      }
      const Net& n = nets_.at(nid);
      const PinRef ref{id, static_cast<int>(p)};
      if (lc.pins[p].dir == PinDir::kOutput) {
        if (!(n.driver == ref)) {
          throw std::runtime_error("check: net " + n.name +
                                   " driver inconsistent with cell " + inst.name);
        }
      } else {
        if (std::find(n.sinks.begin(), n.sinks.end(), ref) == n.sinks.end()) {
          throw std::runtime_error("check: net " + n.name +
                                   " missing sink back-reference to " + inst.name);
        }
      }
    }
    if (inst.submodule != kNoSubmodule &&
        static_cast<std::size_t>(inst.submodule) >= submodules_.size()) {
      throw std::runtime_error("check: sub-module index out of range on " +
                               inst.name);
    }
  }
  for (const Net& n : nets_) {
    if (n.has_driver() && n.is_primary_input) {
      throw std::runtime_error("check: net both cell-driven and primary input: " +
                               n.name);
    }
    for (const PinRef& s : n.sinks) {
      if (s.cell >= cells_.size()) {
        throw std::runtime_error("check: dangling sink on net " + n.name);
      }
    }
  }
  for (const Submodule& sm : submodules_) {
    if (sm.component >= static_cast<int>(components_.size())) {
      throw std::runtime_error("check: component index out of range in " + sm.name);
    }
  }
  comb_topo_order();  // throws on combinational cycles
}

std::vector<std::size_t> Netlist::count_by_type() const {
  std::vector<std::size_t> counts(liberty::kNumNodeTypes, 0);
  for (CellInstId id = 0; id < cells_.size(); ++id) {
    ++counts[static_cast<std::size_t>(lib_cell(id).type)];
  }
  return counts;
}

std::vector<std::size_t> Netlist::count_by_group() const {
  std::vector<std::size_t> counts(liberty::kNumPowerGroups, 0);
  for (CellInstId id = 0; id < cells_.size(); ++id) {
    ++counts[static_cast<std::size_t>(liberty::power_group_of(lib_cell(id).type))];
  }
  return counts;
}

std::vector<CellInstId> Netlist::cells_in_submodule(SubmoduleId id) const {
  std::vector<CellInstId> out;
  for (CellInstId c = 0; c < cells_.size(); ++c) {
    if (cells_[c].submodule == id) out.push_back(c);
  }
  return out;
}

}  // namespace atlas::netlist
