// servebench — the serving-path benchmark.
//
// Drives an in-process atlas_serve Server through the public serve::Client
// API with homogeneous closed-loop workloads:
//
//   encode-sweep  1 client; one cached design referenced by hash, a
//                 never-repeating stream of seeded ATDT delta traces, so
//                 every request misses the embedding cache (encoder-bound)
//   warm-repeat   2 clients; named-workload predicts over a few primed
//                 designs with the full netlist text, every request an
//                 embedding hit (wire, hashing, cache reads, GBDT heads)
//   new-designs   1 client; every request a never-seen netlist text with a
//                 short named-workload window (parse, graph build, sim,
//                 cache inserts and evictions)
//
// Every server uses the default ServerConfig; only the global thread pool
// size is pinned (kPoolThreads) so pool threads plus client connections
// stay within the 4 hardware threads the benchmark is tuned for.
//
// --trace 0 sets the fixture up, runs the timed closed loop with tracing
// off, then checks every reply off the clock against in-process
// AtlasModel::predict on the same inputs and times kSetupReps - 1 more
// set-ups. The timed phase is cut into windows of about kWindowSeconds.
// Each window's times and rates are scaled to a reference host speed by a
// speed probe that runs beside the workload (see SpeedProbe and
// kProbeRefMs), and to zero host steal along the run's own fit of the
// figure against the windows' steal (see steal_slope). Throughput, CPU per
// request and peak RSS are medians over the windows, latency percentiles
// are taken over every request; setup_s is the median of the set-ups,
// scaled the same way. The unscaled figures are printed on the
// "unscaled:" line.
//
// --trace 1 replays the workload's requests through each layer's public
// functions under the benchmark's own spans, sends the same requests over
// the wire with the server timing tail requested, and prints the per-layer
// metrics. On warm-repeat it also sends them through an atlas_router Router
// over two in-process backends to measure the router layer. The Chrome trace and the per-layer self-time table are written
// to --out-dir.
//
// The last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "atlas/finetune.h"
#include "atlas/model.h"
#include "atlas/preprocess.h"
#include "atlas/pretrain.h"
#include "designgen/design_generator.h"
#include "graph/submodule_graph.h"
#include "netlist/verilog_io.h"
#include "obs/metrics.h"
#include "router/router.h"
#include "serve/client.h"
#include "serve/server.h"
#include "sim/delta_trace.h"
#include "sim/external_trace.h"
#include "sim/simulator.h"
#include "spans.h"
#include "util/arena.h"
#include "util/cli.h"
#include "util/hash.h"
#include "util/parallel.h"

namespace {

using namespace atlas;
using servebench::Span;
using servebench::SpanLog;
using Clock = std::chrono::steady_clock;

// ---- fixed benchmark parameters -------------------------------------------
constexpr double kScale = 0.0025;  // design size, fraction of the paper's
constexpr int kTrainCycles = 40;
constexpr std::size_t kEncoderDim = 16;
constexpr int kTrees = 20;
constexpr int kPoolThreads = 2;
constexpr int kSetupReps = 11;
constexpr double kWindowSeconds = 0.25;  // timed-phase window length
constexpr const char* kModel = "bench";
// The speed probe's chunk CPU time at the reference speed, a round figure
// near what it reads on a 4-vCPU Xeon VM; end-to-end times are reported at
// that speed (see SpeedProbe).
constexpr double kProbeRefMs = 0.35;

constexpr int kWarmDesigns = 4;    // warm-repeat design set
constexpr int kWarmCycles = 40;    // named-workload window, warm requests
constexpr int kNewBases = 8;       // new-designs: structural variety
constexpr int kNewCycles = 2;      // "short named-workload window"
constexpr int kSweepCycles = 8;    // encode-sweep trace length
constexpr int kSweepWindows = 64;  // disjoint windows per simulated segment
constexpr int kWarmupRequests = 24;
constexpr std::size_t kMinSamples = 200;  // per run: >= 10 above p95
constexpr std::size_t kSampleCapacity = 1 << 18;  // per client, pre-touched
constexpr int kReplayRequests = 48;
constexpr std::uint32_t kWarmupIndexBase = 1u << 30;
constexpr std::uint64_t kDesignSeedBase = 20250;  // generator seeds of the design set

enum class Kind { kEncodeSweep, kWarmRepeat, kNewDesigns, kRoutedWarm };

struct WorkloadDef {
  const char* name;
  Kind kind;
  int clients;
};

constexpr WorkloadDef kWorkloads[] = {
    {"encode-sweep", Kind::kEncodeSweep, 1},
    {"warm-repeat", Kind::kWarmRepeat, 2},
    {"new-designs", Kind::kNewDesigns, 1},
};

/// warm-repeat's request mix through a Router over two backends; the
/// traced warm-repeat run measures the router layer on it.
constexpr WorkloadDef kRoutedFixture = {"routed", Kind::kRoutedWarm, 1};

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

double now_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch()).count();
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// Reset the kernel's peak-RSS watermark so the reported peak covers only
/// what follows (falls back to the whole-process peak when unsupported).
bool reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  if (!f) return false;
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

/// Host CPU time stolen from this VM so far (all CPUs, seconds): the
/// hypervisor's share of run-to-run noise, recorded per window.
double steal_s() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  double v[8] = {};
  f >> cpu;
  for (double& x : v) f >> x;
  return cpu == "cpu" ? v[7] / static_cast<double>(sysconf(_SC_CLK_TCK)) : 0.0;
}

/// Steal over an interval of `wall_s` seconds, in % of the VM's CPU capacity.
double steal_pct(double steal0_s, double steal1_s, double wall_s) {
  return 100.0 * (steal1_s - steal0_s) /
         (wall_s * static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)));
}

/// Least-squares slope of log(value) against host steal (per steal
/// percentage point) over the measurements with a positive value; 0 when
/// their steal does not vary. Steal is CPU time the hypervisor gave to
/// other tenants while this VM wanted it; it is measured apart from the
/// program, so a slower program reads slower at zero steal too.
double steal_slope(const std::vector<double>& steal, const std::vector<double>& value) {
  std::vector<std::pair<double, double>> xy;
  for (std::size_t i = 0; i < value.size(); ++i) {
    if (value[i] > 0) xy.emplace_back(steal[i], std::log(value[i]));
  }
  double mx = 0, my = 0;
  for (const auto& [x, y] : xy) {
    mx += x;
    my += y;
  }
  mx /= std::max<std::size_t>(xy.size(), 1);
  my /= std::max<std::size_t>(xy.size(), 1);
  double sxx = 0, sxy = 0;
  for (const auto& [x, y] : xy) {
    sxx += (x - mx) * (x - mx);
    sxy += (x - mx) * (y - my);
  }
  return sxx > 0 ? sxy / sxx : 0.0;
}

/// Factor that turns a time measured while the speed probe read
/// `probe_ms` into the time at the reference speed (a rate is divided by
/// it). 1 when there is no reading.
double ref_speed_scale(double probe_ms) {
  return probe_ms > 0 ? kProbeRefMs / probe_ms : 1.0;
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Nearest-rank percentile of an unsorted sample (0 when empty).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

/// Median (mean of the middle two for an even count; 0 when empty).
double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : (v[h - 1] + v[h]) / 2;
}

/// Host speed probe. On a shared host the speed of every vCPU drifts by
/// 10-15% over tens of seconds, and at times halves for a fraction of a
/// second, with no steal: other tenants share the cores, caches and clock.
/// A fixed kernel slows down with it, and so does the program. A background
/// thread runs a fixed integer kernel in short chunks, one every
/// kProbePeriodMs, moving from vCPU to vCPU so a window's median covers
/// all of them, and records each chunk's thread CPU time. Thread CPU time
/// leaves out the time the thread waits for a vCPU, so the record follows
/// the host's speed, not this process's load or the hypervisor's steal.
class SpeedProbe {
 public:
  SpeedProbe() : thread_([this] { loop(); }) {}
  ~SpeedProbe() {
    stop_.store(true);
    thread_.join();
  }
  SpeedProbe(const SpeedProbe&) = delete;
  SpeedProbe& operator=(const SpeedProbe&) = delete;

  /// Median CPU time (ms) of the chunks that ended in [t0, t1) (now_s()
  /// seconds); 0 when none did.
  double median_ms(double t0, double t1) const {
    std::vector<double> in;
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [t, ms] : chunks_) {
      if (t >= t0 && t < t1) in.push_back(ms);
    }
    return median(std::move(in));
  }

 private:
  void loop() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    pthread_getaffinity_np(pthread_self(), sizeof(allowed), &allowed);
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
    }
    // The kernel mixes dependent integer work in L1, loads from a table
    // larger than L2 and a small float matrix product, as the serving path
    // does. On a 4-vCPU Xeon VM the host's speed moved the parts unequally:
    // across runs, the benchmark's CPU per request moved about 1.6x as much
    // (in log) as the integer part alone and about 0.6x as much as the
    // matrix part alone. With the matrix part at about 40% of a chunk, the
    // chunk moved about as much as the benchmark (see NOTES.md).
    std::vector<std::uint32_t> near(1 << 12);  // 16 KiB: L1
    std::vector<std::uint32_t> far(1 << 20);   // 4 MiB: past L2
    constexpr int n = 32;
    std::vector<float> a(n * n), b(n * n), c(n * n);
    for (int i = 0; i < n * n; ++i) {
      a[static_cast<std::size_t>(i)] = 0.01f * static_cast<float>(i % 7);
      b[static_cast<std::size_t>(i)] = 0.02f * static_cast<float>(i % 5);
    }
    std::uint64_t x = 1;
    for (std::size_t chunk = 0; !stop_.load(); ++chunk) {
      if (!cpus.empty()) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus[chunk % cpus.size()], &one);
        pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
      }
      const double c0 = thread_cpu_s();
      for (int i = 0; i < kProbeIters; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        std::vector<std::uint32_t>& table = i % kProbeFarEvery == 0 ? far : near;
        std::uint32_t& slot = table[(x >> 40) & (table.size() - 1)];
        slot = slot * 31 + static_cast<std::uint32_t>(x >> 32);
        x ^= slot;
      }
      for (int rep = 0; rep < kProbeProducts; ++rep) {  // c = c / 2 + a b
        for (int i = 0; i < n; ++i) {
          for (int j = 0; j < n; ++j) {
            float acc = c[static_cast<std::size_t>(i * n + j)] * 0.5f;
            for (int k = 0; k < n; ++k) {
              acc += a[static_cast<std::size_t>(i * n + k)] * b[static_cast<std::size_t>(k * n + j)];
            }
            c[static_cast<std::size_t>(i * n + j)] = acc;
          }
        }
      }
      const double ms = (thread_cpu_s() - c0) * 1e3;
      {
        std::lock_guard<std::mutex> lock(mu_);
        chunks_.emplace_back(now_s(), ms);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(kProbePeriodMs));
    }
    sink_ = x + static_cast<std::uint64_t>(c[0]);
  }

  static constexpr int kProbeIters = 15000;
  static constexpr int kProbeFarEvery = 40;  // one load in 40 goes to `far`
  static constexpr int kProbeProducts = 15;  // 32x32 float products per chunk
  static constexpr int kProbePeriodMs = 5;
  mutable std::mutex mu_;
  std::vector<std::pair<double, double>> chunks_;  // (end, CPU ms)
  std::atomic<bool> stop_{false};
  std::uint64_t sink_ = 0;
  std::thread thread_;  // last: starts once the members above exist
};

std::uint64_t digest(const std::vector<power::GroupPower>& design) {
  return util::fnv1a64(design.data(), design.size() * sizeof(power::GroupPower));
}

// ---- inputs ---------------------------------------------------------------

/// One request of a workload's stream. Text requests reference a design by
/// index (new-designs append a unique trailing comment); stream requests
/// carry their ATDT bytes.
struct Request {
  std::uint32_t index = 0;
  std::uint32_t design = 0;
  bool w2 = false;
  int cycles = 0;
  std::string tag;    // new-designs: appended to the netlist text
  std::string trace;  // encode-sweep: ATDT delta bytes
};

struct DesignInput {
  std::string verilog;
  std::uint64_t hash = 0;  // FNV-1a of verilog (the design-by-hash key)
};

/// Deterministic request streams derived from the workload seed. Request i
/// of a run is the same on every run with the same seed. The design set is
/// the same for every seed: design size and sub-module count set most of a
/// request's cost, so a per-seed design draw would add input variance to
/// the host's run-to-run noise. The seed picks the traces (encode-sweep),
/// the order of designs and workloads (warm-repeat) and the
/// never-seen variants (new-designs).
class Inputs {
 public:
  Inputs(Kind kind, std::uint64_t seed, const liberty::Library& lib)
      : kind_(kind), seed_(seed) {
    const int n = kind == Kind::kEncodeSweep  ? 1
                  : kind == Kind::kNewDesigns ? kNewBases
                                              : kWarmDesigns;
    for (int k = 0; k < n; ++k) {
      designgen::DesignSpec spec = designgen::paper_design_spec(2, kScale);
      spec.seed = kDesignSeedBase + static_cast<std::uint64_t>(k);
      DesignInput d;
      d.verilog = netlist::write_verilog(designgen::generate_design(spec, lib));
      d.hash = util::fnv1a64(d.verilog);
      designs_.push_back(std::move(d));
    }
    if (kind == Kind::kEncodeSweep) {
      sweep_gate_ = std::make_unique<netlist::Netlist>(
          netlist::parse_verilog(designs_[0].verilog, lib));
      clock_mask_ = sim::CycleSimulator(*sweep_gate_).clock_net_mask();
    }
  }

  const std::vector<DesignInput>& designs() const { return designs_; }

  /// Request `index` of the stream. Not thread-safe for encode-sweep (the
  /// simulated segment is cached); that workload has a single client.
  Request make(std::uint32_t index) {
    Request r;
    r.index = index;
    const std::uint64_t h = splitmix64(splitmix64(seed_) + index);
    switch (kind_) {
      case Kind::kWarmRepeat:
      case Kind::kRoutedWarm:
        r.design = static_cast<std::uint32_t>(h % kWarmDesigns);
        r.w2 = ((h >> 8) & 1) != 0;
        r.cycles = kWarmCycles;
        break;
      case Kind::kNewDesigns:
        r.design = static_cast<std::uint32_t>(h % kNewBases);
        r.cycles = kNewCycles;
        r.tag = "\n// servebench variant " + std::to_string(seed_) + ":" +
                std::to_string(index) + "\n";
        break;
      case Kind::kEncodeSweep:
        r.cycles = kSweepCycles;
        r.trace = sweep_trace(index);
        break;
    }
    return r;
  }

  /// The distinct warm requests (design x workload) a warm workload draws
  /// from; used to prime caches.
  std::vector<Request> warm_combos() const {
    std::vector<Request> out;
    for (std::uint32_t d = 0; d < designs_.size(); ++d) {
      for (bool w2 : {false, true}) {
        Request r;
        r.design = d;
        r.w2 = w2;
        r.cycles = kWarmCycles;
        out.push_back(r);
      }
    }
    return out;
  }

 private:
  /// Window `index % kSweepWindows` of simulated segment
  /// `index / kSweepWindows`; windows are disjoint and every segment runs
  /// its own stimulus seed, so no two requests share a trace.
  std::string sweep_trace(std::uint32_t index) {
    const std::uint32_t segment = index / kSweepWindows;
    if (!segment_ || segment_index_ != segment) {
      sim::WorkloadSpec w = sim::make_w1();
      w.seed = splitmix64(seed_ * 31 + segment + 7);
      sim::StimulusGenerator stim(*sweep_gate_, w);
      // A fresh simulator per segment: run() carries SRAM contents over
      // from the previous call, so reusing one would make a segment depend
      // on which segments were simulated before it.
      sim::CycleSimulator simulator(*sweep_gate_);
      segment_ = std::make_unique<sim::ToggleTrace>(
          simulator.run(stim, kSweepCycles * kSweepWindows));
      segment_index_ = segment;
    }
    const int offset = static_cast<int>(index % kSweepWindows) * kSweepCycles;
    sim::ToggleTrace win(sweep_gate_->num_nets(), kSweepCycles);
    for (int c = 0; c < kSweepCycles; ++c) {
      for (netlist::NetId n = 0; n < sweep_gate_->num_nets(); ++n) {
        win.set(c, n, segment_->value(offset + c, n),
                segment_->transitions(offset + c, n));
      }
    }
    return sim::write_delta(*sweep_gate_, win, clock_mask_);
  }

  Kind kind_;
  std::uint64_t seed_;
  std::vector<DesignInput> designs_;
  std::unique_ptr<netlist::Netlist> sweep_gate_;
  std::vector<bool> clock_mask_;
  std::unique_ptr<sim::ToggleTrace> segment_;
  std::uint32_t segment_index_ = 0;
};

// ---- fixture --------------------------------------------------------------

std::shared_ptr<const core::AtlasModel> train_model(const liberty::Library& lib) {
  core::PreprocessConfig pcfg;
  pcfg.cycles = kTrainCycles;
  const core::DesignData train =
      core::prepare_design(designgen::paper_design_spec(1, kScale), lib, pcfg);
  core::PretrainConfig pre_cfg;
  pre_cfg.epochs = 1;
  pre_cfg.cycles_per_graph = 1;
  pre_cfg.dim = kEncoderDim;
  core::PretrainResult pre = core::pretrain_encoder({&train}, pre_cfg);
  core::FinetuneConfig fcfg;
  fcfg.gbdt.n_trees = kTrees;
  fcfg.cycle_stride = 4;
  core::GroupModels models = core::finetune_models({&train}, pre.encoder, fcfg);
  return std::make_shared<const core::AtlasModel>(std::move(pre.encoder),
                                                  std::move(models));
}

serve::PredictRequest predict_request(const Inputs& in, const Request& r) {
  serve::PredictRequest req;
  req.model = kModel;
  req.netlist_verilog = in.designs()[r.design].verilog + r.tag;
  req.workload = r.w2 ? "w2" : "w1";
  req.cycles = r.cycles;
  return req;
}

serve::StreamBeginRequest stream_request(const Inputs& in, const Request& r) {
  serve::StreamBeginRequest begin;
  begin.model = kModel;
  begin.format = serve::TraceFormat::kToggleDelta;
  begin.cycles = r.cycles;
  begin.design_hash = in.designs()[r.design].hash;
  return begin;
}

/// Model, inputs, servers (and router) for one workload, primed.
struct Fixture {
  const WorkloadDef& def;
  std::shared_ptr<const liberty::Library> lib;
  std::shared_ptr<const core::AtlasModel> model;
  std::unique_ptr<Inputs> inputs;
  std::vector<std::unique_ptr<serve::Server>> servers;
  std::unique_ptr<router::Router> router;
  std::vector<std::string> backend_ids;

  /// `run_dir` holds the routed backends' Unix sockets. Their paths are the
  /// backends' ids on the router's hash ring, so they are relative and the
  /// same on every run: design placement, and with it the load split
  /// between the backends, must not change from run to run.
  Fixture(const WorkloadDef& d, std::uint64_t seed, const std::string& run_dir)
      : def(d), lib(serve::ModelRegistry::default_library()) {
    model = train_model(*lib);
    inputs = std::make_unique<Inputs>(def.kind, seed, *lib);
    auto registry = std::make_shared<serve::ModelRegistry>();
    registry->add(kModel, model);
    const bool router_fronted = def.kind == Kind::kRoutedWarm;
    const int nservers = router_fronted ? 2 : 1;
    for (int i = 0; i < nservers; ++i) {
      serve::ServerConfig cfg;  // daemon defaults; ephemeral port
      cfg.port = 0;
      if (router_fronted) {
        cfg.port = -1;
        // These names place the four warm designs two per backend.
        cfg.unix_path = run_dir + "/shard-a-" + std::to_string(i) + ".sock";
        backend_ids.push_back("unix:" + cfg.unix_path);
      }
      servers.push_back(std::make_unique<serve::Server>(cfg, registry));
      servers.back()->start();
    }
    if (router_fronted) {
      std::vector<router::BackendAddress> backends;
      for (const std::string& id : backend_ids) {
        backends.push_back(router::parse_backend(id));
      }
      router::RouterConfig rcfg;
      rcfg.port = 0;
      router = std::make_unique<router::Router>(rcfg, std::move(backends));
      router->start();
    }
    prime();
  }

  ~Fixture() { stop(); }

  void stop() {
    if (router) router->stop();
    for (auto& s : servers) s->stop();
  }

  int port() const { return router ? router->port() : servers[0]->port(); }

  serve::FeatureCacheStats cache_stats() const {
    serve::FeatureCacheStats sum;
    for (const auto& s : servers) {
      const serve::FeatureCacheStats st = s->cache_stats();
      sum.design_hits += st.design_hits;
      sum.design_misses += st.design_misses;
      sum.embedding_hits += st.embedding_hits;
      sum.embedding_misses += st.embedding_misses;
      sum.design_evictions += st.design_evictions;
      sum.embedding_drops += st.embedding_drops;
    }
    return sum;
  }

  /// Cache priming plus warm-up traffic that shares no input with the
  /// timed stream (warm-up indices live above kWarmupIndexBase).
  void prime() {
    serve::Client client = serve::Client::connect_tcp("127.0.0.1", port());
    switch (def.kind) {
      case Kind::kWarmRepeat:
      case Kind::kRoutedWarm:
        for (int rep = 0; rep < 3; ++rep) {
          for (const Request& r : inputs->warm_combos()) {
            client.predict(predict_request(*inputs, r));
          }
        }
        break;
      case Kind::kEncodeSweep: {
        Request r;
        r.cycles = kSweepCycles;
        client.predict(predict_request(*inputs, r));  // caches the design
        for (int i = 0; i < kWarmupRequests; ++i) {
          const Request w = inputs->make(kWarmupIndexBase + static_cast<std::uint32_t>(i));
          client.predict_stream(stream_request(*inputs, w), w.trace);
        }
        break;
      }
      case Kind::kNewDesigns:
        for (int i = 0; i < kWarmupRequests; ++i) {
          const Request w = inputs->make(kWarmupIndexBase + static_cast<std::uint32_t>(i));
          client.predict(predict_request(*inputs, w));
        }
        break;
    }
  }
};

std::uint32_t expected_flags(Kind kind) {
  switch (kind) {
    case Kind::kEncodeSweep: return serve::kCacheHitDesign;
    case Kind::kNewDesigns: return 0;
    default: return serve::kCacheHitDesign | serve::kCacheHitEmbeddings;
  }
}

/// Oracle identity of a request: requests with the same key must get
/// bit-identical replies. new-designs variants differ only by a trailing
/// comment, so they share their base design's key.
std::uint64_t oracle_key(Kind kind, const Request& r) {
  if (kind == Kind::kEncodeSweep) return r.index;
  return (static_cast<std::uint64_t>(r.design) << 33) |
         (static_cast<std::uint64_t>(r.w2) << 32) |
         static_cast<std::uint32_t>(r.cycles);
}

/// Digest of a request's generated input bytes. The oracle regenerates each
/// request from its index and checks this first, so a generator that is not
/// a pure function of (seed, index) fails loudly instead of as mismatches.
std::uint64_t input_digest(const Request& r) {
  return util::fnv1a64(r.trace, util::fnv1a64(r.tag));
}

// ---- one wire request -----------------------------------------------------

struct Outcome {
  std::uint32_t index = 0;
  std::uint64_t key = 0;  // oracle_key of the request
  std::uint64_t input = 0;  // input_digest of the request
  bool ok = false;  // answered, right cache path
  bool transport_error = false;  // the connection is no longer usable
  bool traced = false;
  std::uint64_t digest = 0;
  std::int32_t num_cycles = 0;
  std::uint64_t num_submodules = 0;
  double rtt_ms = 0.0;
  double wait_ms = 0.0;  // server batch wait + queue (want_timing only)
  std::string error;
};

/// Send one request over `client` and classify the reply.
Outcome send(serve::Client& client, const Fixture& fx, const Request& r,
             bool want_timing) {
  Outcome o;
  o.index = r.index;
  o.key = oracle_key(fx.def.kind, r);
  o.input = input_digest(r);
  try {
    serve::PredictResponse resp;
    if (fx.def.kind == Kind::kEncodeSweep) {
      serve::StreamBeginRequest begin = stream_request(*fx.inputs, r);
      begin.ext.want_timing = want_timing;
      const auto t0 = Clock::now();
      resp = client.predict_stream(begin, r.trace);
      o.rtt_ms = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    } else {
      serve::PredictRequest req = predict_request(*fx.inputs, r);
      req.ext.want_timing = want_timing;
      const auto t0 = Clock::now();
      resp = client.predict(req);
      o.rtt_ms = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    }
    o.digest = digest(resp.design);
    o.num_cycles = resp.num_cycles;
    o.num_submodules = resp.num_submodules;
    if (resp.has_timing) {
      o.wait_ms = static_cast<double>(resp.timing.batch_wait_us + resp.timing.queue_us) / 1e3;
    }
    if (resp.cache_flags != expected_flags(fx.def.kind)) {
      o.error = "cache path flags " + std::to_string(resp.cache_flags);
    } else {
      o.ok = true;
    }
  } catch (const serve::ServeError& e) {
    o.error = std::string(serve::error_code_name(e.code())) + ": " + e.what();
  } catch (const std::exception& e) {
    o.error = e.what();
    o.transport_error = true;
  }
  return o;
}

// ---- oracle ---------------------------------------------------------------

struct OracleResult {
  std::uint64_t digest = 0;
  std::int32_t num_cycles = 0;
  std::uint64_t num_submodules = 0;
};

/// The server's structural fallback: a netlist without sub-module tags is
/// split by structure before its graphs are built. Returns the number of
/// sub-modules created (0 when the netlist was tagged).
int split_untagged(netlist::Netlist& gate) {
  for (netlist::CellInstId id = 0; id < gate.num_cells(); ++id) {
    if (gate.cell(id).submodule == netlist::kNoSubmodule) {
      return core::assign_submodules_by_structure(gate);
    }
  }
  return 0;
}

struct OracleDesign {
  std::optional<netlist::Netlist> gate;
  std::vector<graph::SubmoduleGraph> graphs;
};

/// In-process reference for one request: its own parse of the netlist text
/// the request carried (`d`), the stimulus, and AtlasModel::predict.
OracleResult oracle_predict(const Fixture& fx, const OracleDesign& d, const Request& r) {
  sim::ToggleTrace trace;
  if (fx.def.kind == Kind::kEncodeSweep) {
    trace = sim::ExternalTrace::from_delta_bytes(r.trace).resolve(*d.gate);
  } else {
    sim::CycleSimulator simulator(*d.gate);
    sim::StimulusGenerator stim(*d.gate, r.w2 ? sim::make_w2() : sim::make_w1());
    trace = simulator.run(stim, r.cycles);
  }
  const core::Prediction p = fx.model->predict(*d.gate, d.graphs, trace);
  return {digest(p.design), p.num_cycles, p.num_submodules};
}

/// Compare every outcome with the oracle; returns the number of failures
/// (errors, wrong cache paths and mismatches). Runs after the servers are
/// idle, spreading the distinct oracle inputs over the thread pool.
std::size_t check_outcomes(Fixture& fx, const std::vector<Outcome>& outcomes,
                           std::map<std::string, std::size_t>& reasons) {
  std::map<std::uint64_t, Request> distinct;
  for (const Outcome& o : outcomes) {
    if (!o.ok || distinct.count(o.key)) continue;
    Request r = fx.inputs->make(o.index);
    if (input_digest(r) != o.input) {
      throw std::logic_error("request " + std::to_string(o.index) +
                             " regenerated different inputs");
    }
    distinct.emplace(o.key, std::move(r));
  }
  std::vector<std::pair<std::uint64_t, Request>> work(distinct.begin(), distinct.end());
  // Each distinct netlist text is parsed once (encode-sweep sends one).
  std::map<std::string, std::size_t> text_index;
  std::vector<std::string> texts;
  std::vector<std::size_t> design_of(work.size());
  for (std::size_t i = 0; i < work.size(); ++i) {
    const Request& r = work[i].second;
    std::string text = fx.inputs->designs()[r.design].verilog + r.tag;
    auto [it, fresh] = text_index.emplace(std::move(text), texts.size());
    if (fresh) texts.push_back(it->first);
    design_of[i] = it->second;
  }
  std::vector<OracleDesign> designs(texts.size());
  util::parallel_for(texts.size(), 1, [&](std::size_t i) {
    designs[i].gate.emplace(netlist::parse_verilog(texts[i], *fx.lib));
    split_untagged(*designs[i].gate);
    designs[i].graphs = graph::build_submodule_graphs(*designs[i].gate);
  });
  std::vector<OracleResult> results(work.size());
  util::parallel_for(work.size(), 1, [&](std::size_t i) {
    results[i] = oracle_predict(fx, designs[design_of[i]], work[i].second);
  });
  std::unordered_map<std::uint64_t, OracleResult> by_key;
  for (std::size_t i = 0; i < work.size(); ++i) by_key[work[i].first] = results[i];

  std::size_t failed = 0;
  for (const Outcome& o : outcomes) {
    if (!o.ok) {
      ++failed;
      ++reasons[o.error.substr(0, 60)];
      continue;
    }
    const OracleResult& ref = by_key.at(o.key);
    if (ref.digest != o.digest || ref.num_cycles != o.num_cycles ||
        ref.num_submodules != o.num_submodules) {
      ++failed;
      ++reasons["reply differs from in-process predict"];
    }
  }
  return failed;
}

// ---- closed loop ----------------------------------------------------------

/// Send `r`, reconnecting after a transport failure so one dropped
/// connection costs one failed request, not the rest of the run.
Outcome send_or_reconnect(serve::Client& client, const Fixture& fx,
                          const Request& r, bool want_timing) {
  Outcome o = send(client, fx, r, want_timing);
  if (o.transport_error) {
    try {
      client = serve::Client::connect_tcp("127.0.0.1", fx.port());
    } catch (const std::exception&) {
    }
  }
  return o;
}

/// One of the timed phase's equal wall-clock windows. Each window's
/// figures are scaled to the reference speed by its probe reading and to
/// zero host steal by the run's own steal slope (see run_timed).
struct Window {
  double wall_s = 0.0;  // window length, input generation excluded
  double cpu_s = 0.0;   // process CPU in the window, generation excluded
  double rss_mb = 0.0;  // peak RSS in the window
  double steal_pct = 0.0;  // host steal, % of the VM's CPU capacity
  double probe_ms = 0.0;   // median speed-probe chunk in the window
  std::vector<double> rtt_ms;  // successful requests completed in it
};

struct TimedResult {
  std::size_t attempted = 0;
  /// What the oracle checks: every failed request plus the first reply per
  /// oracle key and client. Later replies with the same key were compared
  /// with that first reply as they arrived (`repeat_mismatches`), so every
  /// reply is checked while memory stays flat during the timed phase.
  std::vector<Outcome> checks;
  std::size_t repeat_mismatches = 0;
  std::vector<Window> windows;
};

/// The timed closed loop: client c sends requests c, c + clients, ... of
/// the stream until `windows` windows of seconds / windows each have
/// passed. Request generation is off the clock (its wall and CPU time are
/// subtracted per window; only encode-sweep generates anything costly).
TimedResult timed_loop(Fixture& fx, const SpeedProbe& probe, double seconds, int windows) {
  struct Sample {
    float done_s = 0;  // completion, seconds since the loop started
    float rtt_ms = 0;
  };
  struct ClientRecord {
    std::vector<Sample> samples;  // successful requests; pre-touched
    std::size_t n = 0;
    std::vector<Outcome> checks;
    std::unordered_map<std::uint64_t, std::size_t> first;  // key -> checks
    std::size_t sent = 0;
    std::size_t repeat_mismatches = 0;
  };
  const int clients = fx.def.clients;
  const auto uclients = static_cast<std::uint32_t>(clients);
  std::vector<ClientRecord> rec(static_cast<std::size_t>(clients));
  for (ClientRecord& r : rec) r.samples.resize(kSampleCapacity);
  std::vector<serve::Client> conns;
  for (int c = 0; c < clients; ++c) {
    conns.push_back(serve::Client::connect_tcp("127.0.0.1", fx.port()));
  }
  std::atomic<bool> stop{false};
  std::atomic<std::int64_t> gen_wall_ns{0}, gen_cpu_ns{0};
  const double t0 = now_s();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      const auto cu = static_cast<std::size_t>(c);
      ClientRecord& cr = rec[cu];
      for (std::uint32_t i = 0; !stop.load(); ++i) {
        const double g0 = now_s();
        const double gc0 = thread_cpu_s();
        const Request r = fx.inputs->make(i * uclients + cu);
        gen_cpu_ns.fetch_add(static_cast<std::int64_t>((thread_cpu_s() - gc0) * 1e9));
        gen_wall_ns.fetch_add(static_cast<std::int64_t>((now_s() - g0) * 1e9));
        Outcome o = send_or_reconnect(conns[cu], fx, r, false);
        ++cr.sent;
        if (!o.ok) {
          cr.checks.push_back(std::move(o));
          continue;
        }
        const Sample smp{static_cast<float>(now_s() - t0), static_cast<float>(o.rtt_ms)};
        if (cr.n < cr.samples.size()) {
          cr.samples[cr.n] = smp;
        } else {
          cr.samples.push_back(smp);
        }
        ++cr.n;
        if (auto it = cr.first.find(o.key); it != cr.first.end()) {
          const Outcome& f = cr.checks[it->second];
          if (f.digest != o.digest || f.num_cycles != o.num_cycles ||
              f.num_submodules != o.num_submodules) {
            ++cr.repeat_mismatches;
          }
        } else {
          cr.first.emplace(o.key, cr.checks.size());
          cr.checks.push_back(std::move(o));
        }
      }
    });
  }
  // Window boundaries: snapshot CPU and generation totals, reset the RSS
  // watermark for the next window.
  struct Mark {
    double t, cpu, gen_wall, gen_cpu, rss, steal;
  };
  std::vector<Mark> marks;
  auto mark = [&](double rss) {
    marks.push_back({now_s() - t0, process_cpu_s(),
                     static_cast<double>(gen_wall_ns.load()) / 1e9 / clients,
                     static_cast<double>(gen_cpu_ns.load()) / 1e9, rss, steal_s()});
    reset_peak_rss();
  };
  mark(0.0);
  for (int k = 1; k <= windows; ++k) {
    std::this_thread::sleep_until(Clock::time_point(std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(t0 + seconds * k / windows))));
    mark(peak_rss_mb());
  }
  stop.store(true);
  for (std::thread& t : threads) t.join();

  TimedResult out;
  for (int k = 1; k <= windows; ++k) {
    const Mark& a = marks[static_cast<std::size_t>(k - 1)];
    const Mark& b = marks[static_cast<std::size_t>(k)];
    Window w;
    w.wall_s = (b.t - a.t) - (b.gen_wall - a.gen_wall);
    w.cpu_s = (b.cpu - a.cpu) - (b.gen_cpu - a.gen_cpu);
    w.rss_mb = b.rss;
    w.steal_pct = steal_pct(a.steal, b.steal, b.t - a.t);
    w.probe_ms = probe.median_ms(t0 + a.t, t0 + b.t);
    for (const ClientRecord& cr : rec) {
      for (std::size_t i = 0; i < cr.n; ++i) {
        const float done = cr.samples[i].done_s;
        if (done >= a.t && done < b.t) w.rtt_ms.push_back(cr.samples[i].rtt_ms);
      }
    }
    out.windows.push_back(std::move(w));
  }
  for (ClientRecord& cr : rec) {
    out.attempted += cr.sent;
    out.repeat_mismatches += cr.repeat_mismatches;
    for (Outcome& o : cr.checks) out.checks.push_back(std::move(o));
  }
  return out;
}

/// The traced run's wire pass: each client alternates a traced request
/// from [0, n) (under a round-trip span, server timing tail requested) with
/// an untraced one from [n, 2n), so both sets see the same conditions and
/// their latency difference is the tracing overhead.
std::vector<Outcome> wire_pass(Fixture& fx, std::uint32_t n,
                               std::vector<std::unique_ptr<SpanLog>>& logs) {
  const int clients = fx.def.clients;
  const auto uclients = static_cast<std::uint32_t>(clients);
  std::vector<std::vector<Outcome>> per(static_cast<std::size_t>(clients));
  std::vector<serve::Client> conns;
  for (int c = 0; c < clients; ++c) {
    conns.push_back(serve::Client::connect_tcp("127.0.0.1", fx.port()));
  }
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      const auto cu = static_cast<std::size_t>(c);
      for (std::uint32_t k = cu; k < n; k += uclients) {
        for (const bool traced : {true, false}) {
          const Request r = fx.inputs->make(traced ? k : n + k);
          Outcome o;
          {
            Span span(traced ? logs[cu].get() : nullptr, "serve.client.round_trip", r.index);
            o = send_or_reconnect(conns[cu], fx, r, traced);
          }
          o.traced = traced;
          per[cu].push_back(std::move(o));
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<Outcome> out;
  for (auto& v : per) {
    for (Outcome& o : v) out.push_back(std::move(o));
  }
  return out;
}

// ---- traced replay --------------------------------------------------------

/// Per-request counts from the replay (times come from the spans).
struct ReplayCounts {
  double graph_nodes = 0;
  double encode_rows = 0;
  double distinct_rows = 0;
  double request_bytes = 0;
  double response_bytes = 0;
};

/// The benchmark's mirror of the server's predict pipeline, built from the
/// same public layer functions, with its own design/embedding cache so each
/// replayed request takes the path the server takes for it.
class Replayer {
 public:
  explicit Replayer(const Fixture& fx) : fx_(fx) {}

  /// Replay one request; returns its prediction as the oracle checks it.
  OracleResult run(const Request& r, SpanLog* log, ReplayCounts& counts) {
    Span root(log, "replay.request", r.index);
    const Kind kind = fx_.def.kind;
    const DesignInput& d = fx_.inputs->designs()[r.design];
    const bool stream = kind == Kind::kEncodeSweep;
    std::string text;
    std::optional<sim::ExternalTrace> external;
    {
      Span s(log, "serve.protocol.codec", r.index);
      if (stream) {
        serve::StreamBeginRequest begin = stream_request(*fx_.inputs, r);
        begin.trace_bytes = r.trace.size();
        serve::StreamChunk chunk;
        chunk.data = r.trace;
        serve::StreamEndRequest end;
        end.total_chunks = 1;
        end.total_bytes = r.trace.size();
        const std::string b = begin.encode(), c = chunk.encode(), e = end.encode();
        counts.request_bytes = static_cast<double>(b.size() + c.size() + e.size());
        serve::StreamBeginRequest::decode(b);
        serve::StreamEndRequest::decode(e);
        external = sim::ExternalTrace::from_delta_bytes(serve::StreamChunk::decode(c).data);
      } else {
        serve::PredictRequest req = predict_request(*fx_.inputs, r);
        const std::string payload = req.encode();
        counts.request_bytes = static_cast<double>(payload.size());
        text = serve::PredictRequest::decode(payload).netlist_verilog;
      }
    }
    // A design-by-hash request finds its design cached (the fixture primes
    // it with a text upload, as the mirror's priming replay does).
    if (stream) text = d.verilog;
    const std::uint64_t key = util::fnv1a64(text);
    std::shared_ptr<const serve::DesignArtifacts> design;
    if (auto it = designs_.find(key); it != designs_.end()) {
      design = it->second;
    } else {
      std::optional<netlist::Netlist> gate;
      {
        Span s(log, "netlist.parse", r.index);
        gate.emplace(netlist::parse_verilog(text, *fx_.lib));
      }
      std::vector<graph::SubmoduleGraph> graphs;
      int structural = 0;
      {
        Span s(log, "graph.build", r.index);
        structural = split_untagged(*gate);
        graphs = graph::build_submodule_graphs(*gate);
      }
      for (const auto& g : graphs) counts.graph_nodes += static_cast<double>(g.num_nodes());
      design = std::make_shared<const serve::DesignArtifacts>(serve::DesignArtifacts{
          std::move(*gate), std::move(graphs), structural, fx_.lib});
      if (kind != Kind::kNewDesigns) designs_[key] = design;
    }

    const std::string emb_key = std::to_string(key) + (r.w2 ? "/w2/" : "/w1/") +
                                std::to_string(r.cycles) + "/" +
                                (external ? std::to_string(external->content_hash()) : "");
    std::shared_ptr<const core::DesignEmbeddings> emb;
    if (auto it = embeddings_.find(emb_key); it != embeddings_.end()) {
      emb = it->second;
    } else {
      sim::ToggleTrace toggles;
      if (external) {
        Span s(log, "sim.delta_decode", r.index);
        sim::validate_delta(external->bytes());
        toggles = external->resolve(design->gate);
      } else {
        Span s(log, "sim.simulate", r.index);
        sim::CycleSimulator simulator(design->gate);
        sim::StimulusGenerator stim(design->gate, r.w2 ? sim::make_w2() : sim::make_w1());
        toggles = simulator.run(stim, r.cycles);
      }
      {
        Span s(log, "bench.row_stats", r.index);
        count_rows(design->graphs, toggles, counts);
      }
      auto out = std::make_shared<core::DesignEmbeddings>();
      {
        Span s(log, "atlas.encode", r.index);
        core::AtlasModel::EncodeItem item{&design->gate, &design->graphs, &toggles, out.get()};
        fx_.model->encode_batch(&item, 1, arena_);
        arena_.reset();
      }
      emb = out;
      if (kind == Kind::kWarmRepeat) embeddings_[emb_key] = emb;
    }

    core::Prediction pred;
    {
      Span s(log, "atlas.heads", r.index);
      pred = fx_.model->predict_from_embeddings(design->gate, design->graphs, *emb, &arena_);
      arena_.reset();
    }
    {
      Span s(log, "serve.protocol.codec", r.index);
      serve::PredictResponse resp;
      resp.num_cycles = pred.num_cycles;
      resp.num_submodules = pred.num_submodules;
      resp.design = pred.design;
      const std::string payload = resp.encode();
      counts.response_bytes = static_cast<double>(payload.size());
      serve::PredictResponse::decode(payload);
    }
    return {digest(pred.design), pred.num_cycles, pred.num_submodules};
  }

 private:
  /// Rows are (sub-module, cycle) encoder inputs; a row is distinct when
  /// its toggle channel differs from every earlier cycle of its sub-module.
  static void count_rows(const std::vector<graph::SubmoduleGraph>& graphs,
                         const sim::ToggleTrace& t, ReplayCounts& counts) {
    std::vector<std::uint8_t> row;
    for (const graph::SubmoduleGraph& g : graphs) {
      std::set<std::uint64_t> seen;
      row.resize(g.num_nodes());
      for (int c = 0; c < t.num_cycles(); ++c) {
        for (std::size_t i = 0; i < g.num_nodes(); ++i) {
          const netlist::NetId net = g.out_net[i];
          row[i] = net == netlist::kNoNet ? 0 : static_cast<std::uint8_t>(t.transitions(c, net));
        }
        seen.insert(util::fnv1a64(row.data(), row.size()));
      }
      counts.encode_rows += t.num_cycles();
      counts.distinct_rows += static_cast<double>(seen.size());
    }
  }

  const Fixture& fx_;
  util::Arena arena_;
  std::unordered_map<std::uint64_t, std::shared_ptr<const serve::DesignArtifacts>> designs_;
  std::map<std::string, std::shared_ptr<const core::DesignEmbeddings>> embeddings_;
};

// ---- output ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[256];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit);
    out += buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

void print_meta(const WorkloadDef& def, std::uint64_t seed, double seconds,
                int trace) {
  std::printf(
      "meta: {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"clients\": %d, \"pool_threads\": %d, \"nproc\": %d, "
      "\"build_type\": \"%s\", \"compiler\": \"%s\", \"cxx_flags\": \"%s\", "
      "\"design_scale\": %g, \"loop\": \"closed\"}\n",
      def.name, static_cast<unsigned long long>(seed), seconds, trace,
      def.clients, util::global_threads(),
      static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN)), SERVEBENCH_BUILD_TYPE,
      SERVEBENCH_COMPILER, SERVEBENCH_CXX_FLAGS, kScale);
}

void print_failures(const std::map<std::string, std::size_t>& reasons) {
  for (const auto& [why, n] : reasons) {
    std::printf("failed: %zu x %s\n", n, why.c_str());
  }
}

// ---- modes ----------------------------------------------------------------

int run_timed(const WorkloadDef& def, std::uint64_t seed, double seconds,
              const std::string& run_dir) {
  const SpeedProbe probe;
  std::unique_ptr<Fixture> fx;
  std::vector<double> setups, setup_steal, setup_probe;
  auto set_up = [&] {
    fx.reset();
    const double t0 = now_s(), st0 = steal_s();
    fx = std::make_unique<Fixture>(def, seed, run_dir);
    const double t1 = now_s();
    setups.push_back(t1 - t0);
    setup_steal.push_back(steal_pct(st0, steal_s(), t1 - t0));
    setup_probe.push_back(probe.median_ms(t0, t1));
  };
  set_up();
  const int windows = std::max(1, static_cast<int>(std::lround(seconds / kWindowSeconds)));
  const TimedResult run = timed_loop(*fx, probe, seconds, windows);

  // Off the clock: stop serving, widen the pool, check every reply.
  fx->stop();
  util::set_global_threads(0);
  std::map<std::string, std::size_t> reasons;
  std::size_t failed = check_outcomes(*fx, run.checks, reasons);
  if (run.repeat_mismatches > 0) {
    failed += run.repeat_mismatches;
    reasons["reply differs from an earlier reply to the same input"] += run.repeat_mismatches;
  }

  // setup_s is the median of kSetupReps set-ups, each scaled to the
  // reference speed by the probe's reading during it and to zero steal.
  // The repetitions run after the timed phase, so what they allocate
  // cannot enter rss_peak_mb.
  util::set_global_threads(kPoolThreads);
  for (int rep = 1; rep < kSetupReps; ++rep) set_up();
  std::vector<double> scaled_setups;
  for (std::size_t i = 0; i < setups.size(); ++i) {
    scaled_setups.push_back(setups[i] * ref_speed_scale(setup_probe[i]));
  }

  // Every window is listed unscaled. For the metrics each window's times
  // are scaled to the reference speed by its probe reading, then to zero
  // steal: log(figure) is fitted against the windows' steal, and each
  // window's figure is moved along that line to zero steal. Steal only
  // slows the program, so a slope of the other sign counts as 0.
  std::vector<double> rps, cpu, rss, steal, p50, p95, probe_ms, raw_rtt;
  std::vector<double> s_rps, s_cpu, s_p50, s_p95;  // at the reference speed
  for (const Window& w : run.windows) {
    if (w.rtt_ms.empty()) continue;
    const double done = static_cast<double>(w.rtt_ms.size());
    const double scale = ref_speed_scale(w.probe_ms);
    rps.push_back(done / w.wall_s);
    cpu.push_back(w.cpu_s * 1e3 / done);
    rss.push_back(w.rss_mb);
    steal.push_back(w.steal_pct);
    p50.push_back(percentile(w.rtt_ms, 50));
    p95.push_back(percentile(w.rtt_ms, 95));
    probe_ms.push_back(w.probe_ms);
    raw_rtt.insert(raw_rtt.end(), w.rtt_ms.begin(), w.rtt_ms.end());
    s_rps.push_back(rps.back() / scale);
    s_cpu.push_back(cpu.back() * scale);
    s_p50.push_back(p50.back() * scale);
    s_p95.push_back(p95.back() * scale);
  }
  const double b_rps = std::min(steal_slope(steal, s_rps), 0.0);
  const double b_cpu = std::max(steal_slope(steal, s_cpu), 0.0);
  const double b_p50 = std::max(steal_slope(steal, s_p50), 0.0);
  const double b_p95 = std::max(steal_slope(steal, s_p95), 0.0);
  const double b_setup = std::max(steal_slope(setup_steal, scaled_setups), 0.0);
  auto at_zero_steal = [](const std::vector<double>& v, const std::vector<double>& st,
                          double slope) {
    std::vector<double> out;
    for (std::size_t i = 0; i < v.size(); ++i) out.push_back(v[i] * std::exp(-slope * st[i]));
    return out;
  };
  // Latency percentiles pool every request, each moved by its window's
  // factors along the slope of that percentile's per-window values.
  std::size_t requests = 0;
  auto rtt_at_zero_steal = [&](double slope) {
    std::vector<double> out;
    for (const Window& w : run.windows) {
      const double f = ref_speed_scale(w.probe_ms) * std::exp(-slope * w.steal_pct);
      for (double ms : w.rtt_ms) out.push_back(ms * f);
    }
    requests = out.size();
    return out;
  };
  auto list = [](const std::vector<double>& v) {
    std::string out;
    for (double x : v) out += " " + std::to_string(x);
    return out;
  };
  std::printf("servebench: %s seed=%llu sent=%zu succeeded=%zu failed=%zu "
              "windows=%d setups_s=[%s ] setup_steal_pct=[%s ] setup_probe_ms=[%s ]\n",
              def.name, static_cast<unsigned long long>(seed), run.attempted,
              run.attempted - failed, failed, windows, list(setups).c_str(),
              list(setup_steal).c_str(), list(setup_probe).c_str());
  std::printf("windows: rps=[%s ] p50_ms=[%s ] p95_ms=[%s ] cpu_ms=[%s ] rss_mb=[%s ] "
              "host_steal_pct=[%s ] probe_ms=[%s ]\n",
              list(rps).c_str(), list(p50).c_str(), list(p95).c_str(), list(cpu).c_str(),
              list(rss).c_str(), list(steal).c_str(), list(probe_ms).c_str());
  std::printf("steal_slopes: throughput_rps=%.5f latency_p50_ms=%.5f latency_p95_ms=%.5f "
              "cpu_ms_per_req=%.5f setup_s=%.5f\n", b_rps, b_p50, b_p95, b_cpu, b_setup);
  std::printf("unscaled: throughput_rps=%.4f latency_p50_ms=%.4f latency_p95_ms=%.4f "
              "cpu_ms_per_req=%.4f setup_s=%.4f\n",
              median(rps), percentile(raw_rtt, 50), percentile(raw_rtt, 95), median(cpu),
              median(setups));
  const double lat_p50 = percentile(rtt_at_zero_steal(b_p50), 50);
  const double lat_p95 = percentile(rtt_at_zero_steal(b_p95), 95);
  if (requests < kMinSamples) {
    std::printf("warning: fewer than %zu successful requests; "
                "p95 has fewer than 10 samples above it\n", kMinSamples);
  }
  print_failures(reasons);
  std::vector<Metric> m = {
      {"throughput_rps", median(at_zero_steal(s_rps, steal, b_rps)), "1/s"},
      {"latency_p50_ms", lat_p50, "ms"},
      {"latency_p95_ms", lat_p95, "ms"},
      {"cpu_ms_per_req", median(at_zero_steal(s_cpu, steal, b_cpu)), "ms"},
      {"rss_peak_mb", median(rss), "MB"},
      {"setup_s", median(at_zero_steal(scaled_setups, setup_steal, b_setup)), "s"},
  };
  print_result(failed == 0, run.attempted, failed, m);
  return 0;
}

int run_traced(const WorkloadDef& def, std::uint64_t seed, double seconds,
               const std::string& out_dir) {
  Fixture fx(def, seed, out_dir);
  const Kind kind = def.kind;
  const SpanLog::Clock::time_point epoch = SpanLog::Clock::now();
  const int n_req = kReplayRequests;
  std::map<std::string, std::size_t> reasons;
  std::size_t attempted = 0, failed = 0;

  // 1. In-process replay of requests [0, n_req) under spans.
  SpanLog replay_log(0, epoch);
  Replayer replayer(fx);
  {
    ReplayCounts unused;
    if (kind == Kind::kWarmRepeat) {
      for (const Request& r : fx.inputs->warm_combos()) replayer.run(r, nullptr, unused);
    } else if (kind == Kind::kEncodeSweep) {
      replayer.run(fx.inputs->make(kWarmupIndexBase), nullptr, unused);
    }
  }
  std::map<std::uint32_t, ReplayCounts> counts;
  std::vector<Outcome> replay_outcomes;
  std::vector<Request> replayed;
  const double replay_budget = std::max(1.0, seconds / 3);
  const double r0 = now_s();
  for (std::uint32_t i = 0; i < static_cast<std::uint32_t>(n_req); ++i) {
    if (i >= 8 && now_s() - r0 > replay_budget) break;
    const Request r = fx.inputs->make(i);
    const OracleResult got = replayer.run(r, &replay_log, counts[i]);
    Outcome o;
    o.index = r.index;
    o.key = oracle_key(kind, r);
    o.input = input_digest(r);
    o.ok = true;
    o.digest = got.digest;
    o.num_cycles = got.num_cycles;
    o.num_submodules = got.num_submodules;
    replay_outcomes.push_back(o);
    replayed.push_back(r);
  }
  const std::uint32_t n_replayed = static_cast<std::uint32_t>(replayed.size());

  // 2. Wire pass: the replayed requests traced, interleaved with as many
  //    fresh untraced ones.
  std::vector<std::unique_ptr<SpanLog>> wire_logs;
  for (int c = 0; c < def.clients; ++c) {
    wire_logs.push_back(std::make_unique<SpanLog>(static_cast<std::uint32_t>(c + 1), epoch));
  }
  const serve::FeatureCacheStats cs0 = fx.cache_stats();
  obs::Registry& reg = obs::Registry::global();
  const double tasks0 = static_cast<double>(reg.counter("atlas_parallel_tasks_total").value());
  const double busy0 = static_cast<double>(reg.counter("atlas_parallel_worker_busy_us_total").value());
  const obs::Histogram& qwait = reg.histogram("atlas_parallel_task_queue_wait_us");
  const double qwait0 = static_cast<double>(qwait.sum());
  const double qcount0 = static_cast<double>(qwait.count());
  const std::vector<Outcome> wire = wire_pass(fx, n_replayed, wire_logs);
  const serve::FeatureCacheStats cs1 = fx.cache_stats();
  const double n_wire = static_cast<double>(std::max<std::size_t>(wire.size(), 1));
  const double tasks = (static_cast<double>(reg.counter("atlas_parallel_tasks_total").value()) - tasks0) / n_wire;
  const double busy_ms = (static_cast<double>(reg.counter("atlas_parallel_worker_busy_us_total").value()) - busy0) / 1e3 / n_wire;
  const double qtasks = static_cast<double>(qwait.count()) - qcount0;
  const double qwait_ms = qtasks > 0 ? (static_cast<double>(qwait.sum()) - qwait0) / 1e3 / qtasks : 0.0;
  fx.stop();

  // 3. warm-repeat: the replayed requests through a Router over two warm
  //    backends. Per-request router hop = routed minus direct round trip of
  //    the same request, interleaved.
  std::vector<double> hops;
  std::vector<Outcome> hop_outcomes;
  SpanLog hop_log(static_cast<std::uint32_t>(def.clients + 1), epoch);
  double routed_total = 0.0, routed_max = 0.0, failovers = 0.0;
  if (kind == Kind::kWarmRepeat) {
    Fixture routed(kRoutedFixture, seed, out_dir);
    auto backend_count = [&](const char* family) {
      std::vector<double> v;
      for (const std::string& id : routed.backend_ids) {
        v.push_back(static_cast<double>(reg.counter(family, "backend=\"" + id + "\"").value()));
      }
      return v;
    };
    const std::vector<double> routed0 = backend_count("atlas_router_requests_total");
    const std::vector<double> failover0 = backend_count("atlas_router_failovers_total");
    std::vector<serve::Client> direct;
    for (const auto& s : routed.servers) direct.push_back(serve::Client::connect_unix(s->config().unix_path));
    for (auto& c : direct) {
      for (const Request& r : routed.inputs->warm_combos()) c.predict(predict_request(*routed.inputs, r));
    }
    serve::Client client = serve::Client::connect_tcp("127.0.0.1", routed.port());
    for (const Request& r : replayed) {
      Outcome a, b;
      {
        Span s(&hop_log, "router.round_trip", r.index);
        a = send(client, routed, r, false);
      }
      {
        Span s(&hop_log, "serve.client.round_trip", r.index);
        b = send(direct[r.index % direct.size()], routed, r, false);
      }
      if (a.ok && b.ok) hops.push_back(a.rtt_ms - b.rtt_ms);
      hop_outcomes.push_back(std::move(a));
      hop_outcomes.push_back(std::move(b));
    }
    const std::vector<double> routed1 = backend_count("atlas_router_requests_total");
    const std::vector<double> failover1 = backend_count("atlas_router_failovers_total");
    for (std::size_t i = 0; i < routed0.size(); ++i) {
      routed_total += routed1[i] - routed0[i];
      routed_max = std::max(routed_max, routed1[i] - routed0[i]);
      failovers += failover1[i] - failover0[i];
    }
  }

  // 4. Correctness: wire replies, routed and direct replies (same inputs,
  //    same deterministically trained model) and replayed predictions vs
  //    the oracle.
  std::vector<Outcome> all = wire;
  all.insert(all.end(), hop_outcomes.begin(), hop_outcomes.end());
  util::set_global_threads(0);
  all.insert(all.end(), replay_outcomes.begin(), replay_outcomes.end());
  attempted = all.size();
  failed = check_outcomes(fx, all, reasons);

  // 5. Per-layer numbers: per-request self time per layer (median over the
  //    replayed requests), counts, and wire-side waits.
  SpanLog merged(0, epoch);
  merged.merge(replay_log);
  for (const auto& l : wire_logs) merged.merge(*l);
  merged.merge(hop_log);
  const auto self_replay = replay_log.self_by_request();
  const char* kLayers[] = {"netlist.parse", "graph.build", "sim.simulate", "sim.delta_decode",
                           "atlas.encode", "atlas.heads", "serve.protocol.codec"};
  std::map<std::string, std::vector<double>> layer_ms;
  std::map<std::uint32_t, double> layer_sum_ms;
  for (const Request& r : replayed) {
    const auto it = self_replay.find(r.index);
    for (const char* layer : kLayers) {
      double ms = 0.0;
      if (it != self_replay.end()) {
        if (auto jt = it->second.find(layer); jt != it->second.end()) ms = static_cast<double>(jt->second) / 1e6;
      }
      layer_ms[layer].push_back(ms);
      layer_sum_ms[r.index] += ms;
    }
  }
  auto count_median = [&](double ReplayCounts::*field) {
    std::vector<double> v;
    for (const Request& r : replayed) v.push_back(counts[r.index].*field);
    return median(v);
  };
  std::vector<double> us_per_row, distinct_share, wait_ms, overhead_ms, traced_rtt;
  for (const Request& r : replayed) {
    const ReplayCounts& c = counts[r.index];
    double enc_ms = 0.0;
    if (auto it = self_replay.find(r.index); it != self_replay.end()) {
      if (auto jt = it->second.find("atlas.encode"); jt != it->second.end()) enc_ms = static_cast<double>(jt->second) / 1e6;
    }
    us_per_row.push_back(c.encode_rows > 0 ? enc_ms * 1e3 / c.encode_rows : 0.0);
    distinct_share.push_back(c.encode_rows > 0 ? c.distinct_rows / c.encode_rows : 0.0);
  }
  std::vector<double> untraced_rtt;
  for (const Outcome& o : wire) {
    if (!o.ok) continue;
    if (!o.traced) {
      untraced_rtt.push_back(o.rtt_ms);
      continue;
    }
    wait_ms.push_back(o.wait_ms);
    traced_rtt.push_back(o.rtt_ms);
    overhead_ms.push_back(o.rtt_ms - layer_sum_ms[o.index]);
  }
  auto ratio = [](std::uint64_t hit, std::uint64_t miss) {
    return hit + miss == 0 ? 0.0 : static_cast<double>(hit) / static_cast<double>(hit + miss);
  };

  std::vector<Metric> m = {
      {"netlist.parse_ms", median(layer_ms["netlist.parse"]), "ms"},
      {"graph.build_ms", median(layer_ms["graph.build"]), "ms"},
      {"graph.nodes", count_median(&ReplayCounts::graph_nodes), "count"},
      {"sim.simulate_ms", median(layer_ms["sim.simulate"]), "ms"},
      {"sim.delta_decode_ms", median(layer_ms["sim.delta_decode"]), "ms"},
      {"atlas.encode_ms", median(layer_ms["atlas.encode"]), "ms"},
      {"atlas.encode_rows", count_median(&ReplayCounts::encode_rows), "count"},
      {"atlas.encode_us_per_row", median(us_per_row), "us"},
      {"atlas.encode_distinct_row_share", median(distinct_share), "ratio"},
      {"atlas.heads_ms", median(layer_ms["atlas.heads"]), "ms"},
      {"serve.protocol.codec_ms", median(layer_ms["serve.protocol.codec"]), "ms"},
      {"serve.protocol.request_bytes", count_median(&ReplayCounts::request_bytes), "bytes"},
      {"serve.protocol.response_bytes", count_median(&ReplayCounts::response_bytes), "bytes"},
      {"serve.feature_cache.design_hit_ratio",
       ratio(cs1.design_hits - cs0.design_hits, cs1.design_misses - cs0.design_misses), "ratio"},
      {"serve.feature_cache.embedding_hit_ratio",
       ratio(cs1.embedding_hits - cs0.embedding_hits, cs1.embedding_misses - cs0.embedding_misses), "ratio"},
      {"serve.feature_cache.evictions",
       static_cast<double>(cs1.design_evictions - cs0.design_evictions) / n_wire, "1/req"},
      {"serve.feature_cache.embedding_drops",
       static_cast<double>(cs1.embedding_drops - cs0.embedding_drops) / n_wire, "1/req"},
      {"serve.server.wait_ms", median(wait_ms), "ms"},
      {"serve.server.overhead_ms", median(overhead_ms), "ms"},
      {"util.parallel.tasks", tasks, "1/req"},
      {"util.parallel.worker_busy_ms", busy_ms, "ms"},
      {"util.parallel.queue_wait_ms", qwait_ms, "ms"},
      {"router.hop_ms", median(hops), "ms"},
      {"router.failovers", failovers, "count"},
      {"router.max_backend_share", routed_total > 0 ? routed_max / routed_total : 0.0, "ratio"},
      {"bench.trace_overhead_ms", median(traced_rtt) - median(untraced_rtt), "ms"},
  };

  // Per-layer self-time table (all spans, replay and wire) and the trace.
  std::map<std::string, std::pair<std::size_t, double>> table;
  for (const servebench::SpanRecord& r : merged.records()) {
    auto& row = table[r.name];
    ++row.first;
    row.second += static_cast<double>(r.self_ns()) / 1e6;
  }
  std::string table_text = "layer                               spans   self_ms_total  self_ms_mean\n";
  char buf[256];
  for (const auto& [name, row] : table) {
    std::snprintf(buf, sizeof(buf), "%-34s %7zu %15.3f %13.4f\n", name.c_str(), row.first,
                  row.second, row.second / static_cast<double>(row.first));
    table_text += buf;
  }
  const std::string stem = out_dir + "/" + def.name + "-seed" + std::to_string(seed);
  std::ofstream(stem + "-trace.json") << merged.chrome_json();
  std::ofstream(stem + "-layers.txt") << table_text;

  std::printf("servebench: %s seed=%llu traced replay of %u requests; sent=%zu "
              "(wire + replay) succeeded=%zu failed=%zu\n%s",
              def.name, static_cast<unsigned long long>(seed), n_replayed, attempted,
              attempted - failed, failed, table_text.c_str());
  std::printf("trace: %s-trace.json\n", stem.c_str());
  print_failures(reasons);
  print_result(failed == 0, attempted, failed, m);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli;
  cli.flag("workload", "", "encode-sweep | warm-repeat | new-designs")
      .flag("seed", "1", "workload seed (inputs are a function of it)")
      .flag("seconds", "10", "timed closed-loop duration")
      .flag("trace", "0", "0 = timed end-to-end run, 1 = traced per-layer replay")
      .flag("out-dir", ".",
            "run directory: the traced run's trace and table, the routed "
            "backends' sockets (keep it relative: socket paths are ring ids)");
  try {
    cli.parse(argc, argv);
    if (cli.help_requested()) return 0;
    const std::string name = cli.str("workload");
    const WorkloadDef* def = nullptr;
    for (const WorkloadDef& w : kWorkloads) {
      if (name == w.name) def = &w;
    }
    if (!def) {
      std::fprintf(stderr, "error: unknown --workload '%s'\n", name.c_str());
      return 2;
    }
    const auto seed = static_cast<std::uint64_t>(cli.integer("seed"));
    const double seconds = cli.real("seconds");
    const int trace = static_cast<int>(cli.integer("trace"));
    std::filesystem::create_directories(cli.str("out-dir"));
    util::set_global_threads(kPoolThreads);
    print_meta(*def, seed, seconds, trace);
    return trace ? run_traced(*def, seed, seconds, cli.str("out-dir"))
                 : run_timed(*def, seed, seconds, cli.str("out-dir"));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
