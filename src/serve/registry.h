// Named registry of loaded AtlasModel artifacts and their substrates.
//
// Each entry binds a deserialized model to the liberty::Library it was
// fine-tuned against — models trained on different standard-cell substrates
// coexist in one daemon, and request netlists are parsed against the model's
// own library, never a server-wide default. Entries are immutable once
// published (`shared_ptr<const ModelEntry>`): AtlasModel and Library are
// read-only after construction, which is what makes lock-free concurrent use
// of one entry sound.
//
// Lifecycle: load/add/unload may run at any time (the daemon's admin
// requests), concurrently with predict handlers. A handler pins the entry it
// resolved (`get()` hands out the shared_ptr) for the whole request, so
// unloading or replacing a name never invalidates in-flight work — the old
// artifact is destroyed when the last pinned reference drains. Every
// (re)load under a name is stamped with a fresh generation from a
// registry-wide counter; the serve feature cache folds the generation into
// its result keys, so predictions computed by a previous artifact under
// the same name can never be served after a reload.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "atlas/model.h"
#include "liberty/library.h"
#include "serve/protocol.h"

namespace atlas::serve {

/// One published (model, library) binding. Immutable after registration.
struct ModelEntry {
  std::shared_ptr<const core::AtlasModel> model;
  std::shared_ptr<const liberty::Library> library;
  /// liberty::content_hash(*library) — folded into design cache keys so two
  /// substrates never share parsed netlists.
  std::uint64_t library_hash = 0;
  /// Registry-unique stamp, bumped on every load/add; invalidates cached
  /// predictions across a reload under the same name.
  std::uint64_t generation = 0;
};

class ModelRegistry {
 public:
  /// Deserialize the artifact at `path` (and, when `library_path` is
  /// non-empty, the Liberty file backing it) and publish it under `name`,
  /// replacing any previous binding with a fresh generation. Throws on an
  /// unreadable/corrupt artifact or library; the registry is unchanged then.
  void load(const std::string& name, const std::string& path,
            const std::string& library_path = std::string());

  /// Register an already-constructed model (in-process tests, benches).
  /// A null `library` binds the shared default library.
  void add(const std::string& name, std::shared_ptr<const core::AtlasModel> m,
           std::shared_ptr<const liberty::Library> library = nullptr);

  /// Remove the binding; in-flight requests that already pinned the entry
  /// are unaffected. Returns false when the name is unknown.
  bool unload(const std::string& name);

  /// Pin the entry for a request; nullptr when the name is unknown.
  std::shared_ptr<const ModelEntry> get(const std::string& name) const;

  /// One ListModels row per registered model, name-sorted.
  std::vector<ModelInfo> list() const;

  std::size_t size() const;

  /// Value of the registry-wide generation counter: the number of loads
  /// this registry ever performed. A health probe exposes it so a routing
  /// tier can detect admin churn on a shard without diffing model lists.
  std::uint64_t generation() const;

  /// The process-shared default library entry backing models registered
  /// without an explicit substrate (also used by tools/tests that need the
  /// exact library instance a default-bound model will parse against).
  static std::shared_ptr<const liberty::Library> default_library();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<const ModelEntry>> models_;
  std::uint64_t next_generation_ = 0;
};

}  // namespace atlas::serve
