#include "serve/registry.h"

#include "liberty/liberty_io.h"

namespace atlas::serve {

std::shared_ptr<const liberty::Library> ModelRegistry::default_library() {
  // Built once per process: every default-bound model shares one instance,
  // so their entries also share one library_hash and cached designs.
  static const std::shared_ptr<const liberty::Library> lib =
      std::make_shared<const liberty::Library>(liberty::make_default_library());
  return lib;
}

void ModelRegistry::load(const std::string& name, const std::string& path,
                         const std::string& library_path) {
  // All the expensive (and throwing) I/O happens before the lock; a corrupt
  // artifact or library leaves the registry exactly as it was.
  std::shared_ptr<const liberty::Library> library =
      library_path.empty()
          ? default_library()
          : std::make_shared<const liberty::Library>(
                liberty::load_liberty_file(library_path));
  auto model =
      std::make_shared<const core::AtlasModel>(core::AtlasModel::load(path));
  add(name, std::move(model), std::move(library));
}

void ModelRegistry::add(const std::string& name,
                        std::shared_ptr<const core::AtlasModel> m,
                        std::shared_ptr<const liberty::Library> library) {
  auto entry = std::make_shared<ModelEntry>();
  entry->model = std::move(m);
  entry->library = library ? std::move(library) : default_library();
  entry->library_hash = liberty::content_hash(*entry->library);
  std::lock_guard<std::mutex> lock(mu_);
  entry->generation = ++next_generation_;
  models_[name] = std::move(entry);
}

bool ModelRegistry::unload(const std::string& name) {
  // The erased shared_ptr may be the last registry-side reference; pinned
  // in-flight requests keep the entry (model + library) alive until they
  // drain, and destruction happens on whichever thread drops the last ref.
  std::shared_ptr<const ModelEntry> doomed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = models_.find(name);
    if (it == models_.end()) return false;
    doomed = std::move(it->second);
    models_.erase(it);
  }
  return true;
}

std::shared_ptr<const ModelEntry> ModelRegistry::get(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = models_.find(name);
  return it == models_.end() ? nullptr : it->second;
}

std::vector<ModelInfo> ModelRegistry::list() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ModelInfo> out;
  out.reserve(models_.size());
  for (const auto& [name, entry] : models_) {
    out.push_back({name, entry->model->encoder().dim(),
                   entry->library->name(), entry->generation,
                   entry->library_hash});
  }
  return out;
}

std::size_t ModelRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return models_.size();
}

std::uint64_t ModelRegistry::generation() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_generation_;
}

}  // namespace atlas::serve
