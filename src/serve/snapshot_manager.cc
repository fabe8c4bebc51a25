#include "serve/snapshot_manager.h"

#include <utility>

#include "util/logging.h"

namespace exea::serve {
namespace {

// Mirrors the old QueryEngine::BuildIndex policy resolution (degrade to
// exact with a warning rather than refuse to start).
bool WantIvf(const SnapshotBundle& bundle, const StateOptions& options) {
  const std::string& policy = options.index_policy;
  if (policy == "ivf") {
    if (!bundle.ivf.empty()) return true;
    EXEA_LOG(Warning) << "index_policy=ivf but the bundle was frozen "
                         "without a trained index; serving exact";
    return false;
  }
  if (policy == "auto") {
    return !bundle.ivf.empty() && bundle.emb2.rows() >= options.ivf_min_rows;
  }
  if (policy != "exact") {
    EXEA_LOG(Warning) << "unknown index_policy '" << policy
                      << "' (expected auto|exact|ivf); serving exact";
  }
  return false;
}

}  // namespace

ServingState::ServingState(std::unique_ptr<SnapshotBundle> bundle,
                           uint64_t epoch, std::string source,
                           const StateOptions& options,
                           obs::Registry* registry)
    : bundle_(std::move(bundle)),
      epoch_(epoch),
      source_(std::move(source)),
      model_(bundle_.get()),
      explainer_(bundle_->dataset, model_, explain::ExeaConfig{}),
      context_(&bundle_->alignment, &bundle_->dataset.train) {
  EXEA_CHECK(bundle_ != nullptr);
  if (WantIvf(*bundle_, options)) {
    index_ = std::make_unique<la::IvfIndex>(&bundle_->emb2, &bundle_->ivf,
                                            registry);
  } else {
    index_ = std::make_unique<la::ExactIndex>(&bundle_->emb2, registry);
  }
}

SnapshotManager::SnapshotManager(obs::Registry* registry)
    : versions_gauge_((registry != nullptr ? *registry
                                           : obs::Registry::Global())
                          .GetGauge("serve.snapshot.versions")),
      swaps_((registry != nullptr ? *registry : obs::Registry::Global())
                 .GetCounter("serve.snapshot.swaps")) {}

uint64_t SnapshotManager::Install(std::unique_ptr<const ServingState> state) {
  EXEA_CHECK(state != nullptr);
  obs::Gauge* versions = &versions_gauge_;
  // The custom deleter is the "retired version actually freed" event:
  // it runs when the LAST handle (manager residency or in-flight
  // reader) drops, wherever that thread is.
  std::shared_ptr<const ServingState> handle(
      state.release(), [versions](const ServingState* s) {
        delete s;  // exea-lint: allow(raw-new-delete)
        versions->Add(-1.0);
      });
  versions->Add(1.0);
  uint64_t epoch = handle->epoch();
  // Declared before the lock so the retired version is released after
  // mu_ is: freeing a bundle never holds up Acquire.
  std::shared_ptr<const ServingState> retired;
  std::lock_guard<std::mutex> lock(mu_);
  if (current_ != nullptr) swaps_.Increment();
  retired = std::exchange(current_, std::move(handle));
  return epoch;
}

std::shared_ptr<const ServingState> SnapshotManager::Acquire() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

}  // namespace exea::serve
