#include "advisor/candidate_space.h"

#include <algorithm>
#include <utility>

namespace cdpd {

namespace {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

uint64_t FnvMix(uint64_t hash, uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (byte * 8)) & 0xff;
    hash *= kFnvPrime;
  }
  return hash;
}

uint64_t HashIndexDef(const IndexDef& def) {
  uint64_t hash = kFnvOffset;
  for (const ColumnId column : def.key_columns()) {
    hash = FnvMix(hash, static_cast<uint64_t>(column));
  }
  // Separate an empty key list from a single column 0.
  return FnvMix(hash, def.key_columns().size());
}

/// Fingerprint of an index set, order-independent only because the
/// inputs are canonically sorted (Configuration guarantees it).
uint64_t HashIndexSet(const std::vector<IndexDef>& indexes) {
  uint64_t hash = kFnvOffset;
  for (const IndexDef& def : indexes) hash = FnvMix(hash, HashIndexDef(def));
  return FnvMix(hash, indexes.size());
}

}  // namespace

CandidateSpace::CandidateSpace(std::vector<Configuration> configs)
    : configs_(std::move(configs)) {
  BuildIndex();
}

CandidateSpace::CandidateSpace(std::initializer_list<Configuration> configs)
    : configs_(configs) {
  BuildIndex();
}

void CandidateSpace::BuildIndex() {
  universe_.clear();
  for (const Configuration& config : configs_) {
    for (const IndexDef& def : config.indexes()) universe_.push_back(def);
  }
  std::sort(universe_.begin(), universe_.end());
  universe_.erase(std::unique(universe_.begin(), universe_.end()),
                  universe_.end());
  exact_masks_ = universe_.size() <= 64;

  masks_.resize(configs_.size());
  for (size_t i = 0; i < configs_.size(); ++i) {
    masks_[i] = MaskOf(configs_[i]);
  }

  fingerprint_ = kFnvOffset;
  for (const IndexDef& def : universe_) {
    fingerprint_ = FnvMix(fingerprint_, HashIndexDef(def));
  }
  fingerprint_ = FnvMix(fingerprint_, universe_.size());
  for (const uint64_t mask : masks_) {
    fingerprint_ = FnvMix(fingerprint_, mask);
  }
  fingerprint_ = FnvMix(fingerprint_, configs_.size());
}

uint64_t CandidateSpace::MaskOf(const Configuration& config) const {
  if (exact_masks_) {
    uint64_t mask = 0;
    bool exact = true;
    for (const IndexDef& def : config.indexes()) {
      const auto it =
          std::lower_bound(universe_.begin(), universe_.end(), def);
      if (it == universe_.end() || !(*it == def)) {
        exact = false;
        break;
      }
      mask |= uint64_t{1} << static_cast<size_t>(it - universe_.begin());
    }
    if (exact) return mask;
  }
  return HashIndexSet(config.indexes());
}

CandidateSpace CandidateSpace::Prefix(size_t n) const {
  if (n >= configs_.size()) return *this;
  return CandidateSpace(
      std::vector<Configuration>(configs_.begin(),
                                 configs_.begin() + static_cast<int64_t>(n)));
}

CandidateSpace CandidateSpace::Subset(const std::vector<ConfigId>& ids) const {
  std::vector<Configuration> selected;
  selected.reserve(ids.size());
  for (const ConfigId id : ids) selected.push_back(configs_[id]);
  return CandidateSpace(std::move(selected));
}

std::optional<ConfigId> CandidateSpace::IdOf(const Configuration& config) const {
  const uint64_t mask = MaskOf(config);
  for (size_t i = 0; i < configs_.size(); ++i) {
    if (masks_[i] == mask && configs_[i] == config) {
      return static_cast<ConfigId>(i);
    }
  }
  return std::nullopt;
}

}  // namespace cdpd
