#ifndef CDPD_ADVISOR_CANDIDATE_SPACE_H_
#define CDPD_ADVISOR_CANDIDATE_SPACE_H_

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <vector>

#include "catalog/configuration.h"

namespace cdpd {

/// Canonical identifier of a configuration inside one CandidateSpace:
/// its position in the pinned enumeration order. The solvers' DP
/// tables and the dense cost matrices address configurations by
/// ConfigId instead of hashing materialized Configuration objects.
using ConfigId = uint32_t;

/// The pinned candidate-configuration set of one design problem — the
/// value type the whole cost/config API speaks.
///
/// A CandidateSpace freezes an enumerated set of configurations and
/// assigns each one
///  * a canonical ConfigId — its index in the pinned order — and
///  * a packed `uint64_t` bitmask over the space's index *universe*
///    (the sorted, duplicate-free union of every IndexDef appearing in
///    any member configuration; bit i set = universe()[i] present).
///
/// The what-if precompute turns masks into TRANS costs by bit
/// arithmetic instead of diffing IndexDef vectors. Masks are exact — a
/// bijection onto the member configurations — whenever the universe
/// has at most 64 indexes (exact_masks()); beyond that the mask of a
/// configuration is a 64-bit FNV fingerprint of its index set instead,
/// which keeps the packed representation usable but not invertible, so
/// the precompute then diffs configurations. (The what-if cost cache
/// keys on the Configuration itself, not on its mask.)
///
/// Immutable value type: cheap to copy (the configurations dominate),
/// equality compares the pinned configuration list. The configuration
/// order is the caller's enumeration order, never resorted — ConfigIds
/// must stay stable for DP parent tables and explain reports to make
/// sense.
///
/// Configuration objects remain the API boundary (catalog, explain,
/// CLI output); inside the solvers only ConfigIds and masks travel.
class CandidateSpace {
 public:
  /// The empty space (no candidate configurations).
  CandidateSpace() = default;

  /// Pins `configs` in the given order and derives the universe and
  /// per-configuration masks. Intentionally implicit: a
  /// std::vector<Configuration> (or a braced list) anywhere a
  /// CandidateSpace is expected promotes to the packed representation,
  /// which keeps problem construction at the API boundary ergonomic.
  CandidateSpace(std::vector<Configuration> configs);  // NOLINT(runtime/explicit)
  CandidateSpace(std::initializer_list<Configuration> configs);

  size_t size() const { return configs_.size(); }
  bool empty() const { return configs_.empty(); }

  const Configuration& operator[](size_t id) const { return configs_[id]; }
  const std::vector<Configuration>& configs() const { return configs_; }
  std::vector<Configuration>::const_iterator begin() const {
    return configs_.begin();
  }
  std::vector<Configuration>::const_iterator end() const {
    return configs_.end();
  }

  /// The sorted, duplicate-free union of every index appearing in a
  /// member configuration. Bit i of a mask refers to universe()[i].
  const std::vector<IndexDef>& universe() const { return universe_; }
  size_t num_indexes() const { return universe_.size(); }

  /// True when masks are exact set-bitmasks (universe <= 64 indexes);
  /// false when they degrade to fingerprints (see class comment).
  bool exact_masks() const { return exact_masks_; }

  /// Packed identity of configuration `id` (see class comment).
  uint64_t mask(size_t id) const { return masks_[id]; }
  const std::vector<uint64_t>& masks() const { return masks_; }

  /// The packed identity `config` *would* have in this space — exact
  /// bitmask when every index of `config` is in the universe (and
  /// exact_masks()), fingerprint otherwise. IdOf matches it against
  /// the members' masks before comparing configurations.
  uint64_t MaskOf(const Configuration& config) const;

  /// The space over the first `n` member configurations, in the same
  /// pinned order (n >= size() returns a copy of the whole space). The
  /// universe is re-derived from the survivors, so masks stay minimal.
  CandidateSpace Prefix(size_t n) const;

  /// The space over the member configurations `ids` selects, in the
  /// given order (dominance pruning passes the surviving ConfigIds in
  /// ascending original order, so relative ConfigId order is
  /// preserved). Like Prefix, the universe is re-derived from the
  /// survivors, so masks stay minimal.
  CandidateSpace Subset(const std::vector<ConfigId>& ids) const;

  /// ConfigId of `config` if it is a member (linear scan over masks
  /// with an equality check — called at the API boundary, never in a
  /// solver inner loop).
  std::optional<ConfigId> IdOf(const Configuration& config) const;

  /// 64-bit identity of the whole space (universe + pinned masks) —
  /// distinguishes any two structurally different spaces.
  uint64_t fingerprint() const { return fingerprint_; }

  bool operator==(const CandidateSpace& other) const {
    return configs_ == other.configs_;
  }

 private:
  void BuildIndex();

  std::vector<Configuration> configs_;
  std::vector<IndexDef> universe_;
  std::vector<uint64_t> masks_;
  bool exact_masks_ = true;
  uint64_t fingerprint_ = 0;
};

}  // namespace cdpd

#endif  // CDPD_ADVISOR_CANDIDATE_SPACE_H_
