#ifndef RDFOPT_VIEWS_VIEW_CATALOG_H_
#define RDFOPT_VIEWS_VIEW_CATALOG_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/relation.h"
#include "engine/view_resolver.h"
#include "rdf/triple.h"
#include "sparql/query.h"
#include "storage/epoch.h"

namespace rdfopt {

struct ViewCatalogOptions {
  /// Byte budget of materialized rows (pinned + unpinned). Offers that would
  /// not fit after evicting every unpinned entry are rejected.
  size_t byte_budget = 16ull << 20;
  /// Cap on the observation ledger (entries with or without rows). When
  /// full, the coldest non-resident unpinned entry makes room.
  size_t max_ledger_entries = 1024;
};

/// Per-view row of the catalog listing (the `views` admin command of
/// service/admin.h, and the advisor's scoring input).
struct ViewInfo {
  std::string signature;
  bool pinned = false;
  bool resident = false;  ///< Rows materialized for the current epoch.
  Epoch epoch = 0;        ///< Epoch of the materialized rows (if resident).
  size_t bytes = 0;
  size_t rows = 0;
  uint64_t observations = 0;  ///< Times the planner noted this fragment.
  uint64_t hits = 0;          ///< Lookups served from materialized rows.
  double est_cost = 0.0;      ///< Planner's cost of computing the fragment.
  size_t union_terms = 0;     ///< Reformulation terms the view stands for.
};

/// Counter snapshot for QueryService::Stats and the text surfaces. The same
/// totals are exported continuously as `views.*` registry metrics.
struct ViewCatalogStats {
  uint64_t lookups = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t offers = 0;
  uint64_t admitted = 0;
  uint64_t rejected = 0;     ///< Offers refused (unnoted, too big, arity 0).
  uint64_t stale_offers = 0; ///< Offers dropped by the epoch write guard.
  uint64_t evictions = 0;
  uint64_t invalidations = 0;   ///< Materializations dropped at epoch bumps.
  uint64_t carry_forwards = 0;  ///< Pinned views untouched by a data delta.
  uint64_t refreshes = 0;       ///< Pinned views re-materialized.
  uint64_t promotions = 0;
  uint64_t demotions = 0;
  size_t bytes = 0;
  size_t entries = 0;   ///< Ledger size (with or without rows).
  size_t resident = 0;  ///< Entries with materialized rows.
  size_t pinned = 0;
};

/// The fragment-result store of the materialized-view subsystem
/// (DESIGN.md §14): maps ViewSignatures of executable UCQ components to
/// their deduplicated result relations, plus the observation ledger the
/// advisor scores.
///
/// Two tiers share one byte budget:
///  - *unpinned* entries are admitted opportunistically (Offer) from results
///    the executor computed anyway, live on an LRU list, and are dropped
///    wholesale at every epoch bump — they cost nothing to lose;
///  - *pinned* entries (advisor promotions) are never evicted by the LRU and
///    are maintained across epochs: BeginEpoch carries them forward when the
///    data delta provably cannot change them, otherwise hands them back to
///    the caller for re-materialization against the new snapshot.
///
/// Epoch discipline: rows are stamped with the epoch of the snapshot they
/// were computed from; Lookup only returns rows whose stamp matches the
/// requesting snapshot's epoch, and Offer funnels through the shared
/// EpochWriteAdmissible guard (service/epoch_guard.h) so a result computed
/// on a stale pinned snapshot can never be published into the new epoch.
///
/// Thread-safe (one mutex; all methods may race). The engine talks to it
/// through per-request EpochViewResolver adapters, never directly.
class ViewCatalog {
 public:
  explicit ViewCatalog(ViewCatalogOptions options = {});

  ViewCatalog(const ViewCatalog&) = delete;
  ViewCatalog& operator=(const ViewCatalog&) = delete;

  /// ViewResolver core; Lookup and Offer take the caller's snapshot epoch
  /// explicitly. Observations are epoch-free — the ledger is the advisor's
  /// long-run frequency signal and survives epoch bumps.
  void NoteComponent(const std::string& signature, const UnionQuery& ucq,
                     double est_cost, size_t union_terms);
  std::shared_ptr<const Relation> Lookup(const std::string& signature,
                                         Epoch epoch);
  void Offer(const std::string& signature, const Relation& rows, Epoch epoch);

  /// One pinned view due for re-materialization after an epoch change.
  struct RefreshTask {
    std::string signature;
    UnionQuery definition;
  };

  /// Moves the catalog to `new_epoch`: drops every unpinned materialization
  /// (their epoch stamp makes them unreachable anyway; dropping reclaims the
  /// budget eagerly) and triages pinned views. With `delta_is_complete`, a
  /// pinned view whose atoms match no delta triple carries forward (its
  /// result provably cannot have changed — the engine evaluates views
  /// against the data store, whose new content is exactly old ∪ delta);
  /// all others are returned for the caller to re-execute against the new
  /// snapshot and InstallPinned. Schema epochs pass `delta_is_complete =
  /// false`, forcing a wholesale refresh.
  std::vector<RefreshTask> BeginEpoch(Epoch new_epoch,
                                      const std::vector<Triple>& delta,
                                      bool delta_is_complete);

  /// Installs re-materialized rows for a pinned view (the maintenance path
  /// completing a RefreshTask). Unlike Offer, does not require a fresh
  /// observation and evicts unpinned entries to make room.
  void InstallPinned(const std::string& signature, Relation rows, Epoch epoch);

  /// Removes a view from the catalog entirely (e.g. its re-materialization
  /// failed). No-op for unknown signatures.
  void Drop(const std::string& signature);

  /// Pins or unpins. Pinning removes the entry from the LRU; unpinning a
  /// resident entry re-enters it as most-recently-used (and subject to the
  /// budget again, which may evict it on the next admission). Returns false
  /// for unknown signatures.
  bool SetPinned(const std::string& signature, bool pinned);

  /// Ledger listing, signature-sorted (deterministic for tests and text
  /// surfaces).
  std::vector<ViewInfo> Entries() const;

  ViewCatalogStats stats() const;
  Epoch current_epoch() const;

 private:
  struct Entry {
    UnionQuery definition;  ///< Copied on first NoteComponent.
    std::shared_ptr<const Relation> rows;  ///< Null until admitted.
    Epoch epoch = 0;
    size_t bytes = 0;
    double est_cost = 0.0;
    size_t union_terms = 0;
    uint64_t observations = 0;
    uint64_t hits = 0;
    uint64_t last_note_seq = 0;  ///< Recency for ledger eviction.
    bool pinned = false;
    /// Position in lru_; valid iff resident and unpinned.
    std::list<std::string>::iterator lru_it;
  };

  /// Drops `entry`'s materialization (rows + LRU membership + bytes).
  /// `counted_as` names the counter bucket: eviction vs invalidation.
  void DropRowsLocked(Entry* entry, uint64_t* counter);
  /// Evicts LRU-coldest unpinned entries until `needed` more bytes fit
  /// under the budget; returns false if they cannot (pinned residue).
  bool MakeRoomLocked(size_t needed);
  /// Admits `rows` into `entry` (budget already reserved by the caller).
  void AdmitLocked(const std::string& signature, Entry* entry,
                   std::shared_ptr<const Relation> rows, size_t bytes,
                   Epoch epoch);
  void BoundLedgerLocked();
  void ExportGaugesLocked();

  const ViewCatalogOptions options_;

  mutable std::mutex mu_;
  std::unordered_map<std::string, Entry> ledger_;
  /// Resident unpinned signatures, most-recently-used first.
  std::list<std::string> lru_;
  Epoch epoch_ = 0;
  size_t bytes_ = 0;
  uint64_t note_seq_ = 0;
  ViewCatalogStats counters_;
};

/// Per-request ViewResolver adapter binding the catalog to the epoch of the
/// snapshot the request pinned at admission. Stack-allocated next to the
/// request's Evaluator; this is what makes the off-by-one epoch race
/// testable and safe — a request that outlives an update keeps offering
/// under its old epoch and the catalog's write guard rejects it.
class EpochViewResolver : public ViewResolver {
 public:
  EpochViewResolver(ViewCatalog* catalog, Epoch epoch)
      : catalog_(catalog), epoch_(epoch) {}

  void NoteComponent(const std::string& signature, const UnionQuery& ucq,
                     double est_cost, size_t union_terms) override {
    catalog_->NoteComponent(signature, ucq, est_cost, union_terms);
  }
  std::shared_ptr<const Relation> Lookup(
      const std::string& signature) override {
    return catalog_->Lookup(signature, epoch_);
  }
  void Offer(const std::string& signature, const Relation& rows) override {
    catalog_->Offer(signature, rows, epoch_);
  }

 private:
  ViewCatalog* const catalog_;
  const Epoch epoch_;
};

}  // namespace rdfopt

#endif  // RDFOPT_VIEWS_VIEW_CATALOG_H_
