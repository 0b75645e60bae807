#include "engine/operators.h"

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "common/check.h"

namespace rdfopt {

namespace {

// The distinct variables of `atom` in first-occurrence s,p,o order, plus for
// each of the three positions the output column it maps to (-1 = constant).
struct AtomShape {
  std::vector<VarId> columns;
  int pos_to_col[3] = {-1, -1, -1};
};

AtomShape ShapeOf(const TriplePattern& atom) {
  AtomShape shape;
  const PatternTerm* terms[3] = {&atom.s, &atom.p, &atom.o};
  for (int i = 0; i < 3; ++i) {
    if (!terms[i]->is_var()) continue;
    VarId v = terms[i]->var();
    int existing = -1;
    for (size_t c = 0; c < shape.columns.size(); ++c) {
      if (shape.columns[c] == v) existing = static_cast<int>(c);
    }
    if (existing < 0) {
      shape.columns.push_back(v);
      existing = static_cast<int>(shape.columns.size()) - 1;
    }
    shape.pos_to_col[i] = existing;
  }
  return shape;
}

ValueId BoundOrAny(const PatternTerm& t) {
  return t.is_var() ? kAnyValue : t.value();
}

uint64_t HashKey(const ValueId* key, size_t arity) {
  uint64_t h = 0xCBF29CE484222325ull;
  for (size_t k = 0; k < arity; ++k) {
    h ^= key[k];
    h *= 0x100000001B3ull;
    h ^= h >> 29;
  }
  return h;
}

bool KeysEqual(const ValueId* a, const ValueId* b, size_t arity) {
  for (size_t k = 0; k < arity; ++k) {
    if (a[k] != b[k]) return false;
  }
  return true;
}

constexpr uint32_t kNoRow = static_cast<uint32_t>(-1);

/// Open-addressing join table over a flattened build-side key arena.
/// Duplicate keys chain through `next_` in build insertion order (head +
/// per-slot tail), so probes replay matches in exactly the order the seed's
/// bucket vectors did — the batch engine must keep output row order
/// bit-identical to the tuple engine.
class JoinTable {
 public:
  JoinTable(const ValueId* keys, const uint64_t* hashes, size_t rows,
            size_t key_arity)
      : keys_(keys), hashes_(hashes), key_arity_(key_arity), next_(rows, kNoRow) {
    size_t cap = 16;
    while (cap < rows * 2) cap <<= 1;
    slots_.assign(cap, 0);
    tails_.assign(cap, kNoRow);
    mask_ = cap - 1;
    for (size_t r = 0; r < rows; ++r) Insert(static_cast<uint32_t>(r));
  }

  /// First build row whose key matches, or kNoRow.
  uint32_t Find(const ValueId* key, uint64_t hash) const {
    size_t i = static_cast<size_t>(hash) & mask_;
    for (;;) {
      const uint32_t slot = slots_[i];
      if (slot == 0) return kNoRow;
      const uint32_t head = slot - 1;
      if (hashes_[head] == hash &&
          KeysEqual(keys_ + static_cast<size_t>(head) * key_arity_, key,
                    key_arity_)) {
        return head;
      }
      i = (i + 1) & mask_;
    }
  }

  /// Next build row with the same key (build insertion order), or kNoRow.
  uint32_t Next(uint32_t row) const { return next_[row]; }

 private:
  void Insert(uint32_t row) {
    const uint64_t hash = hashes_[row];
    size_t i = static_cast<size_t>(hash) & mask_;
    for (;;) {
      const uint32_t slot = slots_[i];
      if (slot == 0) {
        slots_[i] = row + 1;
        tails_[i] = row;
        return;
      }
      const uint32_t head = slot - 1;
      if (hashes_[head] == hash &&
          KeysEqual(keys_ + static_cast<size_t>(head) * key_arity_,
                    keys_ + static_cast<size_t>(row) * key_arity_,
                    key_arity_)) {
        next_[tails_[i]] = row;
        tails_[i] = row;
        return;
      }
      i = (i + 1) & mask_;
    }
  }

  const ValueId* keys_;
  const uint64_t* hashes_;
  size_t key_arity_;
  std::vector<uint32_t> next_;
  std::vector<uint32_t> slots_;
  std::vector<uint32_t> tails_;
  size_t mask_ = 0;
};

}  // namespace

size_t ScanAtomInputSize(const TripleStore& store, const TriplePattern& atom) {
  return store.CountMatches(BoundOrAny(atom.s), BoundOrAny(atom.p),
                            BoundOrAny(atom.o));
}

Relation ScanAtom(const TripleStore& store, const TriplePattern& atom) {
  AtomShape shape = ShapeOf(atom);
  std::span<const Triple> matches = store.Match(
      BoundOrAny(atom.s), BoundOrAny(atom.p), BoundOrAny(atom.o));
  Relation out(shape.columns);
  const size_t arity = out.arity();
  if (arity == 0) {
    // Boolean output: every match contributes one empty row.
    out.AppendUninitialized(matches.size());
    return out;
  }

  int var_positions = 0;
  for (int i = 0; i < 3; ++i) {
    if (shape.pos_to_col[i] >= 0) ++var_positions;
  }
  if (static_cast<size_t>(var_positions) == arity) {
    // No repeated variable: every match qualifies, so the whole scan is one
    // dense batch — a single grow, then straight-line stores.
    ValueId* w = out.AppendUninitialized(matches.size());
    for (const Triple& t : matches) {
      const ValueId values[3] = {t.s, t.p, t.o};
      for (int i = 0; i < 3; ++i) {
        int col = shape.pos_to_col[i];
        if (col >= 0) w[col] = values[i];
      }
      w += arity;
    }
    return out;
  }

  // Repeated-variable filter: stage qualifying rows batch-at-a-time, then
  // bulk-append each full batch.
  std::vector<ValueId> stage(kBatchRows * arity);
  size_t staged = 0;
  for (const Triple& t : matches) {
    const ValueId values[3] = {t.s, t.p, t.o};
    ValueId* row = stage.data() + staged * arity;
    // First write wins; later positions mapping to the same column must
    // agree.
    for (size_t c = 0; c < arity; ++c) row[c] = kInvalidValueId;
    bool consistent = true;
    for (int i = 0; i < 3 && consistent; ++i) {
      int col = shape.pos_to_col[i];
      if (col < 0) continue;
      if (row[col] == kInvalidValueId) {
        row[col] = values[i];
      } else if (row[col] != values[i]) {
        consistent = false;
      }
    }
    if (!consistent) continue;
    if (++staged == kBatchRows) {
      out.AppendBatch(Batch{stage.data(), arity, staged, nullptr, 0});
      staged = 0;
    }
  }
  if (staged > 0) {
    out.AppendBatch(Batch{stage.data(), arity, staged, nullptr, 0});
  }
  return out;
}

Relation HashJoin(const Relation& left, const Relation& right) {
  // Shared columns and the right-only tail of the output schema.
  std::vector<std::pair<int, int>> shared;  // (left col, right col)
  std::vector<int> right_only;
  for (size_t rc = 0; rc < right.columns().size(); ++rc) {
    int lc = left.ColumnIndex(right.columns()[rc]);
    if (lc >= 0) {
      shared.emplace_back(lc, static_cast<int>(rc));
    } else {
      right_only.push_back(static_cast<int>(rc));
    }
  }
  std::vector<VarId> out_columns = left.columns();
  for (int rc : right_only) out_columns.push_back(right.columns()[rc]);
  Relation out(std::move(out_columns));

  const size_t left_arity = left.arity();
  const size_t right_arity = right.arity();
  const size_t out_arity = out.arity();
  const ValueId* lcells = left.cells_data();
  const ValueId* rcells = right.cells_data();

  // Matched (left row, right row) pairs are buffered and flushed one batch
  // at a time: one grow per batch, then straight-line gathers.
  std::vector<uint32_t> pair_l(kBatchRows);
  std::vector<uint32_t> pair_r(kBatchRows);
  size_t pairs = 0;
  auto flush = [&]() {
    if (pairs == 0) return;
    ValueId* w = out.AppendUninitialized(pairs);
    if (out_arity == 0) {  // Boolean join output: rows are just counted.
      pairs = 0;
      return;
    }
    for (size_t i = 0; i < pairs; ++i) {
      const ValueId* lrow = lcells + static_cast<size_t>(pair_l[i]) * left_arity;
      for (size_t c = 0; c < left_arity; ++c) w[c] = lrow[c];
      const ValueId* rrow = rcells + static_cast<size_t>(pair_r[i]) * right_arity;
      for (size_t k = 0; k < right_only.size(); ++k) {
        w[left_arity + k] = rrow[right_only[k]];
      }
      w += out_arity;
    }
    pairs = 0;
  };
  auto emit = [&](size_t li, size_t ri) {
    pair_l[pairs] = static_cast<uint32_t>(li);
    pair_r[pairs] = static_cast<uint32_t>(ri);
    if (++pairs == kBatchRows) flush();
  };

  if (shared.empty()) {
    // Cartesian product (cover queries never need this; plain CQs may).
    out.Reserve(left.num_rows() * right.num_rows());
    for (size_t li = 0; li < left.num_rows(); ++li) {
      for (size_t ri = 0; ri < right.num_rows(); ++ri) emit(li, ri);
    }
    flush();
    return out;
  }

  // Build on the smaller side; swap roles virtually by probing accordingly.
  const bool build_left = left.num_rows() <= right.num_rows();
  const Relation& build = build_left ? left : right;
  const Relation& probe = build_left ? right : left;
  const size_t build_rows = build.num_rows();
  const size_t probe_rows = probe.num_rows();
  const size_t key_arity = shared.size();
  // Most probe rows find a partner in reformulation workloads; the probe
  // side bounds the 1:1 case, so reserve that much up front.
  out.Reserve(probe_rows);

  // Build phase, batch-at-a-time: gather every build key into one flat
  // arena, hash the arena in one pass, then bulk-insert into the chained
  // open-addressing table — no per-row node allocations.
  std::vector<ValueId> build_keys(build_rows * key_arity);
  {
    const ValueId* bcells = build.cells_data();
    const size_t barity = build.arity();
    ValueId* w = build_keys.data();
    for (size_t i = 0; i < build_rows; ++i) {
      const ValueId* row = bcells + i * barity;
      for (size_t k = 0; k < key_arity; ++k) {
        const auto& [lc, rc] = shared[k];
        w[k] = row[build_left ? lc : rc];
      }
      w += key_arity;
    }
  }
  std::vector<uint64_t> build_hashes(build_rows);
  for (size_t i = 0; i < build_rows; ++i) {
    build_hashes[i] = HashKey(build_keys.data() + i * key_arity, key_arity);
  }
  JoinTable table(build_keys.data(), build_hashes.data(), build_rows,
                  key_arity);

  // Probe phase: keys and hashes of each probe chunk are computed up front
  // (one tight loop each), then the chunk is probed.
  const ValueId* pcells = probe.cells_data();
  const size_t parity = probe.arity();
  std::vector<ValueId> probe_keys(kBatchRows * key_arity);
  std::vector<uint64_t> probe_hashes(kBatchRows);
  for (size_t begin = 0; begin < probe_rows; begin += kBatchRows) {
    const size_t n = std::min(kBatchRows, probe_rows - begin);
    ValueId* w = probe_keys.data();
    for (size_t i = 0; i < n; ++i) {
      const ValueId* row = pcells + (begin + i) * parity;
      for (size_t k = 0; k < key_arity; ++k) {
        const auto& [lc, rc] = shared[k];
        w[k] = row[build_left ? rc : lc];
      }
      w += key_arity;
    }
    for (size_t i = 0; i < n; ++i) {
      probe_hashes[i] = HashKey(probe_keys.data() + i * key_arity, key_arity);
    }
    for (size_t i = 0; i < n; ++i) {
      uint32_t bi = table.Find(probe_keys.data() + i * key_arity,
                               probe_hashes[i]);
      const size_t pi = begin + i;
      for (; bi != kNoRow; bi = table.Next(bi)) {
        emit(build_left ? bi : pi, build_left ? pi : bi);
      }
    }
  }
  flush();
  return out;
}

Relation IndexJoinAtom(const TripleStore& store, const Relation& left,
                       const TriplePattern& atom, size_t* rows_probed) {
  // Classify the atom's positions: bound by a left column, a fresh output
  // variable, or a constant.
  const PatternTerm* terms[3] = {&atom.s, &atom.p, &atom.o};
  int left_col[3] = {-1, -1, -1};   // Column of `left` binding position i.
  int out_col[3] = {-1, -1, -1};    // Output column the position fills.
  std::vector<VarId> new_vars;
  for (int i = 0; i < 3; ++i) {
    if (!terms[i]->is_var()) continue;
    VarId v = terms[i]->var();
    left_col[i] = left.ColumnIndex(v);
    if (left_col[i] >= 0) continue;
    int existing = -1;
    for (size_t c = 0; c < new_vars.size(); ++c) {
      if (new_vars[c] == v) existing = static_cast<int>(c);
    }
    if (existing < 0) {
      new_vars.push_back(v);
      existing = static_cast<int>(new_vars.size()) - 1;
    }
    out_col[i] = existing;
  }

  std::vector<VarId> columns = left.columns();
  columns.insert(columns.end(), new_vars.begin(), new_vars.end());
  Relation out(std::move(columns));
  const size_t left_arity = left.arity();
  const size_t out_arity = out.arity();
  const size_t num_new = new_vars.size();

  // Output rows are staged into a batch buffer and bulk-appended — the index
  // probes stay per-left-row (that is the operator), but the emit path is
  // batched like every other operator's.
  std::vector<ValueId> stage(std::max<size_t>(1, kBatchRows * out_arity));
  size_t staged = 0;
  auto flush = [&]() {
    if (staged == 0) return;
    out.AppendBatch(Batch{stage.data(), out_arity, staged, nullptr, 0});
    staged = 0;
  };

  size_t probed = 0;
  std::vector<ValueId> new_values(num_new);
  for (size_t r = 0; r < left.num_rows(); ++r) {
    ValueId bound[3];
    for (int i = 0; i < 3; ++i) {
      if (!terms[i]->is_var()) {
        bound[i] = terms[i]->value();
      } else if (left_col[i] >= 0) {
        bound[i] = left.at(r, static_cast<size_t>(left_col[i]));
      } else {
        bound[i] = kAnyValue;
      }
    }
    std::span<const Triple> matches = store.Match(bound[0], bound[1],
                                                  bound[2]);
    probed += matches.size();
    if (matches.empty()) continue;
    for (const Triple& t : matches) {
      const ValueId values[3] = {t.s, t.p, t.o};
      bool consistent = true;
      for (size_t c = 0; c < num_new; ++c) new_values[c] = kInvalidValueId;
      for (int i = 0; i < 3 && consistent; ++i) {
        if (out_col[i] < 0) continue;
        ValueId& slot = new_values[static_cast<size_t>(out_col[i])];
        if (slot == kInvalidValueId) {
          slot = values[i];
        } else if (slot != values[i]) {
          consistent = false;  // Repeated fresh variable mismatch.
        }
      }
      if (!consistent) continue;
      if (out_arity == 0) {
        out.AppendEmptyRow();
        continue;
      }
      ValueId* row = stage.data() + staged * out_arity;
      for (size_t c = 0; c < left_arity; ++c) row[c] = left.at(r, c);
      for (size_t c = 0; c < num_new; ++c) row[left_arity + c] = new_values[c];
      if (++staged == kBatchRows) flush();
    }
  }
  flush();
  if (rows_probed != nullptr) *rows_probed += probed;
  return out;
}

namespace {

/// Shared batched projection core: resolves each head position to a source
/// column of `input` or a constant from `bindings`, then appends every input
/// row in one grow + column-at-a-time stores.
void ProjectAppend(Relation* out, const Relation& input,
                   const std::vector<std::pair<VarId, ValueId>>& bindings) {
  const std::vector<VarId>& head = out->columns();
  const size_t rows = input.num_rows();
  if (head.empty()) {
    out->AppendUninitialized(rows);  // Boolean head: rows are just counted.
    return;
  }
  const size_t out_arity = head.size();
  std::vector<int> source(out_arity, -1);
  std::vector<ValueId> constant(out_arity, kInvalidValueId);
  for (size_t i = 0; i < out_arity; ++i) {
    source[i] = input.ColumnIndex(head[i]);
    if (source[i] < 0) {
      for (const auto& [v, c] : bindings) {
        if (v == head[i]) constant[i] = c;
      }
      RDFOPT_CHECK(constant[i] != kInvalidValueId)
          << "head variable neither bound by the relation nor by bindings";
    }
  }
  ValueId* w = out->AppendUninitialized(rows);
  const ValueId* in = input.cells_data();
  const size_t in_arity = input.arity();
  for (size_t i = 0; i < out_arity; ++i) {
    if (source[i] >= 0) {
      const ValueId* src = in + static_cast<size_t>(source[i]);
      ValueId* dst = w + i;
      for (size_t r = 0; r < rows; ++r) {
        *dst = *src;
        src += in_arity;
        dst += out_arity;
      }
    } else {
      const ValueId c = constant[i];
      ValueId* dst = w + i;
      for (size_t r = 0; r < rows; ++r) {
        *dst = c;
        dst += out_arity;
      }
    }
  }
}

}  // namespace

Relation ProjectWithBindings(
    const Relation& input, const std::vector<VarId>& head,
    const std::vector<std::pair<VarId, ValueId>>& bindings) {
  Relation out{std::vector<VarId>(head)};
  ProjectAppend(&out, input, bindings);
  return out;
}

void ProjectInto(Relation* acc, const Relation& input,
                 const std::vector<std::pair<VarId, ValueId>>& bindings) {
  ProjectAppend(acc, input, bindings);
}

}  // namespace rdfopt
