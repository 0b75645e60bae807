#include "storage/triple_store.h"

#include <algorithm>

namespace rdfopt {

namespace {
constexpr ValueId kLo = 0;
constexpr ValueId kHi = kInvalidValueId;  // Max uint32: above every real id.
}  // namespace

TripleStore TripleStore::Build(std::vector<Triple> triples) {
  TripleStore store;
  std::sort(triples.begin(), triples.end(), OrderSpo());
  triples.erase(std::unique(triples.begin(), triples.end()), triples.end());
  store.spo_ = std::move(triples);
  store.pso_ = store.spo_;
  std::sort(store.pso_.begin(), store.pso_.end(), OrderPso());
  store.pos_ = store.pso_;
  // PSO and POS share the primary p key; a stable per-p resort would also
  // work, but a full sort keeps the code simple.
  std::sort(store.pos_.begin(), store.pos_.end(), OrderPos());
  store.osp_ = store.spo_;
  std::sort(store.osp_.begin(), store.osp_.end(), OrderOsp());

  for (const Triple& t : store.pso_) {
    if (store.properties_.empty() || store.properties_.back() != t.p) {
      store.properties_.push_back(t.p);
    }
  }
  return store;
}

namespace {

template <typename Order>
std::vector<Triple> MergeSorted(const std::vector<Triple>& a,
                                const std::vector<Triple>& b) {
  std::vector<Triple> out;
  out.reserve(a.size() + b.size());
  std::merge(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out),
             Order());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace

TripleStore TripleStore::Merge(const TripleStore& a, const TripleStore& b) {
  TripleStore store;
  store.spo_ = MergeSorted<OrderSpo>(a.spo_, b.spo_);
  store.pso_ = MergeSorted<OrderPso>(a.pso_, b.pso_);
  store.pos_ = MergeSorted<OrderPos>(a.pos_, b.pos_);
  store.osp_ = MergeSorted<OrderOsp>(a.osp_, b.osp_);
  std::merge(a.properties_.begin(), a.properties_.end(),
             b.properties_.begin(), b.properties_.end(),
             std::back_inserter(store.properties_));
  store.properties_.erase(
      std::unique(store.properties_.begin(), store.properties_.end()),
      store.properties_.end());
  return store;
}

template <typename Order>
std::span<const Triple> TripleStore::PrefixRange(
    const std::vector<Triple>& index, Triple lo, Triple hi) const {
  auto begin = std::lower_bound(index.begin(), index.end(), lo, Order());
  auto end = std::upper_bound(begin, index.end(), hi, Order());
  return {index.data() + (begin - index.begin()),
          static_cast<size_t>(end - begin)};
}

std::span<const Triple> TripleStore::Match(ValueId s, ValueId p,
                                           ValueId o) const {
  const bool bs = s != kAnyValue;
  const bool bp = p != kAnyValue;
  const bool bo = o != kAnyValue;

  if (bs) {
    if (bp) {
      // (s,p,*) and (s,p,o): SPO prefix.
      return PrefixRange<OrderSpo>(spo_, {s, p, bo ? o : kLo},
                                   {s, p, bo ? o : kHi});
    }
    if (bo) {
      // (s,*,o): OSP prefix on (o,s).
      return PrefixRange<OrderOsp>(osp_, {s, kLo, o}, {s, kHi, o});
    }
    // (s,*,*): SPO prefix on s.
    return PrefixRange<OrderSpo>(spo_, {s, kLo, kLo}, {s, kHi, kHi});
  }
  if (bp) {
    if (bo) {
      // (*,p,o): POS prefix on (p,o).
      return PrefixRange<OrderPos>(pos_, {kLo, p, o}, {kHi, p, o});
    }
    // (*,p,*): PSO prefix on p.
    return PrefixRange<OrderPso>(pso_, {kLo, p, kLo}, {kHi, p, kHi});
  }
  if (bo) {
    // (*,*,o): OSP prefix on o.
    return PrefixRange<OrderOsp>(osp_, {kLo, kLo, o}, {kHi, kHi, o});
  }
  return {spo_.data(), spo_.size()};
}

size_t TripleStore::CountDistinctSubjectsOfProperty(ValueId p) const {
  std::span<const Triple> range = Match(kAnyValue, p, kAnyValue);  // PSO order
  size_t count = 0;
  ValueId prev = kInvalidValueId;
  for (const Triple& t : range) {
    if (t.s != prev) {
      ++count;
      prev = t.s;
    }
  }
  return count;
}

size_t TripleStore::CountDistinctObjectsOfProperty(ValueId p) const {
  // POS order: objects are contiguous within the p prefix.
  std::span<const Triple> range =
      PrefixRange<OrderPos>(pos_, {kLo, p, kLo}, {kHi, p, kHi});
  size_t count = 0;
  ValueId prev = kInvalidValueId;
  for (const Triple& t : range) {
    if (t.o != prev) {
      ++count;
      prev = t.o;
    }
  }
  return count;
}

}  // namespace rdfopt
