#include "universal/combining.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace llsc {

namespace {

std::uint64_t toggle_word_value(const Value& v) {
  if (v.is_nil()) return 0;
  LLSC_CHECK(v.holds_u64(), "toggle register holds a non-u64");
  const std::uint64_t word = v.as_u64();
  LLSC_CHECK(word <= kInlineMaxU64, "toggle word exceeds the inline budget");
  return word;
}

}  // namespace

bool CombinedState::operator==(const CombinedState& rhs) const {
  if (applied_seq != rhs.applied_seq || responses != rhs.responses ||
      applied_toggles != rhs.applied_toggles) {
    return false;
  }
  if (object == rhs.object) return true;
  if (object == nullptr || rhs.object == nullptr) return false;
  return object->state_fingerprint() == rhs.object->state_fingerprint();
}

std::string CombinedState::to_string() const {
  std::uint64_t applied = 0;
  for (const std::uint64_t s : applied_seq) applied += s;
  return "combined{" + (object ? object->state_fingerprint() : "?") + ", " +
         std::to_string(applied) + " applied}";
}

std::size_t CombinedState::hash() const {
  std::size_t h =
      object ? std::hash<std::string>{}(object->state_fingerprint()) : 0;
  for (const std::uint64_t s : applied_seq) h = mix64(h ^ s);
  for (const Value& v : responses) h = mix64(h ^ v.hash());
  for (const std::uint64_t w : applied_toggles) h = mix64(h ^ w);
  return h;
}

CombiningUniversal::CombiningUniversal(int n, ObjectFactory factory,
                                       RegId base, CombiningOptions options)
    : n_(n),
      factory_(std::move(factory)),
      base_(base),
      options_(options) {
  LLSC_EXPECTS(n >= 1, "need at least one process");
  LLSC_EXPECTS(factory_ != nullptr, "need an object factory");
  LLSC_EXPECTS(options_.fixed_attempts >= 0, "negative attempt bound");
  next_seq_.assign(static_cast<std::size_t>(n), 0);
  pools_.resize(static_cast<std::size_t>(n));
}

std::vector<RegisterGroup> CombiningUniversal::register_groups() const {
  const RegId toggles = toggle_reg(0);
  const RegId announces = announce_reg(0);
  return {
      RegisterGroup{.label = "state", .lo = state_reg(), .hi = toggles},
      RegisterGroup{.label = "toggle", .lo = toggles, .hi = announces},
      RegisterGroup{.label = "announce",
                    .lo = announces,
                    .hi = base_ + register_span()},
  };
}

std::uint64_t CombiningUniversal::worst_case_shared_ops() const {
  // One outstanding op per process (the E2 shape): announce (1) + toggle
  // flip (each of the ≤ min(n,46)−1 same-word contenders fails my SC at
  // most once, 2 ops per try) + two full combine attempts of
  // LL + ⌈n/46⌉ toggle reads + ≤ n announce reads + SC each + the
  // adopting LL. Like DirectFetchAdd, the multi-outstanding-op worst case
  // is unbounded (lock-free).
  const std::uint64_t n = static_cast<std::uint64_t>(n_);
  const std::uint64_t w = static_cast<std::uint64_t>(toggle_words());
  const std::uint64_t flip =
      2 * std::min(n, static_cast<std::uint64_t>(kToggleBitsPerWord));
  return 1 + flip + 2 * (n + w + 2) + 1;
}

CombinedState CombiningUniversal::initial_state() const {
  CombinedState st;
  st.object = factory_();
  st.applied_seq.assign(static_cast<std::size_t>(n_), 0);
  st.responses.assign(static_cast<std::size_t>(n_), Value{});
  st.applied_toggles.assign(static_cast<std::size_t>(toggle_words()), 0);
  return st;
}

const CombinedState* CombiningUniversal::as_state(const Value& v) const {
  if (v.is_nil()) return nullptr;
  const CombinedStateRef* ref = v.get_if<CombinedStateRef>();
  LLSC_CHECK(ref != nullptr && ref->state != nullptr,
             "state register holds a non-CombinedStateRef");
  return ref->state.get();
}

std::shared_ptr<CombinedState> CombiningUniversal::acquire_slot(ProcId p) {
  Pool& pool = pools_[static_cast<std::size_t>(p)];
  for (std::shared_ptr<CombinedState>& slot : pool.slots) {
    // use_count()==1 means the pool holds the only reference: the state
    // was either never installed or every register/reader reference has
    // been dropped, so the owner may mutate it in place.
    if (slot.use_count() == 1) return slot;
  }
  // Plain new (not make_shared): CombinedState is over-aligned to a cache
  // line and aligned operator new guarantees the padding.
  std::shared_ptr<CombinedState> fresh(new CombinedState());
  pool.slots.push_back(fresh);
  return fresh;
}

SubTask<Value> CombiningUniversal::execute(ProcCtx ctx, ObjOp op) {
  const ProcId p = ctx.id();
  LLSC_EXPECTS(p >= 0 && p < n_, "caller outside this construction");
  return execute_as(ctx, p, ++next_seq_[static_cast<std::size_t>(p)],
                    std::move(op));
}

SubTask<Value> CombiningUniversal::execute_as(ProcCtx ctx, ProcId p,
                                              std::uint64_t seq, ObjOp op) {
  LLSC_EXPECTS(p >= 0 && p < n_, "caller outside this construction");
  LLSC_EXPECTS(seq >= 1, "announce sequence numbers start at 1");
  const std::size_t sp = static_cast<std::size_t>(p);
  const int W = toggle_words();
  const int my_word = p / kToggleBitsPerWord;
  const std::uint64_t my_bit = std::uint64_t{1}
                               << (p % kToggleBitsPerWord);

  // 1. Announce (single writer: one swap). Sequence numbers start at 1 so
  // applied_seq == 0 always means "nothing applied yet".
  {
    // Hoisted: braced temporaries may not appear in co_await expressions
    // (GCC 12 workaround; see runtime/sub_task.h).
    Value cell = Value::of(CombineCell{.id = {.proc = p, .seq = seq},
                                       .op = std::move(op)});
    co_await ctx.swap(announce_reg(p), std::move(cell));
  }

  // 2. Flip my toggle bit. Strict mode retries until the SC lands (each
  // failure is another process completing its own flip on this word, or
  // an injected fault); fixed mode spends exactly one best-effort LL+SC —
  // its full announce scan compensates, pending detection never depends
  // on the flip.
  for (;;) {
    const Value cur = co_await ctx.ll(toggle_reg(my_word));
    Value flipped = Value::of_u64(toggle_word_value(cur) ^ my_bit);
    const ScResult flip = co_await ctx.sc(toggle_reg(my_word),
                                          std::move(flipped));
    if (flip.ok || options_.fixed_attempts > 0) break;
  }

  // 3. Combine until my response is published (strict), or for exactly
  // fixed_attempts full passes (fixed shape).
  for (int attempt = 0;
       options_.fixed_attempts == 0 || attempt < options_.fixed_attempts;
       ++attempt) {
    const Value cur = co_await ctx.ll(state_reg());
    const CombinedState* st = as_state(cur);
    if (options_.fixed_attempts == 0 && st != nullptr &&
        st->applied_seq[sp] >= seq) {
      // A helper already installed my operation; adopt its response.
      adopted_.fetch_add(1, std::memory_order_relaxed);
      co_return st->responses[sp];
    }

    // Snapshot the toggle words (AFTER the LL: the two-attempt helping
    // argument needs any later successful installer to have seen my flip).
    std::vector<std::uint64_t> snapshot(static_cast<std::size_t>(W));
    for (int w = 0; w < W; ++w) {
      const Value t = co_await ctx.read(toggle_reg(w));
      snapshot[static_cast<std::size_t>(w)] = toggle_word_value(t);
    }

    // Collect the pending announcements: processes whose toggle differs
    // from the value the installed state recorded (or every process in
    // fixed mode), confirmed by sequence number so a stale toggle can never
    // double-apply. My own announce is read unconditionally: an amnesiac
    // restart (hw/fault.h recovery) re-announces and re-flips, and the
    // even number of flips across the crash can cancel out — leaving the
    // toggle-diff predicate blind to my own pending op. Helpers can stay
    // blind to it (a restarted op merely loses the two-install helping
    // guarantee and completes through my own install, still lock-free);
    // my own combine must not be, or a successful install would violate
    // the every-installer-applies-its-own-op invariant below.
    std::vector<std::pair<ProcId, CombineCell>> batch;
    for (ProcId q = 0; q < n_; ++q) {
      const std::size_t sq = static_cast<std::size_t>(q);
      if (options_.fixed_attempts == 0 && q != p) {
        const std::size_t w = sq / kToggleBitsPerWord;
        const std::uint64_t bit = std::uint64_t{1}
                                  << (sq % kToggleBitsPerWord);
        const std::uint64_t installed =
            st == nullptr ? 0 : st->applied_toggles[w];
        if (((snapshot[w] ^ installed) & bit) == 0) continue;
      }
      const Value a = co_await ctx.read(announce_reg(q));
      if (a.is_nil()) continue;
      const CombineCell* cell = a.get_if<CombineCell>();
      LLSC_CHECK(cell != nullptr, "announce register holds a non-CombineCell");
      const std::uint64_t applied = st == nullptr ? 0 : st->applied_seq[sq];
      if (cell->id.seq > applied) batch.emplace_back(q, *cell);
    }

    // Apply the batch to a private copy from the recycled pool, in
    // ascending process order (the deterministic linearization order all
    // combiners agree on), and try to install state + responses in one SC.
    std::shared_ptr<CombinedState> next = acquire_slot(p);
    if (st != nullptr) {
      *next = *st;
    } else {
      *next = initial_state();
    }
    std::unique_ptr<SequentialObject> obj = next->object->clone();
    for (auto& [q, cell] : batch) {
      const std::size_t sq = static_cast<std::size_t>(q);
      next->responses[sq] = obj->apply(cell.op);
      next->applied_seq[sq] = cell.id.seq;
    }
    next->object = std::move(obj);
    next->applied_toggles = snapshot;

    const bool mine_in_batch = next->applied_seq[sp] >= seq;
    Value mine = mine_in_batch ? next->responses[sp] : Value{};
    Value install = Value::of(
        CombinedStateRef{.state = std::shared_ptr<const CombinedState>(next)});
    const ScResult sc = co_await ctx.sc(state_reg(), std::move(install));
    if (sc.ok) {
      installs_.fetch_add(1, std::memory_order_relaxed);
      ops_applied_.fetch_add(batch.size(), std::memory_order_relaxed);
      if (options_.fixed_attempts == 0) {
        LLSC_CHECK(mine_in_batch,
                   "combining: my announced op missing from my own batch");
        co_return mine;
      }
    }
  }

  // Fixed shape only: one final read. The op may not have been applied
  // within the attempt budget — callers of fixed mode (the differential
  // sweep) accept nil for "not yet applied".
  const Value final_val = co_await ctx.read(state_reg());
  const CombinedState* final_st = as_state(final_val);
  if (final_st != nullptr && final_st->applied_seq[sp] >= seq) {
    co_return final_st->responses[sp];
  }
  co_return Value{};
}

}  // namespace llsc
