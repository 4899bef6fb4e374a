#include "hw/register_storage.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace llsc {

RegisterStorage::RegisterStorage(StoragePolicy policy,
                                 std::size_t num_registers, int num_threads,
                                 const BackoffOptions& backoff,
                                 ReclaimPolicy reclaim, int reclaim_slots)
    : policy_(policy),
      regs_(num_registers),
      waiter_(backoff.waiter != nullptr ? backoff.waiter
                                        : &Waiter::system()),
      reclaimer_(make_reclaimer(
          reclaim, reclaim_slots > 0 ? reclaim_slots : num_threads)) {
  // A Node* must leave bit 0 clear for the inline-word discriminator.
  static_assert(alignof(Node) >= 2);
  LLSC_EXPECTS(num_registers >= 1, "need at least one register");
  LLSC_EXPECTS(num_threads >= 1, "need at least one thread slot");
  ctxs_.reserve(static_cast<std::size_t>(num_threads));
  for (int t = 0; t < num_threads; ++t) {
    auto c = std::make_unique<ThreadCtx>();
    c->link.assign(num_registers, 0);
    c->backoff = Backoff(backoff);
    ctxs_.push_back(std::move(c));
  }
  // Registers start as nil: a plain nil node each under kBoxed, so an
  // operation never sees a null head (initial nodes predate all operations
  // and are charged to no thread's allocation counter); an inline (nil,
  // tag 1) word otherwise — no allocation at all until a value overflows.
  for (auto& r : regs_) {
    r.word.store(policy_ == StoragePolicy::kBoxed
                     ? from_node(new Node{Value{}, kFirstNodeVersion})
                     : encode_inline(Value{}, 1),
                 std::memory_order_relaxed);
  }
}

RegisterStorage::~RegisterStorage() {
  // Quiescent teardown: free live boxed heads here; the Reclaimer's
  // destructor frees everything still on its retired lists.
  for (auto& r : regs_) {
    const std::uint64_t w = r.word.load(std::memory_order_relaxed);
    if (w != 0 && is_node_word(w)) delete as_node(w);
  }
}

RegisterStorage::ThreadCtx& RegisterStorage::ctx(ProcId p) {
  LLSC_EXPECTS(p >= 0 && static_cast<std::size_t>(p) < ctxs_.size(),
               "process id outside this memory's thread slots");
  return *ctxs_[static_cast<std::size_t>(p)];
}

void RegisterStorage::invalidate_links(ProcId p) {
  // Owner-thread private data (see header): a zero link word means "no
  // live link", so every SC/VL of the new incarnation fails until it LLs.
  ThreadCtx& c = ctx(p);
  std::fill(c.link.begin(), c.link.end(), 0);
  // The dead incarnation's reclamation protections die with it: its guard
  // already unwound during the crash, so this reset is idempotent, but a
  // restart must never inherit a protection (or pinned epoch) it did not
  // take itself.
  reclaimer_->release(reclaimer_->slot_of(p));
}

std::atomic<std::uint64_t>& RegisterStorage::word(RegId r) {
  LLSC_EXPECTS(r < regs_.size(),
               "register id outside this memory's fixed table");
  return regs_[static_cast<std::size_t>(r)].word;
}

const std::atomic<std::uint64_t>& RegisterStorage::word(RegId r) const {
  LLSC_EXPECTS(r < regs_.size(),
               "register id outside this memory's fixed table");
  return regs_[static_cast<std::size_t>(r)].word;
}

RegisterStorage::Node* RegisterStorage::make_node(ThreadCtx& c, Value v,
                                                  std::uint64_t version) {
  ++c.allocated;
  return new Node{std::move(v), version};
}

void RegisterStorage::wake_waiters(ThreadCtx& c, RegId r) {
  ParkSpot& spot = regs_[static_cast<std::size_t>(r)].park;
  if (spot.waiters.load(std::memory_order_seq_cst) == 0) return;
  spot.seq.fetch_add(1, std::memory_order_seq_cst);
  waiter_->wake_all(spot.seq);
  ++c.wakes;
}

void RegisterStorage::note_install(ThreadCtx& c, std::size_t encoded_bits,
                                   bool inline_install) {
  ++c.writes_inspected;
  if (encoded_bits > c.max_bits) c.max_bits = encoded_bits;
  if (inline_install) {
    ++c.inline_installs;
  } else {
    ++c.boxed_installs;
  }
}

bool RegisterStorage::peek_link_live(RegId r, ProcId p) const {
  const ThreadCtx& c = *ctxs_[static_cast<std::size_t>(p)];
  const std::uint64_t linked = c.link[static_cast<std::size_t>(r)];
  return linked != 0 &&
         link_of(word(r).load(std::memory_order_acquire)) == linked;
}

ReclaimStats RegisterStorage::reclaim_stats() const {
  ReclaimStats s = reclaimer_->stats();
  for (const auto& c : ctxs_) {
    s.nodes_allocated += c->allocated;
  }
  return s;
}

HwBackoffStats RegisterStorage::backoff_stats() const {
  HwBackoffStats s;
  for (const auto& c : ctxs_) {
    const BackoffStats& b = c->backoff.stats();
    s.cas_failures += b.cas_failures;
    s.cas_successes += b.cas_successes;
    s.spin_pauses += b.spin_pauses;
    s.yields += b.yields;
    s.parks += b.parks;
    s.park_skips += b.park_skips;
    s.wakes += c->wakes;
  }
  return s;
}

RegisterWidthStats RegisterStorage::width_stats() const {
  RegisterWidthStats s;
  s.policy = policy_;
  for (const auto& c : ctxs_) {
    s.writes_inspected += c->writes_inspected;
    if (c->max_bits > s.max_bits) s.max_bits = c->max_bits;
    s.overflow_events += c->overflow_events;
    s.inline_installs += c->inline_installs;
    s.boxed_installs += c->boxed_installs;
  }
  // Under kBoxed every register holds a node from the start; nothing was
  // demoted.
  if (policy_ == StoragePolicy::kBoxed) return s;
  // Demotion is sticky, so the demoted-register count is exactly the
  // number of words currently holding a node (quiescent read).
  std::vector<RegId> demoted;
  for (std::size_t r = 0; r < regs_.size(); ++r) {
    if (is_node_word(regs_[r].word.load(std::memory_order_acquire))) {
      ++s.boxed_fallback_registers;
      demoted.push_back(static_cast<RegId>(r));
    }
  }
  attribute_boxed_fallbacks(register_groups(), demoted, s);
  return s;
}

RegisterStorage::Placement RegisterStorage::place(RegId r,
                                                  const Value& v) const {
  if (policy_ == StoragePolicy::kBoxed) {
    return {.fits = false, .overflow = false};
  }
  if (value_fits_inline(v)) return {.fits = true, .overflow = false};
  if (policy_ == StoragePolicy::kInlineStrict) throw_overflow(r, v);
  return {.fits = false, .overflow = true};
}

void RegisterStorage::throw_overflow(RegId r, const Value& v) {
  throw RegisterOverflowError(
      "register " + std::to_string(r) + ": value " + v.to_string() +
      " does not fit in a 64-bit inline register word (strict policy)");
}

Value RegisterStorage::take_replaced(Reclaimer::Guard& g, std::uint64_t w) {
  if (!is_node_word(w)) return decode_inline(w);
  Value prev = as_node(w)->value;
  g.retire(as_node(w));
  return prev;
}

inline std::uint64_t RegisterStorage::successor(ThreadCtx& c,
                                                std::uint64_t cur, Value&& v,
                                                bool inline_install,
                                                Node*& fresh) {
  if (inline_install) {
    return encode_inline(v, next_inline_tag(inline_tag(cur)));
  }
  fresh = make_node(c, std::move(v), next_version(cur));
  return from_node(fresh);
}

inline void RegisterStorage::discard(ThreadCtx& c, Node* fresh) {
  if (fresh == nullptr) return;
  delete fresh;
  --c.allocated;
}

// --- operations ----------------------------------------------------------

Value RegisterStorage::ll(ProcId p, RegId r) {
  ThreadCtx& c = ctx(p);
  Reclaimer::Guard g(*reclaimer_, p);
  const std::uint64_t cur = g.acquire(word(r));
  c.link[static_cast<std::size_t>(r)] = link_of(cur);
  return value_of(cur);
}

OpResult RegisterStorage::sc(ProcId p, RegId r, Value v) {
  ThreadCtx& c = ctx(p);
  Reclaimer::Guard g(*reclaimer_, p);
  // The link dies on this SC no matter what (paper: a successful SC
  // clears the whole Pset including the writer; a failed SC means the
  // link was already dead).
  const std::uint64_t linked =
      std::exchange(c.link[static_cast<std::size_t>(r)], 0);
  std::atomic<std::uint64_t>& h = word(r);
  std::uint64_t cur = g.acquire(h);
  if (linked == 0 || link_of(cur) != linked) {
    return OpResult{.flag = false, .value = value_of(cur)};
  }
  // Placed only after the link check, so a failed SC never faults.
  const Placement at = place(r, v);
  const bool inline_install = !is_node_word(cur) && at.fits;
  const std::size_t bits = v.encoded_bits();
  Node* fresh = nullptr;
  const std::uint64_t desired =
      successor(c, cur, std::move(v), inline_install, fresh);
  if (h.compare_exchange_strong(cur, desired, std::memory_order_acq_rel,
                                std::memory_order_acquire)) {
    Value prev = take_replaced(g, cur);
    // A successful SC changes the head, so installers parked on r can
    // make progress again.
    wake_waiters(c, r);
    if (at.overflow) ++c.overflow_events;
    note_install(c, bits, inline_install);
    return OpResult{.flag = true, .value = std::move(prev)};
  }
  // Lost the race: a concurrent write invalidated the link between our
  // load and the CAS. `cur` was reloaded by the failed CAS; confirm
  // re-protects it (a no-op under epochs) so reporting its value is safe.
  discard(c, fresh);
  cur = g.confirm(h, cur);
  return OpResult{.flag = false, .value = value_of(cur)};
}

OpResult RegisterStorage::validate(ProcId p, RegId r) {
  ThreadCtx& c = ctx(p);
  Reclaimer::Guard g(*reclaimer_, p);
  const std::uint64_t cur = g.acquire(word(r));
  const std::uint64_t linked = c.link[static_cast<std::size_t>(r)];
  return OpResult{.flag = linked != 0 && link_of(cur) == linked,
                  .value = value_of(cur)};
}

Value RegisterStorage::install(Reclaimer::Guard& g, ThreadCtx& c, RegId r,
                               Value v) {
  const Placement at = place(r, v);
  const std::size_t bits = v.encoded_bits();
  std::atomic<std::uint64_t>& h = word(r);
  ParkSpot& spot = regs_[static_cast<std::size_t>(r)].park;
  // A value that may not be written inline always takes the node path:
  // allocate before the first load, keeping the load-to-CAS window short.
  // Otherwise the node is allocated only if the register turns out to be
  // demoted.
  Node* fresh = at.fits ? nullptr : make_node(c, std::move(v), 0);
  std::uint64_t cur = g.acquire(h);
  c.backoff.begin_op();
  Value prev;
  for (;;) {
    if (!is_node_word(cur) && at.fits) {
      const std::uint64_t next =
          encode_inline(v, next_inline_tag(inline_tag(cur)));
      if (h.compare_exchange_weak(cur, next, std::memory_order_acq_rel,
                                  std::memory_order_acquire)) {
        prev = decode_inline(cur);
        break;
      }
    } else {
      // Demotion is sticky, so once the node path is taken every retry
      // takes it too and `v` is no longer needed here.
      if (fresh == nullptr) fresh = make_node(c, std::move(v), 0);
      fresh->version = next_version(cur);
      if (h.compare_exchange_weak(cur, from_node(fresh),
                                  std::memory_order_acq_rel,
                                  std::memory_order_acquire)) {
        prev = take_replaced(g, cur);
        break;
      }
    }
    c.backoff.on_failure(&spot, &h, cur);
    cur = g.confirm(h, cur);
  }
  c.backoff.on_success();
  wake_waiters(c, r);
  if (at.overflow) ++c.overflow_events;
  note_install(c, bits, /*inline_install=*/fresh == nullptr);
  return prev;
}

Value RegisterStorage::swap(ProcId p, RegId r, Value v) {
  ThreadCtx& c = ctx(p);
  Reclaimer::Guard g(*reclaimer_, p);
  Value prev = install(g, c, r, std::move(v));
  // The install cleared r's Pset; the writer's own link dies with it.
  c.link[static_cast<std::size_t>(r)] = 0;
  return prev;
}

void RegisterStorage::move(ProcId p, RegId src, RegId dst) {
  LLSC_EXPECTS(src != dst, "move(R, R) is excluded from the model");
  ThreadCtx& c = ctx(p);
  Reclaimer::Guard g(*reclaimer_, p);
  // Two linearization points (read src, install into dst) where the
  // paper's move is one step — see docs/hw_backend.md §relaxations.
  (void)install(g, c, dst, value_of(g.acquire(word(src))));
  c.link[static_cast<std::size_t>(dst)] = 0;
}

Value RegisterStorage::rmw(ProcId p, RegId r, const RmwFunction& f) {
  ThreadCtx& c = ctx(p);
  Reclaimer::Guard g(*reclaimer_, p);
  std::atomic<std::uint64_t>& h = word(r);
  ParkSpot& spot = regs_[static_cast<std::size_t>(r)].park;
  c.backoff.begin_op();
  for (;;) {
    // A fresh load every attempt: after a backoff wait, the word the
    // failed CAS handed back is likely stale on a contended register, and
    // retrying against it only feeds the backoff another failure.
    std::uint64_t cur = g.acquire(h);
    Value curv = value_of(cur);
    Value next = f.apply(curv);
    const Placement at = place(r, next);
    const bool inline_install = !is_node_word(cur) && at.fits;
    const std::size_t bits = next.encoded_bits();
    Node* fresh = nullptr;
    const std::uint64_t desired =
        successor(c, cur, std::move(next), inline_install, fresh);
    if (h.compare_exchange_strong(cur, desired, std::memory_order_acq_rel,
                                  std::memory_order_acquire)) {
      c.backoff.on_success();
      wake_waiters(c, r);
      if (is_node_word(cur)) g.retire(as_node(cur));
      if (at.overflow) ++c.overflow_events;
      note_install(c, bits, inline_install);
      c.link[static_cast<std::size_t>(r)] = 0;
      return curv;
    }
    discard(c, fresh);
    c.backoff.on_failure(&spot, &h, cur);
  }
}

Value RegisterStorage::peek_value(RegId r) const {
  return value_of(word(r).load(std::memory_order_acquire));
}

}  // namespace llsc
