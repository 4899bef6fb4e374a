#include "hw/hw_memory.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "util/check.h"

namespace llsc {

namespace {

// The link table's line count, num_procs × lines_per_row. It must not wrap:
// a wrapped product would size a table too small for the rows it indexes.
std::size_t link_table_lines(int num_procs, std::size_t lines_per_row) {
  const std::size_t procs = static_cast<std::size_t>(std::max(num_procs, 0));
  LLSC_EXPECTS(procs == 0 || lines_per_row <= SIZE_MAX / procs,
               "link table size (processes x registers) overflows size_t");
  return procs * lines_per_row;
}

}  // namespace

HwMemory::HwMemory(std::size_t num_registers, int num_threads,
                   const BackoffOptions& backoff, StoragePolicy /*storage*/,
                   ReclaimPolicy /*reclaim*/, int reclaim_slots)
    : num_procs_(num_threads),
      lines_per_row_((num_registers + kLinksPerLine - 1) / kLinksPerLine),
      links_(link_table_lines(num_threads, lines_per_row_)),
      regs_(num_registers),
      waiter_(backoff.waiter != nullptr ? backoff.waiter
                                        : &Waiter::system()),
      reclaimer_(reclaim_slots > 0 ? reclaim_slots : num_threads),
      slots_(static_cast<std::size_t>(reclaimer_.num_slots())) {
  // A Node* must leave bit 0 clear for the inline-word discriminator.
  static_assert(alignof(Node) >= 2);
  LLSC_EXPECTS(num_registers >= 1, "need at least one register");
  LLSC_EXPECTS(num_threads >= 1, "need at least one thread slot");
  for (SlotCtx& c : slots_) c.backoff = Backoff(backoff);
  // Registers start as an inline (nil, tag 1) word: no allocation at all
  // until a value overflows or a tag runs out.
  for (auto& r : regs_) {
    r.word.store(encode_inline(Value{}, 1), std::memory_order_relaxed);
  }
}

HwMemory::~HwMemory() {
  // Quiescent teardown: free live boxed heads here; the Reclaimer's
  // destructor frees everything still on its retired lists.
  for (auto& r : regs_) {
    const std::uint64_t w = r.word.load(std::memory_order_relaxed);
    if (w != 0 && is_node_word(w)) delete as_node(w);
  }
}

void HwMemory::check_proc(ProcId p) const {
  LLSC_EXPECTS(p >= 0 && p < num_procs_,
               "process id outside this memory's thread slots");
}

Reclaimer::Guard HwMemory::guard(ProcId p) {
  check_proc(p);
  return Reclaimer::Guard(reclaimer_, p);
}

std::uint64_t& HwMemory::link(ProcId p, RegId r) {
  const std::size_t row = static_cast<std::size_t>(p) * lines_per_row_;
  const std::size_t i = static_cast<std::size_t>(r);
  return links_[row + i / kLinksPerLine].word[i % kLinksPerLine];
}

void HwMemory::invalidate_links(ProcId p) {
  // A zero link word means "no live link", so every SC/VL of the new
  // incarnation fails until it LLs.
  check_proc(p);
  std::fill_n(&links_[static_cast<std::size_t>(p) * lines_per_row_],
              lines_per_row_, LinkLine{});
  // The dead incarnation's reclamation protections die with it: its guard
  // already unwound during the crash, so this reset is idempotent, but a
  // restart must never inherit a protection it did not take itself.
  reclaimer_.release(reclaimer_.slot_of(p));
}

std::atomic<std::uint64_t>& HwMemory::word(RegId r) {
  LLSC_EXPECTS(r < regs_.size(),
               "register id outside this memory's fixed table");
  return regs_[static_cast<std::size_t>(r)].word;
}

const std::atomic<std::uint64_t>& HwMemory::word(RegId r) const {
  LLSC_EXPECTS(r < regs_.size(),
               "register id outside this memory's fixed table");
  return regs_[static_cast<std::size_t>(r)].word;
}

HwMemory::Node* HwMemory::make_node(SlotCtx& c, Value v,
                                    std::uint64_t version) {
  ++c.allocated;
  return new Node{std::move(v), version};
}

void HwMemory::wake_waiters(SlotCtx& c, RegId r) {
  ParkSpot& spot = regs_[static_cast<std::size_t>(r)].park;
  if (spot.waiters.load(std::memory_order_seq_cst) == 0) return;
  spot.seq.fetch_add(1, std::memory_order_seq_cst);
  waiter_->wake_all(spot.seq);
  ++c.wakes;
}

void HwMemory::note_install(SlotCtx& c, std::size_t encoded_bits,
                            bool inline_install) {
  ++c.writes_inspected;
  if (encoded_bits > c.max_bits) c.max_bits = encoded_bits;
  if (inline_install) {
    ++c.inline_installs;
  } else {
    ++c.boxed_installs;
  }
}

ReclaimStats HwMemory::reclaim_stats() const {
  ReclaimStats s = reclaimer_.stats();
  for (const SlotCtx& c : slots_) {
    s.nodes_allocated += c.allocated;
  }
  return s;
}

BackoffStats HwMemory::backoff_stats() const {
  BackoffStats s;
  for (const SlotCtx& c : slots_) {
    const BackoffStats& b = c.backoff.stats();
    s.cas_failures += b.cas_failures;
    s.cas_successes += b.cas_successes;
    s.spin_pauses += b.spin_pauses;
    s.yields += b.yields;
    s.parks += b.parks;
    s.park_skips += b.park_skips;
    s.wakes += c.wakes;
  }
  return s;
}

RegisterWidthStats HwMemory::width_stats() const {
  RegisterWidthStats s;
  for (const SlotCtx& c : slots_) {
    s.writes_inspected += c.writes_inspected;
    if (c.max_bits > s.max_bits) s.max_bits = c.max_bits;
    s.overflow_events += c.overflow_events;
    s.inline_installs += c.inline_installs;
    s.boxed_installs += c.boxed_installs;
  }
  // Demotion is sticky, so the demoted-register count is exactly the
  // number of words currently holding a node (quiescent read).
  std::vector<RegId> demoted;
  for (std::size_t r = 0; r < regs_.size(); ++r) {
    if (is_node_word(regs_[r].word.load(std::memory_order_acquire))) {
      ++s.boxed_fallback_registers;
      demoted.push_back(static_cast<RegId>(r));
    }
  }
  attribute_boxed_fallbacks(groups_, demoted, s);
  return s;
}

Value HwMemory::take_replaced(Reclaimer::Guard& g, std::uint64_t w) {
  if (!is_node_word(w)) return decode_inline(w);
  Value prev = as_node(w)->value;
  g.retire(as_node(w));
  return prev;
}

inline std::uint64_t HwMemory::successor(SlotCtx& c, std::uint64_t cur,
                                         Value&& v, bool inline_install,
                                         Node*& fresh) {
  if (inline_install) {
    return encode_inline(v, next_inline_tag(inline_tag(cur)));
  }
  fresh = make_node(c, std::move(v), next_version(cur));
  return from_node(fresh);
}

inline void HwMemory::discard(SlotCtx& c, Node* fresh) {
  if (fresh == nullptr) return;
  delete fresh;
  --c.allocated;
}

// --- operations ----------------------------------------------------------

Value HwMemory::ll(ProcId p, RegId r) {
  Reclaimer::Guard g = guard(p);
  const std::uint64_t cur = g.acquire(word(r));
  link(p, r) = link_of(cur);
  return value_of(cur);
}

OpResult HwMemory::sc(ProcId p, RegId r, Value v) {
  Reclaimer::Guard g = guard(p);
  SlotCtx& c = slot_ctx(g);
  // The link dies on this SC no matter what (paper: a successful SC
  // clears the whole Pset including the writer; a failed SC means the
  // link was already dead).
  std::atomic<std::uint64_t>& h = word(r);
  const std::uint64_t linked = std::exchange(link(p, r), 0);
  std::uint64_t cur = g.acquire(h);
  if (linked == 0 || link_of(cur) != linked) {
    return OpResult{.flag = false, .value = value_of(cur)};
  }
  const bool fits = value_fits_inline(v);
  const bool inline_install = stays_inline(cur, fits);
  const std::size_t bits = v.encoded_bits();
  Node* fresh = nullptr;
  const std::uint64_t desired =
      successor(c, cur, std::move(v), inline_install, fresh);
  // seq_cst: a CAS that may unlink a node is ordered against the hazard
  // publishes and scans that decide when the node is freed (see
  // Reclaimer::scan). The node-path CASes of install and rmw are too.
  if (h.compare_exchange_strong(cur, desired, std::memory_order_seq_cst,
                                std::memory_order_acquire)) {
    Value prev = take_replaced(g, cur);
    // A successful SC changes the head, so installers parked on r can
    // make progress again.
    wake_waiters(c, r);
    if (!fits) ++c.overflow_events;
    note_install(c, bits, inline_install);
    return OpResult{.flag = true, .value = std::move(prev)};
  }
  // Lost the race: a concurrent write invalidated the link between our
  // load and the CAS. `cur` was reloaded by the failed CAS; confirm
  // re-protects it so reporting its value is safe.
  discard(c, fresh);
  cur = g.confirm(h, cur);
  return OpResult{.flag = false, .value = value_of(cur)};
}

OpResult HwMemory::validate(ProcId p, RegId r) {
  Reclaimer::Guard g = guard(p);
  const std::uint64_t cur = g.acquire(word(r));
  const std::uint64_t linked = link(p, r);
  return OpResult{.flag = linked != 0 && link_of(cur) == linked,
                  .value = value_of(cur)};
}

Value HwMemory::install(Reclaimer::Guard& g, SlotCtx& c, RegId r, Value v) {
  const bool fits = value_fits_inline(v);
  const std::size_t bits = v.encoded_bits();
  std::atomic<std::uint64_t>& h = word(r);
  ParkSpot& spot = regs_[static_cast<std::size_t>(r)].park;
  // A value that does not fit always takes the node path: allocate before
  // the first load, keeping the load-to-CAS window short. Otherwise the
  // node is allocated only if the register turns out to be demoted or its
  // tag exhausted.
  Node* fresh = fits ? nullptr : make_node(c, std::move(v), 0);
  std::uint64_t cur = g.acquire(h);
  c.backoff.begin_op();
  Value prev;
  for (;;) {
    if (stays_inline(cur, fits)) {
      const std::uint64_t next =
          encode_inline(v, next_inline_tag(inline_tag(cur)));
      if (h.compare_exchange_weak(cur, next, std::memory_order_acq_rel,
                                  std::memory_order_acquire)) {
        prev = decode_inline(cur);
        break;
      }
    } else {
      // Demotion is sticky (no write turns a node or a tag-exhausted
      // word back into a writable inline word), so once the node path is
      // taken every retry takes it too and `v` is no longer needed here.
      if (fresh == nullptr) fresh = make_node(c, std::move(v), 0);
      fresh->version = next_version(cur);
      if (h.compare_exchange_weak(cur, from_node(fresh),
                                  std::memory_order_seq_cst,
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
  if (!fits) ++c.overflow_events;
  note_install(c, bits, /*inline_install=*/fresh == nullptr);
  return prev;
}

Value HwMemory::swap(ProcId p, RegId r, Value v) {
  Reclaimer::Guard g = guard(p);
  SlotCtx& c = slot_ctx(g);
  Value prev = install(g, c, r, std::move(v));
  // The install cleared r's Pset; the writer's own link dies with it.
  link(p, r) = 0;
  return prev;
}

void HwMemory::move(ProcId p, RegId src, RegId dst) {
  LLSC_EXPECTS(src != dst, "move(R, R) is excluded from the model");
  Reclaimer::Guard g = guard(p);
  SlotCtx& c = slot_ctx(g);
  // Two linearization points (read src, install into dst) where the
  // paper's move is one step — see docs/hw_backend.md §relaxations.
  (void)install(g, c, dst, value_of(g.acquire(word(src))));
  link(p, dst) = 0;
}

Value HwMemory::rmw(ProcId p, RegId r, const RmwFunction& f) {
  Reclaimer::Guard g = guard(p);
  SlotCtx& c = slot_ctx(g);
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
    const bool fits = value_fits_inline(next);
    const bool inline_install = stays_inline(cur, fits);
    const std::size_t bits = next.encoded_bits();
    Node* fresh = nullptr;
    const std::uint64_t desired =
        successor(c, cur, std::move(next), inline_install, fresh);
    if (h.compare_exchange_strong(cur, desired, std::memory_order_seq_cst,
                                  std::memory_order_acquire)) {
      c.backoff.on_success();
      wake_waiters(c, r);
      if (is_node_word(cur)) g.retire(as_node(cur));
      if (!fits) ++c.overflow_events;
      note_install(c, bits, inline_install);
      link(p, r) = 0;
      return curv;
    }
    discard(c, fresh);
    c.backoff.on_failure(&spot, &h, cur);
  }
}

Value HwMemory::peek_value(RegId r) const {
  return value_of(word(r).load(std::memory_order_acquire));
}


OpResult HwMemory::apply(ProcId p, const PendingOp& op) {
  switch (op.kind) {
    case OpKind::kLL:
      return OpResult{.flag = true, .value = ll(p, op.reg)};
    case OpKind::kSC:
      return sc(p, op.reg, op.arg);
    case OpKind::kValidate:
      return validate(p, op.reg);
    case OpKind::kSwap:
      return OpResult{.flag = true, .value = swap(p, op.reg, op.arg)};
    case OpKind::kMove:
      move(p, op.src, op.reg);
      return OpResult{.flag = true, .value = Value{}};
    case OpKind::kRmw:
      LLSC_EXPECTS(op.rmw != nullptr, "RMW op without a function");
      return OpResult{.flag = true, .value = rmw(p, op.reg, *op.rmw)};
  }
  LLSC_UNREACHABLE("bad OpKind");
}

}  // namespace llsc
