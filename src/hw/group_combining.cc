#include "hw/group_combining.h"

#include <memory>
#include <utility>

#include "util/check.h"

namespace llsc {

namespace {

constexpr const char* kBatchOpName = "batch";

// One member op of a batch, tagged with the client that issued it.
struct BatchEntry {
  ProcId proc = -1;
  ObjOp op;

  bool operator==(const BatchEntry&) const = default;
};

// Argument of a batch op: a group's pending ops in ascending ProcId order.
struct OpBatch {
  std::vector<BatchEntry> entries;

  bool operator==(const OpBatch&) const = default;
  std::string to_string() const {
    return "batch{" + std::to_string(entries.size()) + " ops}";
  }
  std::size_t hash() const {
    std::size_t h = 0;
    for (const BatchEntry& e : entries) {
      h = mix64(h ^ static_cast<std::uint64_t>(e.proc) ^ e.op.hash());
    }
    return h;
  }
};

// Response of a batch op: one response per entry, in entry order.
struct BatchResponses {
  std::vector<Value> values;

  bool operator==(const BatchResponses&) const = default;
  std::string to_string() const {
    return "responses{" + std::to_string(values.size()) + "}";
  }
  std::size_t hash() const {
    std::size_t h = 0;
    for (const Value& v : values) h = mix64(h ^ v.hash());
    return h;
  }
};

// The batch adapter: the implemented object, extended by one operation
// that applies a batch's member ops in order. Every other operation name
// is a contract violation — the shared level only ever sees batches.
class BatchObject final : public SequentialObject {
 public:
  explicit BatchObject(std::unique_ptr<SequentialObject> inner)
      : inner_(std::move(inner)) {
    LLSC_EXPECTS(inner_ != nullptr, "the object factory returned null");
  }

  Value apply(const ObjOp& op) override {
    LLSC_EXPECTS(op.name == kBatchOpName, "batch object applies batches only");
    const OpBatch* batch = op.arg.get_if<OpBatch>();
    LLSC_EXPECTS(batch != nullptr, "batch op without an OpBatch argument");
    BatchResponses out;
    out.values.reserve(batch->entries.size());
    ProcId prev = -1;
    for (const BatchEntry& e : batch->entries) {
      LLSC_CHECK(e.proc > prev, "batch entries out of ascending ProcId order");
      prev = e.proc;
      out.values.push_back(inner_->apply(e.op));
    }
    return Value::of(std::move(out));
  }
  std::unique_ptr<SequentialObject> clone() const override {
    return std::make_unique<BatchObject>(inner_->clone());
  }
  std::string state_fingerprint() const override {
    return inner_->state_fingerprint();
  }
  std::string type_name() const override {
    return "batch<" + inner_->type_name() + ">";
  }

 private:
  std::unique_ptr<SequentialObject> inner_;
};

ObjectFactory batch_factory(ObjectFactory factory) {
  LLSC_EXPECTS(factory != nullptr, "need an object factory");
  return [factory = std::move(factory)] {
    return std::make_unique<BatchObject>(factory());
  };
}

// Holds a group lock for one scope, including the unwind of a crashed
// combiner's frame — the next combiner then finds the in-flight batch.
class GroupLockGuard {
 public:
  explicit GroupLockGuard(std::atomic<bool>* locked) : locked_(locked) {}
  ~GroupLockGuard() { locked_->store(false, std::memory_order_release); }
  GroupLockGuard(const GroupLockGuard&) = delete;
  GroupLockGuard& operator=(const GroupLockGuard&) = delete;

 private:
  std::atomic<bool>* locked_;
};

bool try_lock(std::atomic<bool>* locked) {
  return !locked->load(std::memory_order_relaxed) &&
         !locked->exchange(true, std::memory_order_acquire);
}

}  // namespace

GroupCombiningUniversal::GroupCombiningUniversal(int m, int groups,
                                                 ObjectFactory factory,
                                                 RegId base)
    : m_(m),
      shared_(groups, batch_factory(std::move(factory)), base),
      cells_(static_cast<std::size_t>(m)),
      groups_(static_cast<std::size_t>(groups)) {
  LLSC_EXPECTS(m >= 1, "need at least one client");
  LLSC_EXPECTS(groups >= 1 && groups <= m, "need 1 <= groups <= clients");
}

SubTask<Value> GroupCombiningUniversal::execute(ProcCtx ctx, ObjOp op) {
  const ProcId p = ctx.id();
  LLSC_EXPECTS(p >= 0 && p < m_, "caller outside this construction");
  LLSC_EXPECTS(ctx.yields(),
               "group combining needs a platform whose yield suspends (the "
               "oversubscribed executor): elsewhere a waiting client spins "
               "forever");
  const int g = p % groups();
  Cell& mine = cells_[static_cast<std::size_t>(p)];
  Group& group = groups_[static_cast<std::size_t>(g)];
  bool published = false;
  for (;;) {
    const int state = mine.state.load(std::memory_order_acquire);
    if (state == kDone) {
      Value response = std::move(mine.response);
      mine.state.store(kIdle, std::memory_order_release);
      if (published) co_return response;
      // A dead incarnation's op: applied once, its response dropped.
      continue;
    }
    if (state == kIdle) {
      mine.op = std::move(op);
      mine.state.store(kPending, std::memory_order_release);
      published = true;
    }
    if (!try_lock(&group.locked)) {
      co_await ctx.yield();
      continue;
    }
    GroupLockGuard guard(&group.locked);
    if (!group.in_flight) {
      // Collect the group's pending ops in ascending ProcId order.
      OpBatch batch;
      group.members.clear();
      for (ProcId q = g; q < m_; q += groups()) {
        Cell& cell = cells_[static_cast<std::size_t>(q)];
        if (cell.state.load(std::memory_order_acquire) != kPending) continue;
        batch.entries.push_back(BatchEntry{.proc = q, .op = cell.op});
        group.members.push_back(q);
      }
      if (batch.entries.empty()) continue;
      group.batch = ObjOp{kBatchOpName, Value::of(std::move(batch))};
      group.seq += 1;
      group.in_flight = true;
    }
    // Run the in-flight batch: this combiner's own, or the one a crashed
    // combiner left behind (same slot and seq, so it applies once).
    const Value result =
        co_await shared_.execute_as(ctx, g, group.seq, group.batch);
    const BatchResponses* responses = result.get_if<BatchResponses>();
    LLSC_CHECK(responses != nullptr &&
                   responses->values.size() == group.members.size(),
               "batch response does not match its members");
    for (std::size_t i = 0; i < group.members.size(); ++i) {
      Cell& cell = cells_[static_cast<std::size_t>(group.members[i])];
      cell.response = responses->values[i];
      cell.state.store(kDone, std::memory_order_release);
    }
    group.in_flight = false;
  }
}

}  // namespace llsc
