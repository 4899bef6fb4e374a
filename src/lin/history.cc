#include "lin/history.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace llsc {

std::string HistOp::to_string() const {
  return "p" + std::to_string(proc) + " " + op.to_string() + " -> " +
         response.to_string() + " [" + std::to_string(inv_time) + "," +
         std::to_string(resp_time) + "]";
}

std::vector<std::size_t> History::by_process(ProcId p) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].proc == p) out.push_back(i);
  }
  return out;
}

std::string History::to_string() const {
  std::string s;
  for (const HistOp& op : ops) s += op.to_string() + "\n";
  return s;
}

namespace {

std::size_t checked_slot_count(int num_procs) {
  LLSC_EXPECTS(num_procs >= 1, "recorder needs at least one process slot");
  return static_cast<std::size_t>(num_procs);
}

}  // namespace

ConcurrentHistoryRecorder::ConcurrentHistoryRecorder(UniversalConstruction& uc,
                                                     int num_procs)
    : uc_(&uc), slots_(checked_slot_count(num_procs)) {}

SubTask<Value> ConcurrentHistoryRecorder::execute(ProcCtx ctx, ObjOp op) {
  const ProcId p = ctx.id();
  LLSC_EXPECTS(p >= 0 && static_cast<std::size_t>(p) < slots_.size(),
               "process id outside the recorder's slots");
  HistOp rec;
  rec.proc = p;
  rec.op = op;
  // fetch_add is the linearization point of "invoked": everything already
  // responded has a strictly smaller stamp.
  rec.inv_time = clock_.fetch_add(1) + 1;
  const Value r = co_await uc_->execute(ctx, std::move(op));
  rec.response = r;
  rec.resp_time = clock_.fetch_add(1) + 1;
  slots_[static_cast<std::size_t>(p)].ops.push_back(std::move(rec));
  co_return r;
}

History ConcurrentHistoryRecorder::history() const {
  History h;
  for (const Slot& slot : slots_) {
    h.ops.insert(h.ops.end(), slot.ops.begin(), slot.ops.end());
  }
  std::sort(h.ops.begin(), h.ops.end(),
            [](const HistOp& a, const HistOp& b) {
              return a.inv_time < b.inv_time;
            });
  return h;
}

}  // namespace llsc
