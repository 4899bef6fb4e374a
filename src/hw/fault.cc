// JSON round-trip for FaultPlan / FaultArtifact (schema in
// docs/fault_injection.md). The container images carry no JSON library,
// so this is a small hand-rolled reader scoped to exactly the values the
// schema uses: objects, arrays, strings, numbers, booleans. Unknown keys
// are skipped so artifacts stay forward-compatible. Every field is read
// through one path-aware typed reader (Field), so every load error reads
// "field '<path>': ..." with the field's full path ("plan.crashes[0].proc").
#include "hw/fault.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <initializer_list>
#include <limits>
#include <regex>
#include <sstream>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace llsc {
namespace {

// --- writer --------------------------------------------------------------

void append_escaped(std::ostringstream& out, const std::string& s) {
  out << '"';
  for (char c : s) {
    switch (c) {
      case '"':
        out << "\\\"";
        break;
      case '\\':
        out << "\\\\";
        break;
      case '\n':
        out << "\\n";
        break;
      case '\t':
        out << "\\t";
        break;
      default:
        out << c;
    }
  }
  out << '"';
}

std::string double_repr(double v) {
  // Round-trippable without dragging in <charconv> float support quirks:
  // %.17g re-parses to the same double.
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void plan_to_stream(const FaultPlan& plan, std::ostringstream& out,
                    const char* indent) {
  out << "{\n";
  out << indent << "  \"seed\": " << plan.seed << ",\n";
  out << indent << "  \"sc_fail_rate\": " << double_repr(plan.sc_fail_rate)
      << ",\n";
  out << indent << "  \"vl_fail_rate\": " << double_repr(plan.vl_fail_rate)
      << ",\n";
  out << indent << "  \"stall_rate\": " << double_repr(plan.stall_rate)
      << ",\n";
  out << indent << "  \"max_stall_units\": " << plan.max_stall_units << ",\n";
  out << indent << "  \"stall_unit_ns\": " << plan.stall_unit_ns << ",\n";
  // Keep the PR 3 schema byte-stable for oblivious plans: the adversarial
  // fields appear only when they carry non-default values.
  if (plan.strategy != FaultStrategyKind::kOblivious) {
    out << indent << "  \"strategy\": \"" << to_string(plan.strategy)
        << "\",\n";
  }
  if (plan.fault_budget != 0) {
    out << indent << "  \"fault_budget\": " << plan.fault_budget << ",\n";
  }
  if (!plan.trace.empty()) {
    out << indent << "  \"trace\": [";
    for (std::size_t i = 0; i < plan.trace.decisions.size(); ++i) {
      const FaultDecision& d = plan.trace.decisions[i];
      if (i != 0) out << ",";
      out << "\n"
          << indent << "    {\"proc\": " << d.proc
          << ", \"op\": " << d.op_index
          << ", \"vl\": " << (d.is_vl ? "true" : "false")
          << ", \"score\": " << d.score << "}";
    }
    out << "\n" << indent << "  ],\n";
  }
  out << indent << "  \"crashes\": [";
  for (std::size_t i = 0; i < plan.crashes.size(); ++i) {
    const CrashSpec& c = plan.crashes[i];
    if (i != 0) out << ",";
    out << "\n"
        << indent << "    {\"proc\": " << c.proc
        << ", \"after_ops\": " << c.after_ops;
    // Crash-stop entries keep the pre-recovery schema byte for byte; the
    // recovery object appears only when the entry actually recovers.
    if (c.recovery.enabled()) {
      out << ", \"recovery\": {\"delay_units\": " << c.recovery.delay_units
          << ", \"max_restarts\": " << c.recovery.max_restarts
          << ", \"amnesia\": " << (c.recovery.amnesia ? "true" : "false")
          << "}";
    }
    out << "}";
  }
  if (!plan.crashes.empty()) out << "\n" << indent << "  ";
  out << "]\n" << indent << "}";
}

// --- reader --------------------------------------------------------------

// The path of member `key` of the value at `parent`; "" is the document.
std::string member_path(const std::string& parent, const std::string& key) {
  return parent.empty() ? key : parent + "." + key;
}

std::string item_path(const std::string& parent, std::size_t i) {
  return parent + "[" + std::to_string(i) + "]";
}

// Records the first load error, "field '<path>': <what>" ("document: <what>"
// for the top-level value), and returns false.
bool load_error(std::string* error, const std::string& path,
                const std::string& what) {
  if (error != nullptr && error->empty()) {
    *error = (path.empty() ? std::string("document") : "field '" + path + "'") +
             ": " + what;
  }
  return false;
}

// A number keeps its token, so each field converts it to its own type
// exactly: seeds stay u64-exact instead of bouncing through a double.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool bool_value = false;
  std::string text;  // a string's contents or a number's token
  std::vector<JsonValue> items;
  std::vector<std::pair<std::string, JsonValue>> members;
};

// Strict recursive descent: numbers follow RFC 8259 (no '+', no leading
// zeros, nothing glued on), and a syntax error names the field it is in.
class Parser {
 public:
  Parser(const std::string& text, std::string* error)
      : text_(text), error_(error) {}

  bool parse(JsonValue* out) {
    if (!parse_value(out)) return false;
    skip_ws();
    if (pos_ != text_.size()) return fail("trailing characters");
    return true;
  }

 private:
  bool fail(const std::string& what) {
    return load_error(error_, path_,
                      what + " at offset " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool consume(std::string_view word) {
    if (text_.compare(pos_, word.size(), word) != 0) return false;
    pos_ += word.size();
    return true;
  }

  bool parse_value(JsonValue* out) {
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return parse_object(out);
    if (c == '[') return parse_array(out);
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return parse_string(&out->text);
    }
    if (consume("true") || consume("false")) {
      out->kind = JsonValue::Kind::kBool;
      out->bool_value = c == 't';
      return true;
    }
    if (consume("null")) return true;
    return parse_number(out);
  }

  bool parse_object(JsonValue* out) {
    out->kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (consume('}')) return true;
    const std::string parent = path_;
    for (;;) {
      skip_ws();
      std::string key;
      if (!parse_string(&key)) return false;
      skip_ws();
      if (!consume(':')) return fail("expected ':'");
      path_ = member_path(parent, key);
      JsonValue value;
      if (!parse_value(&value)) return false;
      path_ = parent;
      out->members.emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (consume(',')) continue;
      if (consume('}')) return true;
      return fail("expected ',' or '}'");
    }
  }

  bool parse_array(JsonValue* out) {
    out->kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    skip_ws();
    if (consume(']')) return true;
    const std::string parent = path_;
    for (;;) {
      path_ = item_path(parent, out->items.size());
      JsonValue value;
      if (!parse_value(&value)) return false;
      path_ = parent;
      out->items.push_back(std::move(value));
      skip_ws();
      if (consume(',')) continue;
      if (consume(']')) return true;
      return fail("expected ',' or ']'");
    }
  }

  bool parse_string(std::string* out) {
    if (!consume('"')) return fail("expected '\"'");
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return fail("bad escape");
        const char e = text_[pos_++];
        switch (e) {
          case '"':
          case '\\':
          case '/':
            out->push_back(e);
            break;
          case 'n':
            out->push_back('\n');
            break;
          case 't':
            out->push_back('\t');
            break;
          default:
            return fail("unsupported escape");
        }
      } else {
        out->push_back(c);
      }
    }
    return fail("unterminated string");
  }

  // The token is everything up to the next delimiter, so "0.25-9" or "+5"
  // fails as one malformed number instead of loading as a prefix of it.
  bool parse_number(JsonValue* out) {
    static const std::regex kNumber(R"(-?(0|[1-9]\d*)(\.\d+)?([eE][+-]?\d+)?)");
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    out->text = text_.substr(start, pos_ - start);
    if (out->text.empty()) return fail("expected a value");
    if (!std::regex_match(out->text, kNumber)) {
      pos_ = start;
      return fail("malformed number '" + out->text + "'");
    }
    out->kind = JsonValue::Kind::kNumber;
    return true;
  }

  const std::string& text_;
  std::string* error_;
  std::size_t pos_ = 0;
  std::string path_;  // of the value being parsed
};

const char* kind_name(JsonValue::Kind kind) {
  switch (kind) {
    case JsonValue::Kind::kNull:
      return "null";
    case JsonValue::Kind::kBool:
      return "a boolean";
    case JsonValue::Kind::kNumber:
      return "a number";
    case JsonValue::Kind::kString:
      return "a string";
    case JsonValue::Kind::kArray:
      return "an array";
    case JsonValue::Kind::kObject:
      return "an object";
  }
  return "an unknown value";
}

// One value of a parsed document and its path (absent when the key is
// missing). Each typed read stores the value, or records a load error that
// names the path and returns false.
class Field {
 public:
  Field(const JsonValue* value, std::string path, std::string* error)
      : value_(value), path_(std::move(path)), error_(error) {}

  bool absent() const { return value_ == nullptr; }
  bool fail(const std::string& what) const {
    return load_error(error_, path_, what);
  }

  // Member `key` of this object.
  Field operator[](const std::string& key) const {
    const JsonValue* member = nullptr;
    if (value_ != nullptr) {
      for (const auto& [k, v] : value_->members) {
        if (k == key) {
          member = &v;
          break;
        }
      }
    }
    return Field(member, member_path(path_, key), error_);
  }

  bool object() const { return is(JsonValue::Kind::kObject, "an object"); }

  // Calls fn(item) on each item of this array until one fails.
  template <typename Fn>
  bool each(Fn&& fn) const {
    if (!is(JsonValue::Kind::kArray, "an array")) return false;
    for (std::size_t i = 0; i < value_->items.size(); ++i) {
      if (!fn(Field(&value_->items[i], item_path(path_, i), error_))) {
        return false;
      }
    }
    return true;
  }

  bool read(bool* out) const {
    if (!is(JsonValue::Kind::kBool, "true or false")) return false;
    *out = value_->bool_value;
    return true;
  }

  bool read(std::string* out) const {
    if (!is(JsonValue::Kind::kString, "a string")) return false;
    *out = value_->text;
    return true;
  }

  // An integer in [lo, hi]; `what` names it in errors ("a process id").
  template <typename T>
  bool read(T* out, const char* what = "an unsigned integer",
            T lo = std::numeric_limits<T>::min(),
            T hi = std::numeric_limits<T>::max()) const {
    static_assert(std::is_integral_v<T>);
    if (!is(JsonValue::Kind::kNumber, what)) return false;
    const std::string& t = value_->text;
    T v{};
    const auto [end, ec] = std::from_chars(t.data(), t.data() + t.size(), v);
    if (ec != std::errc() || end != t.data() + t.size() || v < lo || v > hi) {
      return fail(std::string("expected ") + what + " in [" +
                  std::to_string(lo) + ", " + std::to_string(hi) + "], got " +
                  t);
    }
    *out = v;
    return true;
  }

  // A probability: a rate of 7 is a corrupt artifact, not an unlucky run.
  bool read_rate(double* out) const {
    if (!is(JsonValue::Kind::kNumber, "a probability")) return false;
    const std::string& t = value_->text;
    double v = 0.0;
    const auto [end, ec] = std::from_chars(t.data(), t.data() + t.size(), v);
    if (ec != std::errc() || end != t.data() + t.size() ||
        !(v >= 0.0 && v <= 1.0)) {
      return fail("expected a probability in [0, 1], got " + t);
    }
    *out = v;
    return true;
  }

  // One of `names`, stored as its index. A value in `removed` names
  // something that no longer exists and fails as "the <value> <noun> was
  // removed", instead of running as something else.
  bool read_choice(const char* noun,
                   std::initializer_list<std::string_view> names,
                   std::initializer_list<std::string_view> removed,
                   std::size_t* out) const {
    std::string s;
    if (!read(&s)) return false;
    const auto it = std::find(names.begin(), names.end(), s);
    if (it != names.end()) {
      *out = static_cast<std::size_t>(it - names.begin());
      return true;
    }
    if (std::find(removed.begin(), removed.end(), s) != removed.end()) {
      return fail("the " + s + " " + noun + " was removed");
    }
    std::string expected;
    for (const std::string_view name : names) {
      expected += (expected.empty() ? "'" : ", '") + std::string(name) + "'";
    }
    return fail(std::string("unknown ") + noun + " '" + s +
                "' (expected one of " + expected + ")");
  }

 private:
  bool is(JsonValue::Kind kind, const char* what) const {
    if (value_ == nullptr) {
      return fail(std::string("missing (expected ") + what + ")");
    }
    if (value_->kind != kind) {
      return fail(std::string("not ") + what + " (got " +
                  kind_name(value_->kind) + ")");
    }
    return true;
  }

  const JsonValue* value_;
  std::string path_;
  std::string* error_;
};

// The plan at `f`. Every crash and trace entry must name a process in
// [0, max_proc]: an artifact's n - 1, or any ProcId in a bare plan.
bool read_plan(const Field& f, ProcId max_proc, FaultPlan* out) {
  FaultPlan plan;
  const auto read_proc = [max_proc](const Field& entry, ProcId* p) {
    return entry["proc"].read(p, "a process id", ProcId{0}, max_proc);
  };
  // The adversarial keys are optional: oblivious plans omit them.
  const Field strategy = f["strategy"];
  const Field budget = f["fault_budget"];
  const Field trace = f["trace"];
  std::size_t kind = 0;
  if (!f.object() || !f["seed"].read(&plan.seed) ||
      !f["sc_fail_rate"].read_rate(&plan.sc_fail_rate) ||
      !f["vl_fail_rate"].read_rate(&plan.vl_fail_rate) ||
      !f["stall_rate"].read_rate(&plan.stall_rate) ||
      !f["max_stall_units"].read(&plan.max_stall_units) ||
      !f["stall_unit_ns"].read(&plan.stall_unit_ns) ||
      !(strategy.absent() ||
        strategy.read_choice("placement",
                             {to_string(FaultStrategyKind::kOblivious),
                              to_string(FaultStrategyKind::kAdaptive)},
                             {"burst"}, &kind)) ||
      !(budget.absent() || budget.read(&plan.fault_budget))) {
    return false;
  }
  plan.strategy = static_cast<FaultStrategyKind>(kind);
  const bool trace_ok = trace.absent() || trace.each([&](const Field& d) {
    FaultDecision decision;
    const Field vl = d["vl"];
    const Field score = d["score"];
    if (!d.object() || !read_proc(d, &decision.proc) ||
        !d["op"].read(&decision.op_index) ||
        !(vl.absent() || vl.read(&decision.is_vl)) ||
        !(score.absent() || score.read(&decision.score))) {
      return false;
    }
    plan.trace.decisions.push_back(decision);
    return true;
  });
  // A crash entry's recovery object is optional (pre-recovery plans omit
  // it), and so is the amnesia flag inside it.
  const bool crashes_ok = trace_ok && f["crashes"].each([&](const Field& c) {
    CrashSpec spec;
    const Field recovery = c["recovery"];
    const Field amnesia = recovery["amnesia"];
    if (!c.object() || !read_proc(c, &spec.proc) ||
        !c["after_ops"].read(&spec.after_ops) ||
        !(recovery.absent() ||
          (recovery.object() &&
           recovery["delay_units"].read(&spec.recovery.delay_units) &&
           recovery["max_restarts"].read(&spec.recovery.max_restarts) &&
           (amnesia.absent() || amnesia.read(&spec.recovery.amnesia))))) {
      return false;
    }
    plan.crashes.push_back(spec);
    return true;
  });
  if (!crashes_ok) return false;
  *out = std::move(plan);
  return true;
}

}  // namespace

std::string FaultPlan::to_json() const {
  std::ostringstream out;
  plan_to_stream(*this, out, "");
  out << "\n";
  return out.str();
}

bool FaultPlan::from_json(const std::string& text, FaultPlan* out,
                          std::string* error) {
  if (error != nullptr) error->clear();
  JsonValue root;
  return Parser(text, error).parse(&root) &&
         read_plan(Field(&root, "", error), std::numeric_limits<ProcId>::max(),
                   out);
}

std::string FaultArtifact::to_json() const {
  std::ostringstream out;
  out << "{\n";
  out << "  \"scenario\": ";
  append_escaped(out, scenario);
  out << ",\n";
  out << "  \"n\": " << n << ",\n";
  out << "  \"sample_index\": " << sample_index << ",\n";
  out << "  \"toss_seed\": " << toss_seed << ",\n";
  out << "  \"max_rounds\": " << max_rounds << ",\n";
  out << "  \"status\": \"" << to_string(status) << "\",\n";
  out << "  \"proc_ops\": [";
  for (std::size_t i = 0; i < proc_ops.size(); ++i) {
    if (i != 0) out << ", ";
    out << proc_ops[i];
  }
  out << "],\n";
  out << "  \"plan\": ";
  plan_to_stream(plan, out, "  ");
  out << "\n}\n";
  return out.str();
}

bool FaultArtifact::from_json(const std::string& text, FaultArtifact* out,
                              std::string* error) {
  if (error != nullptr) error->clear();
  JsonValue root;
  if (!Parser(text, error).parse(&root)) return false;
  const Field doc(&root, "", error);
  constexpr int kIntMax = std::numeric_limits<int>::max();
  FaultArtifact artifact;
  // Optional; -1 marks an artifact that no Monte-Carlo sample produced.
  const Field sample = doc["sample_index"];
  // Artifacts written while storage had a policy switch may name it, and
  // carry overflow_events / max_bits / boxed_fallback_registers beside it.
  // Storage has one behaviour now, so a policy that existed is accepted
  // and ignored, and the width keys are ignored.
  const Field storage = doc["storage_policy"];
  const Field proc_ops = doc["proc_ops"];
  std::size_t status = 0;
  std::size_t policy = 0;
  if (!doc.object() || !doc["scenario"].read(&artifact.scenario) ||
      !doc["n"].read(&artifact.n, "a process count", 1, kIntMax) ||
      !(sample.absent() ||
        sample.read(&artifact.sample_index, "a sample index", -1, kIntMax)) ||
      !doc["toss_seed"].read(&artifact.toss_seed) ||
      !doc["max_rounds"].read(&artifact.max_rounds, "a round cap", 0,
                              kIntMax) ||
      !doc["status"].read_choice("status",
                                 {to_string(RunStatus::kClean),
                                  to_string(RunStatus::kSpecViolation),
                                  to_string(RunStatus::kCrashed),
                                  to_string(RunStatus::kHung)},
                                 {}, &status) ||
      !(storage.absent() || storage.read_choice("storage_policy",
                                                {"inline", "boxed"},
                                                {"inline-strict"}, &policy)) ||
      !proc_ops.each([&](const Field& k) {
        std::uint64_t ops = 0;
        if (!k.read(&ops)) return false;
        artifact.proc_ops.push_back(ops);
        return true;
      })) {
    return false;
  }
  // Every per-process entry must name one of the n processes the artifact
  // replays, or the replay would misattribute it.
  const std::size_t n = static_cast<std::size_t>(artifact.n);
  if (artifact.proc_ops.size() != n) {
    return proc_ops.fail("expected n = " + std::to_string(n) +
                         " entries, got " +
                         std::to_string(artifact.proc_ops.size()));
  }
  if (!read_plan(doc["plan"], artifact.n - 1, &artifact.plan)) return false;
  artifact.status = static_cast<RunStatus>(status);
  *out = std::move(artifact);
  return true;
}

}  // namespace llsc
