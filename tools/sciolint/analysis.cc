#include "tools/sciolint/analysis.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <sstream>

namespace scio::lint {
namespace {

const std::set<std::string>& KnownRules() {
  static const std::set<std::string> kRules = {"D1", "D2", "E1", "C1", "M1",
                                               "S1", "P1", "F1", "W1", "H1",
                                               "E2", "X1", "ANN"};
  return kRules;
}

// Identifiers that read wall clocks, environment or unseeded entropy. Any of
// these inside src/ makes a seeded run irreproducible.
const std::set<std::string>& BannedSources() {
  static const std::set<std::string> kBanned = {
      "rand",          "srand",         "drand48",       "lrand48",
      "mrand48",       "random_device", "system_clock",  "steady_clock",
      "high_resolution_clock",          "getenv",        "secure_getenv",
      "gettimeofday",  "clock_gettime", "timespec_get",  "localtime",
      "gmtime",
  };
  return kBanned;
}

std::string Basename(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

bool InSrc(const std::string& path) {
  return path.rfind("src/", 0) == 0 || path.find("/src/") != std::string::npos;
}

// Layers where per-connection state lives; fd-keyed node containers here are
// a scalability bug (P1), not a style choice.
bool InP1Scope(const std::string& path) {
  static const char* const kDirs[] = {"src/kernel", "src/servers", "src/posix",
                                      "src/core", "src/transport"};
  for (const char* dir : kDirs) {
    if (path.find(dir) != std::string::npos) {
      return true;
    }
  }
  return false;
}

std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t");
  if (b == std::string::npos) {
    return "";
  }
  size_t e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

uint64_t Fnv1a(std::string_view s) {
  uint64_t h = 1469598103934665603ull;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

// Lowercase and drop underscores: "PollSyscall" and "poll_syscall_" both
// normalize to comparable forms.
std::string Normalize(std::string_view s) {
  std::string out;
  for (char c : s) {
    if (c == '_') {
      continue;
    }
    out.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  return out;
}

// Does receiver variable `recv` plausibly hold an instance of class `cls`?
// Matches `sys_`→Sys, `kernel()`→SimKernel, `rt_`→RtIo, `poll_`→PollSyscall.
bool ReceiverMatchesClass(const std::string& recv, const std::string& cls) {
  const std::string r = Normalize(recv);
  const std::string c = Normalize(cls);
  if (r.size() < 2 || c.empty()) {
    return false;
  }
  if (r == c) {
    return true;
  }
  if (c.size() > r.size() &&
      (c.compare(0, r.size(), r) == 0 || c.compare(c.size() - r.size(), r.size(), r) == 0)) {
    return true;
  }
  return false;
}

// tokens[i] is an open bracket; return the index just past its match, or
// tokens.size() on imbalance.
size_t SkipBalanced(const std::vector<Token>& t, size_t i, const char* open,
                    const char* close) {
  int depth = 0;
  for (; i < t.size(); ++i) {
    if (t[i].kind == Tok::kPunct && t[i].text == open) {
      ++depth;
    } else if (t[i].kind == Tok::kPunct && t[i].text == close) {
      if (--depth == 0) {
        return i + 1;
      }
    }
  }
  return t.size();
}

bool IsPunct(const Token& t, const char* text) {
  return t.kind == Tok::kPunct && t.text == text;
}

bool IsIdent(const Token& t, const char* text) {
  return t.kind == Tok::kIdent && t.text == text;
}

}  // namespace

std::string Fingerprint(const Finding& f) {
  std::ostringstream key;
  key << f.rule << '|' << Basename(f.path) << '|' << Trim(f.snippet);
  std::ostringstream hex;
  hex << std::hex << Fnv1a(key.str());
  return hex.str();
}

void Analysis::AddFile(const std::string& path, std::string_view source) {
  files_.push_back(Lex(path, source));
}

void Analysis::LoadBaseline(std::string_view text) {
  size_t start = 0;
  while (start <= text.size()) {
    size_t end = text.find('\n', start);
    std::string_view line =
        text.substr(start, (end == std::string_view::npos ? text.size() : end) - start);
    std::string trimmed = Trim(std::string(line));
    if (!trimmed.empty() && trimmed[0] != '#') {
      baseline_.insert(trimmed);
    }
    if (end == std::string_view::npos) {
      break;
    }
    start = end + 1;
  }
}

void Analysis::AddFinding(const LexedFile& file, const std::string& rule, int line,
                          int col, std::string message, std::vector<Finding>* out) {
  Finding f;
  f.rule = rule;
  f.path = file.path;
  f.line = line;
  f.col = col;
  f.message = std::move(message);
  if (line >= 1 && static_cast<size_t>(line) <= file.lines.size()) {
    f.snippet = Trim(file.lines[static_cast<size_t>(line) - 1]);
  }
  for (const Annotation& ann : file.annotations) {
    if (ann.malformed) {
      continue;
    }
    if (ann.line != line && ann.line != line - 1) {
      continue;
    }
    if (std::find(ann.rules.begin(), ann.rules.end(), rule) != ann.rules.end()) {
      f.suppressed = true;
      break;
    }
  }
  if (!f.suppressed && baseline_.count(Fingerprint(f)) != 0) {
    f.baselined = true;
  }
  out->push_back(std::move(f));
}

void Analysis::CollectIndex(const LexedFile& file) {
  const std::vector<Token>& t = file.tokens;
  const std::string base = Basename(file.path);

  // Class-context tracking (for [[nodiscard]] method ownership).
  std::vector<std::pair<std::string, int>> class_stack;  // (name, depth at push)
  int brace_depth = 0;
  std::string pending_class;

  for (size_t i = 0; i < t.size(); ++i) {
    const Token& tok = t[i];

    if (tok.kind == Tok::kPunct) {
      if (tok.text == "{") {
        if (!pending_class.empty()) {
          class_stack.emplace_back(pending_class, brace_depth);
          pending_class.clear();
        }
        ++brace_depth;
      } else if (tok.text == "}") {
        --brace_depth;
        if (!class_stack.empty() && class_stack.back().second == brace_depth) {
          class_stack.pop_back();
        }
      } else if (tok.text == ";" || tok.text == "(" || tok.text == ")" ||
                 tok.text == ">") {
        pending_class.clear();
      }
      continue;
    }
    if (tok.kind != Tok::kIdent) {
      continue;
    }

    if ((tok.text == "class" || tok.text == "struct") && i + 1 < t.size() &&
        t[i + 1].kind == Tok::kIdent) {
      pending_class = t[i + 1].text;
      continue;
    }

    // Variables of unordered container type: `unordered_map< ... > name ;/=/{`
    if ((tok.text == "unordered_map" || tok.text == "unordered_set") &&
        i + 1 < t.size() && IsPunct(t[i + 1], "<")) {
      size_t after = SkipBalanced(t, i + 1, "<", ">");
      while (after < t.size() && t[after].kind == Tok::kPunct &&
             (t[after].text == "&" || t[after].text == "*")) {
        ++after;
      }
      if (after < t.size() && t[after].kind == Tok::kIdent &&
          t[after].text != "const" && after + 1 < t.size()) {
        const Token& next = t[after + 1];
        if (next.kind == Tok::kPunct &&
            (next.text == ";" || next.text == "=" || next.text == "{" ||
             next.text == ")" || next.text == ",")) {
          unordered_vars_.insert(t[after].text);
        }
      }
      continue;
    }

    // [[nodiscard]] — record the next identifier that heads an argument list.
    if (tok.text == "nodiscard" && i >= 2 && IsPunct(t[i - 1], "[") &&
        IsPunct(t[i - 2], "[")) {
      for (size_t j = i + 1; j + 1 < t.size(); ++j) {
        if (t[j].kind == Tok::kPunct &&
            (t[j].text == ";" || t[j].text == "{" || t[j].text == "}")) {
          break;
        }
        if (t[j].kind == Tok::kIdent && IsPunct(t[j + 1], "(")) {
          const std::string cls = class_stack.empty() ? "" : class_stack.back().first;
          if (!cls.empty()) {
            nodiscard_methods_[t[j].text].insert(cls);
          }
          break;
        }
      }
      continue;
    }

    // Taxonomy X-macros.
    if (tok.text == "X" && i + 4 < t.size() && IsPunct(t[i + 1], "(") &&
        t[i + 2].kind == Tok::kIdent && IsPunct(t[i + 3], ",")) {
      if (base == "charge_category.h" && t[i + 2].text.rfind('k', 0) == 0 &&
          t[i + 4].kind == Tok::kIdent && i + 5 < t.size() && IsPunct(t[i + 5], ")")) {
        charge_cats_.emplace(t[i + 2].text, std::make_pair(file.path, t[i + 2].line));
      } else if (base == "mem_ledger.h" && t[i + 2].text.rfind('k', 0) == 0 &&
                 t[i + 4].kind == Tok::kIdent && i + 5 < t.size() &&
                 IsPunct(t[i + 5], ")")) {
        mem_sys_.insert(t[i + 2].text);
      } else if (base == "kernel_stats.h" && t[i + 4].kind == Tok::kString &&
                 i + 5 < t.size() && IsPunct(t[i + 5], ")")) {
        std::string row = t[i + 4].text;
        if (row.size() >= 2 && row.front() == '"' && row.back() == '"') {
          row = row.substr(1, row.size() - 2);
        }
        stat_fields_.push_back({t[i + 2].text, row, file.path, t[i + 2].line});
      }
      continue;
    }

    // ChargeCat::k* references inside a charge call's argument list. Only
    // these count toward C1 orphan coverage: a category that is merely
    // compared, looked up in the ledger, or printed in a report row is not
    // charged anywhere, and the orphan check must keep flagging it.
    if ((tok.text == "Charge" || tok.text == "ChargeDebt" ||
         tok.text == "ChargeRepeated" || tok.text == "ChargeLocal" ||
         tok.text == "AccountSmp" || tok.text == "Attribute") &&
        i + 1 < t.size() && IsPunct(t[i + 1], "(")) {
      const size_t close = SkipBalanced(t, i + 1, "(", ")");
      for (size_t j = i + 2; j + 2 < close; ++j) {
        if (IsIdent(t[j], "ChargeCat") && IsPunct(t[j + 1], "::") &&
            t[j + 2].kind == Tok::kIdent) {
          charge_cat_refs_.insert(t[j + 2].text);
        }
      }
      continue;
    }
  }
}

void Analysis::CheckFile(const LexedFile& file, std::vector<Finding>* out) {
  const std::vector<Token>& t = file.tokens;
  const bool in_src = InSrc(file.path);

  // ANN: malformed control comments and unknown rule ids.
  for (const Annotation& ann : file.annotations) {
    if (ann.malformed) {
      AddFinding(file, "ANN", ann.line, 1,
                 "malformed sciolint comment (expected `sciolint: allow(<rules>) -- "
                 "<reason>` or `sciolint: hotpath`): " + ann.raw,
                 out);
      continue;
    }
    for (const std::string& rule : ann.rules) {
      if (KnownRules().count(rule) == 0) {
        AddFinding(file, "ANN", ann.line, 1,
                   "sciolint allow() names unknown rule '" + rule + "'", out);
      }
    }
  }

  for (size_t i = 0; i < t.size(); ++i) {
    const Token& tok = t[i];
    if (tok.kind != Tok::kIdent) {
      continue;
    }

    // --- D1: nondeterminism sources (src/ only) --------------------------
    if (in_src && BannedSources().count(tok.text) != 0) {
      const bool member_access = i > 0 && (IsPunct(t[i - 1], ".") || IsPunct(t[i - 1], "->"));
      if (!member_access) {
        AddFinding(file, "D1", tok.line, tok.col,
                   "nondeterminism source '" + tok.text +
                       "' in src/ — seeded runs must not read wall clocks, "
                       "entropy or the environment",
                   out);
      }
      continue;
    }
    // D1: wall-clock time(nullptr/NULL/0).
    if (in_src && tok.text == "time" && i + 2 < t.size() && IsPunct(t[i + 1], "(") &&
        (IsIdent(t[i + 2], "nullptr") || IsIdent(t[i + 2], "NULL") ||
         (t[i + 2].kind == Tok::kNumber && t[i + 2].text == "0"))) {
      AddFinding(file, "D1", tok.line, tok.col,
                 "wall-clock time() call in src/ — use the simulated clock", out);
      continue;
    }

    // --- P1: fd-keyed node maps in per-connection layers ------------------
    // `map<int, ...>` / `unordered_map<int, ...>` in src/{kernel,servers,
    // posix,core} means a node allocation plus pointer chase per descriptor.
    // Per-connection state belongs in paged slabs indexed by fd with
    // intrusive lists for the sweep orders (src/kernel/paged_slab.h). Maps
    // keyed by something that is not an fd take an allow(P1) annotation.
    if ((tok.text == "map" || tok.text == "unordered_map") && InP1Scope(file.path) &&
        i + 3 < t.size() && IsPunct(t[i + 1], "<") && IsIdent(t[i + 2], "int") &&
        IsPunct(t[i + 3], ",")) {
      AddFinding(file, "P1", tok.line, tok.col,
                 "std::" + tok.text +
                     "<int, ...> in a per-connection layer — key per-fd state "
                     "into a paged slab (src/kernel/paged_slab.h) with "
                     "intrusive lists instead of a node-per-entry map; if the "
                     "key is not an fd, annotate with allow(P1)",
                 out);
      continue;
    }

    // --- D2: iteration over unordered containers -------------------------
    if (tok.text == "for" && i + 1 < t.size() && IsPunct(t[i + 1], "(")) {
      const size_t close = SkipBalanced(t, i + 1, "(", ")");
      int depth = 0;
      size_t colon = 0;
      for (size_t j = i + 1; j < close; ++j) {
        if (IsPunct(t[j], "(")) {
          ++depth;
        } else if (IsPunct(t[j], ")")) {
          --depth;
        } else if (depth == 1 && IsPunct(t[j], ":")) {
          colon = j;
          break;
        } else if (depth == 1 && IsPunct(t[j], ";")) {
          break;  // classic for loop, no range clause
        }
      }
      if (colon != 0) {
        const Token* last_ident = nullptr;
        for (size_t j = colon + 1; j + 1 < close; ++j) {
          if (t[j].kind == Tok::kIdent) {
            last_ident = &t[j];
          }
        }
        if (last_ident != nullptr && unordered_vars_.count(last_ident->text) != 0) {
          AddFinding(file, "D2", last_ident->line, last_ident->col,
                     "range-for over unordered container '" + last_ident->text +
                         "' — iteration order is implementation-defined; iterate "
                         "a sorted snapshot or use an ordered container",
                     out);
        }
      }
      continue;
    }
    if ((tok.text == "begin" || tok.text == "cbegin") && i >= 2 && i + 1 < t.size() &&
        IsPunct(t[i + 1], "(") &&
        (IsPunct(t[i - 1], ".") || IsPunct(t[i - 1], "->")) &&
        t[i - 2].kind == Tok::kIdent && unordered_vars_.count(t[i - 2].text) != 0) {
      AddFinding(file, "D2", tok.line, tok.col,
                 "iterator over unordered container '" + t[i - 2].text +
                     "' — iteration order is implementation-defined",
                 out);
      continue;
    }

    // --- C1: every charge call must name a ChargeCat -------------------------
    // Charge/ChargeDebt/ChargeRepeated are kernel methods (member calls);
    // ChargeLocal is the SMP scheduler's plain-call charge helper, so no
    // member access required.
    const bool member_call =
        i >= 1 && (IsPunct(t[i - 1], ".") || IsPunct(t[i - 1], "->"));
    if ((((tok.text == "Charge" || tok.text == "ChargeDebt" ||
           tok.text == "ChargeRepeated") &&
          member_call) ||
         tok.text == "ChargeLocal") &&
        i + 1 < t.size() && IsPunct(t[i + 1], "(")) {
      const size_t close = SkipBalanced(t, i + 1, "(", ")");
      bool tagged = false;
      for (size_t j = i + 2; j + 1 < close; ++j) {
        if (IsIdent(t[j], "ChargeCat")) {
          tagged = true;
          break;
        }
      }
      if (!tagged && tok.line >= 1 &&
          static_cast<size_t>(tok.line) <= file.lines.size() &&
          file.lines[static_cast<size_t>(tok.line) - 1].find("ChargeCat") !=
              std::string::npos) {
        tagged = true;  // category threaded through a variable on this line
      }
      if (!tagged) {
        AddFinding(file, "C1", tok.line, tok.col,
                   tok.text + "() call without a ChargeCat — every charged "
                              "nanosecond must name its attribution category",
                   out);
      }
      continue;
    }

    // --- S1: SMP-adjacent code must name its wake semantics ---------------
    // WakeOne (wake_up: all non-exclusive + first exclusive) and WakeAll
    // (wake_up_all: the herd) behave identically until an exclusive waiter
    // exists, so a bare Wake() spelling would hide which semantics a worker
    // path relies on. Process::Wake (single process) is exempt outside the
    // scheduler layers; in src/smp and src/servers every wait-queue wake-up
    // must say which one it means.
    if (tok.text == "Wake" && member_call && i + 1 < t.size() &&
        IsPunct(t[i + 1], "(") &&
        (file.path.find("src/smp") != std::string::npos ||
         file.path.find("src/servers") != std::string::npos)) {
      AddFinding(file, "S1", tok.line, tok.col,
                 "bare Wake() call — name the intended wake semantics "
                 "(WakeOne or WakeAll)",
                 out);
      continue;
    }

    // --- E1: discarded [[nodiscard]] syscall-wrapper returns --------------
    const bool stmt_start =
        i == 0 || IsPunct(t[i - 1], ";") || IsPunct(t[i - 1], "{") ||
        IsPunct(t[i - 1], "}") ||
        (i >= 3 && IsPunct(t[i - 1], ")") && IsIdent(t[i - 2], "void") &&
         IsPunct(t[i - 3], "("));
    if (stmt_start) {
      // Parse a `unit (. unit | -> unit)* ;` chain where unit = ident [(...)].
      size_t j = i;
      std::string prev_unit;
      std::string last_unit;
      bool last_had_args = false;
      int units = 0;
      bool qualified = false;
      while (j < t.size() && t[j].kind == Tok::kIdent) {
        prev_unit = last_unit;
        last_unit = t[j].text;
        last_had_args = false;
        ++units;
        ++j;
        if (j < t.size() && IsPunct(t[j], "(")) {
          j = SkipBalanced(t, j, "(", ")");
          last_had_args = true;
        }
        if (j < t.size() && (IsPunct(t[j], ".") || IsPunct(t[j], "->"))) {
          ++j;
          continue;
        }
        if (j < t.size() && IsPunct(t[j], "::")) {
          qualified = true;
        }
        break;
      }
      if (!qualified && units >= 2 && last_had_args && j < t.size() &&
          IsPunct(t[j], ";")) {
        auto it = nodiscard_methods_.find(last_unit);
        if (it != nodiscard_methods_.end()) {
          for (const std::string& cls : it->second) {
            if (ReceiverMatchesClass(prev_unit, cls)) {
              AddFinding(file, "E1", tok.line, tok.col,
                         "discarded return value of [[nodiscard]] " + cls +
                             "::" + last_unit + "() — handle the result or add a "
                             "sciolint allow annotation",
                         out);
              break;
            }
          }
        }
      }
    }
  }

  // Flow-sensitive rules (F1/W1/H1/E2/X1): per-function CFG + dataflow.
  for (const FlowFinding& ff : CheckFlowRules(file, flow_ctx_)) {
    AddFinding(file, ff.rule, ff.line, ff.col, ff.message, out);
  }
}

void Analysis::CheckTaxonomies(std::vector<Finding>* out) {
  // C1 orphan categories: declared but never referenced at a charge site.
  for (const auto& [cat, where] : charge_cats_) {
    if (charge_cat_refs_.count(cat) != 0) {
      continue;
    }
    for (const LexedFile& file : files_) {
      if (file.path == where.first) {
        AddFinding(file, "C1", where.second, 1,
                   "charge category '" + cat +
                       "' is declared but never referenced at any charge site — "
                       "dead taxonomy or a charge site lost its tag",
                   out);
        break;
      }
    }
  }

  // M1: unique counter names, `subsystem.metric` shape.
  std::map<std::string, int> seen_rows;
  std::map<std::string, int> seen_fields;
  for (const StatField& f : stat_fields_) {
    const LexedFile* file = nullptr;
    for (const LexedFile& lf : files_) {
      if (lf.path == f.path) {
        file = &lf;
        break;
      }
    }
    if (file == nullptr) {
      continue;
    }
    if (auto [it, inserted] = seen_fields.emplace(f.field, f.line); !inserted) {
      AddFinding(*file, "M1", f.line, 1,
                 "KernelStats field '" + f.field + "' duplicates the field on line " +
                     std::to_string(it->second),
                 out);
    }
    if (auto [it, inserted] = seen_rows.emplace(f.row, f.line); !inserted) {
      AddFinding(*file, "M1", f.line, 1,
                 "KernelStats counter name '" + f.row +
                     "' duplicates the name on line " + std::to_string(it->second),
                 out);
    }
    // Shape: lowercase snake segments joined by at least one dot.
    bool ok = !f.row.empty() && f.row.find('.') != std::string::npos;
    if (ok) {
      bool prev_sep = true;
      for (char c : f.row) {
        if (c == '.') {
          if (prev_sep) {
            ok = false;
            break;
          }
          prev_sep = true;
        } else if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_') {
          prev_sep = false;
        } else {
          ok = false;
          break;
        }
      }
      if (prev_sep) {
        ok = false;  // trailing dot
      }
    }
    if (!ok) {
      AddFinding(*file, "M1", f.line, 1,
                 "KernelStats counter name '" + f.row +
                     "' does not follow the `subsystem.metric` convention "
                     "(lowercase snake segments joined by '.')",
                 out);
    }
  }
}

std::vector<Finding> Analysis::Run() {
  unordered_vars_.clear();
  nodiscard_methods_.clear();
  charge_cats_.clear();
  charge_cat_refs_.clear();
  stat_fields_.clear();
  mem_sys_.clear();
  flow_ctx_.taxonomy_enums.clear();

  for (const LexedFile& file : files_) {
    CollectIndex(file);
  }
  for (const auto& [cat, where] : charge_cats_) {
    flow_ctx_.taxonomy_enums["ChargeCat"].insert(cat);
  }
  if (!mem_sys_.empty()) {
    flow_ctx_.taxonomy_enums["MemSys"] = mem_sys_;
  }
  std::vector<Finding> findings;
  for (const LexedFile& file : files_) {
    CheckFile(file, &findings);
  }
  CheckTaxonomies(&findings);
  std::sort(findings.begin(), findings.end(), [](const Finding& a, const Finding& b) {
    if (a.path != b.path) {
      return a.path < b.path;
    }
    if (a.line != b.line) {
      return a.line < b.line;
    }
    if (a.col != b.col) {
      return a.col < b.col;
    }
    return a.rule < b.rule;
  });
  return findings;
}

}  // namespace scio::lint
