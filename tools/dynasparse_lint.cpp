// dynasparse_lint — repo-invariant lint, exit-code gated in CI.
//
// Nine PRs of growth accumulated contracts enforced only by convention;
// this tool turns the load-bearing ones into machine checks:
//
//   [raw-parse]          No raw getenv / std::stoi-family / atoi / strtol
//                        outside util/strict_parse.* — every numeric or
//                        env knob goes through the whole-token parsers so
//                        a typo can never silently change behavior.
//   [error-taxonomy]     No `std::runtime_error(...)` constructed in
//                        src/service or src/net: those layers speak the
//                        closed error taxonomy (ShutdownError,
//                        NetSetupError, StreamParseError, ...) so the
//                        wire layer can map every failure deliberately.
//                        Deriving from std::runtime_error is fine — only
//                        constructing the base type is flagged.
//   [fault-site]         Every fault_point(...) argument must be a
//                        kFault* constant from the declared-site registry
//                        in src/util/fault_injection.hpp (or a literal
//                        registered there), so DYNASPARSE_FAULT_SPEC can
//                        never name a dead site.
//   [signature-tripwire] Every repo struct hashed by const-reference in
//                        src/compiler/signature.cpp must have a
//                        static_assert(sizeof(T) == N) tripwire in that
//                        file, so adding a field without updating the
//                        hash fails the build instead of silently
//                        aliasing cache keys.
//   [cache-core]         Inside src/, std::promise and std::shared_future
//                        appear only in src/util/keyed_future_cache.hpp:
//                        every reuse tier wraps that one cache core
//                        instead of re-implementing its fill protocol
//                        (in-flight dedup, hand-off, held-entry eviction).
//   [stats-keys]         Inside src/net/ and tools/dynasparse_serve.cpp, no
//                        string literal spells a stats key — a lowercase
//                        identifier followed by `=` (" cache_hits=") or a
//                        JSON key ("\"cache_hits\": "). Counters are named
//                        once, in InferenceService::metrics() and
//                        NetServer::metrics(), and every output renders
//                        that list (util/metrics.hpp) instead of typing
//                        its own copy.
//
// A finding can be waived per line with `// dynasparse-lint: allow(rule)`
// — the annotation is the audit trail.
//
// Modes:
//   dynasparse_lint --root <repo-root>       lint the tree; exit 1 on findings
//   dynasparse_lint --selftest <fixture-dir> lint the fixture tree and require
//                                            the findings to match GOLDEN.txt
//                                            exactly (proves the rules fire)
//
// The scanner is a line-oriented token pass, not a compiler: it strips
// comments and string/char literals with a small state machine (raw
// strings included) and matches whole identifiers. That is deliberate —
// the rules above are all lexical, and a zero-dependency binary keeps
// the check runnable everywhere the build runs.

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

struct Finding {
  std::string file;  // repo-relative, '/'-separated
  long line = 0;
  std::string rule;
  std::string message;

  std::string format() const {
    std::ostringstream os;
    os << file << ":" << line << ": [" << rule << "] " << message;
    return os.str();
  }
  bool operator<(const Finding& o) const {
    if (file != o.file) return file < o.file;
    if (line != o.line) return line < o.line;
    if (rule != o.rule) return rule < o.rule;
    return message < o.message;
  }
};

/// One scanned file: raw lines (for allow-marker lookup) plus two views
/// with comments removed — `code` keeps string literals (fault_point
/// arguments, registry definitions), `code_nostr` blanks them too (so a
/// log message mentioning "atoi" can never trip a rule).
struct FileView {
  std::string rel;
  std::vector<std::string> raw;
  std::vector<std::string> code;
  std::vector<std::string> code_nostr;
};

/// Strip //, /*...*/ and (optionally) string/char literals, preserving
/// line structure and column positions (stripped chars become spaces).
std::vector<std::string> strip(const std::string& text, bool blank_strings) {
  std::vector<std::string> lines;
  std::string cur;
  enum class St { kCode, kLineComment, kBlockComment, kString, kChar, kRawString };
  St st = St::kCode;
  std::string raw_delim;  // for R"delim( ... )delim"
  const std::size_t n = text.size();
  for (std::size_t i = 0; i < n; ++i) {
    const char c = text[i];
    if (c == '\n') {
      if (st == St::kLineComment) st = St::kCode;
      lines.push_back(cur);
      cur.clear();
      continue;
    }
    switch (st) {
      case St::kCode: {
        const char next = i + 1 < n ? text[i + 1] : '\0';
        if (c == '/' && next == '/') {
          st = St::kLineComment;
          cur += "  ";
          ++i;
        } else if (c == '/' && next == '*') {
          st = St::kBlockComment;
          cur += "  ";
          ++i;
        } else if (c == '"') {
          // R"delim( opens a raw string; the R (or u8R etc.) was already
          // emitted as code, which is harmless — it is not an identifier
          // any rule matches alone.
          bool raw = false;
          if (i > 0 && text[i - 1] == 'R') {
            std::size_t j = i + 1;
            raw_delim.clear();
            while (j < n && text[j] != '(' && text[j] != '\n' &&
                   raw_delim.size() < 16)
              raw_delim += text[j++];
            if (j < n && text[j] == '(') raw = true;
          }
          if (raw) {
            st = St::kRawString;
            cur += blank_strings ? ' ' : c;
          } else {
            st = St::kString;
            cur += blank_strings ? ' ' : c;
          }
        } else if (c == '\'') {
          st = St::kChar;
          cur += blank_strings ? ' ' : c;
        } else {
          cur += c;
        }
        break;
      }
      case St::kLineComment:
        cur += ' ';
        break;
      case St::kBlockComment:
        if (c == '*' && i + 1 < n && text[i + 1] == '/') {
          st = St::kCode;
          cur += "  ";
          ++i;
        } else {
          cur += ' ';
        }
        break;
      case St::kString:
        if (c == '\\' && i + 1 < n) {
          cur += blank_strings ? "  " : text.substr(i, 2);
          ++i;
        } else {
          if (c == '"') st = St::kCode;
          cur += blank_strings ? ' ' : c;
        }
        break;
      case St::kChar:
        if (c == '\\' && i + 1 < n) {
          cur += blank_strings ? "  " : text.substr(i, 2);
          ++i;
        } else {
          if (c == '\'') st = St::kCode;
          cur += blank_strings ? ' ' : c;
        }
        break;
      case St::kRawString: {
        const std::string close = ")" + raw_delim + "\"";
        if (text.compare(i, close.size(), close) == 0) {
          st = St::kCode;
          cur += blank_strings ? std::string(close.size(), ' ')
                               : close;
          i += close.size() - 1;
        } else {
          cur += blank_strings ? ' ' : c;
        }
        break;
      }
    }
  }
  if (!cur.empty() || text.empty() || text.back() != '\n') lines.push_back(cur);
  return lines;
}

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Find whole-identifier occurrences of `id` in `line`; returns columns.
std::vector<std::size_t> find_ident(const std::string& line, const std::string& id) {
  std::vector<std::size_t> out;
  std::size_t pos = 0;
  while ((pos = line.find(id, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !ident_char(line[pos - 1]);
    const std::size_t end = pos + id.size();
    const bool right_ok = end >= line.size() || !ident_char(line[end]);
    if (left_ok && right_ok) out.push_back(pos);
    pos = end;
  }
  return out;
}

bool allow_marker(const std::string& raw_line, const std::string& rule) {
  return raw_line.find("dynasparse-lint: allow(" + rule + ")") != std::string::npos;
}

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// ---- rule: raw-parse -------------------------------------------------------

const char* const kRawParseIdents[] = {
    "getenv", "atoi",  "atol",  "atoll",  "atof",  "strtol", "strtoul",
    "strtoll", "strtoull", "strtod", "strtof", "stoi", "stol", "stoul",
    "stoll", "stoull", "stod", "stof",
};

void check_raw_parse(const FileView& f, std::vector<Finding>& out) {
  if (f.rel.find("util/strict_parse.") != std::string::npos) return;
  for (std::size_t i = 0; i < f.code_nostr.size(); ++i) {
    for (const char* id : kRawParseIdents) {
      if (find_ident(f.code_nostr[i], id).empty()) continue;
      if (allow_marker(f.raw[i], "raw-parse")) continue;
      out.push_back({f.rel, static_cast<long>(i + 1), "raw-parse",
                     std::string("raw parse/env call '") + id +
                         "' outside util/strict_parse; use the strict_* "
                         "wrappers (util/strict_parse.hpp)"});
    }
  }
}

// ---- rule: error-taxonomy --------------------------------------------------

void check_error_taxonomy(const FileView& f, std::vector<Finding>& out) {
  if (!starts_with(f.rel, "src/service/") && !starts_with(f.rel, "src/net/"))
    return;
  for (std::size_t i = 0; i < f.code_nostr.size(); ++i) {
    const std::string& line = f.code_nostr[i];
    for (std::size_t col : find_ident(line, "runtime_error")) {
      // Only flag CONSTRUCTION: `runtime_error` followed by '('. Base
      // clauses (`: std::runtime_error {`) and inherited constructors
      // (`using std::runtime_error::runtime_error;`) define taxonomy
      // types and are the point of the rule, not violations of it.
      std::size_t j = col + std::string("runtime_error").size();
      while (j < line.size() && std::isspace(static_cast<unsigned char>(line[j])))
        ++j;
      if (j >= line.size() || line[j] != '(') continue;
      if (allow_marker(f.raw[i], "error-taxonomy")) continue;
      out.push_back({f.rel, static_cast<long>(i + 1), "error-taxonomy",
                     "std::runtime_error constructed in the service/net "
                     "layer; throw a closed-taxonomy type instead "
                     "(service/errors.hpp, net/errors.hpp)"});
    }
  }
}

// ---- rule: cache-core ------------------------------------------------------

void check_cache_core(const FileView& f, std::vector<Finding>& out) {
  if (!starts_with(f.rel, "src/") || f.rel == "src/util/keyed_future_cache.hpp")
    return;
  for (std::size_t i = 0; i < f.code_nostr.size(); ++i) {
    const std::string& line = f.code_nostr[i];
    for (const char* id : {"promise", "shared_future"}) {
      for (std::size_t col : find_ident(line, id)) {
        if (col < 5 || line.compare(col - 5, 5, "std::") != 0) continue;
        if (allow_marker(f.raw[i], "cache-core")) continue;
        out.push_back({f.rel, static_cast<long>(i + 1), "cache-core",
                       std::string("std::") + id +
                           " outside src/util/keyed_future_cache.hpp; wrap "
                           "KeyedFutureCache instead of re-implementing its "
                           "fill protocol"});
      }
    }
  }
}

// ---- rule: stats-keys ------------------------------------------------------

void check_stats_keys(const FileView& f, std::vector<Finding>& out) {
  if (!starts_with(f.rel, "src/net/") && f.rel != "tools/dynasparse_serve.cpp")
    return;
  // `name=` (not `==`) or `\"name\":`, name a lowercase identifier.
  static const std::regex kKey(
      R"re(\b([a-z][a-z0-9_]*)=(?!=)|\\"([a-z][a-z0-9_]*)\\":)re");
  for (std::size_t i = 0; i < f.code.size(); ++i) {
    if (allow_marker(f.raw[i], "stats-keys")) continue;
    // String-literal text only: the characters the no-strings view blanked.
    std::string lit = f.code[i];
    for (std::size_t c = 0; c < lit.size() && c < f.code_nostr[i].size(); ++c)
      if (lit[c] == f.code_nostr[i][c]) lit[c] = ' ';
    for (std::sregex_iterator m(lit.begin(), lit.end(), kKey), end; m != end;
         ++m)
      out.push_back({f.rel, static_cast<long>(i + 1), "stats-keys",
                     "string literal spells the stats key '" +
                         ((*m)[1].matched ? (*m)[1] : (*m)[2]).str() +
                         "'; name it in InferenceService::metrics() or "
                         "NetServer::metrics() and render that list "
                         "(util/metrics.hpp)"});
  }
}

// ---- rule: fault-site ------------------------------------------------------

std::set<std::string> load_fault_registry(const fs::path& root, bool* found) {
  std::set<std::string> sites;
  const fs::path reg = root / "src" / "util" / "fault_injection.hpp";
  *found = fs::exists(reg);
  if (!*found) return sites;
  for (const std::string& line : strip(read_file(reg), false)) {
    // inline constexpr const char* kFaultX = "a.b";
    const std::size_t k = line.find("kFault");
    if (k == std::string::npos) continue;
    const std::size_t q1 = line.find('"', k);
    if (q1 == std::string::npos) continue;
    const std::size_t q2 = line.find('"', q1 + 1);
    if (q2 == std::string::npos) continue;
    sites.insert(line.substr(q1 + 1, q2 - q1 - 1));
  }
  return sites;
}

void check_fault_sites(const FileView& f, const std::set<std::string>& registry,
                       std::vector<Finding>& out) {
  // The registry header itself defines fault_point() and the constants.
  if (f.rel.find("util/fault_injection.") != std::string::npos) return;
  for (std::size_t i = 0; i < f.code.size(); ++i) {
    const std::string& line = f.code[i];
    for (std::size_t col : find_ident(line, "fault_point")) {
      std::size_t j = col + std::string("fault_point").size();
      while (j < line.size() && std::isspace(static_cast<unsigned char>(line[j])))
        ++j;
      if (j >= line.size() || line[j] != '(') continue;
      ++j;
      while (j < line.size() && std::isspace(static_cast<unsigned char>(line[j])))
        ++j;
      if (j >= line.size()) continue;
      if (allow_marker(f.raw[i], "fault-site")) continue;
      if (line[j] == '"') {
        const std::size_t q2 = line.find('"', j + 1);
        const std::string site =
            q2 == std::string::npos ? "" : line.substr(j + 1, q2 - j - 1);
        if (registry.count(site)) continue;
        out.push_back({f.rel, static_cast<long>(i + 1), "fault-site",
                       "fault_point(\"" + site +
                           "\") names a site missing from the registry in "
                           "src/util/fault_injection.hpp"});
      } else if (ident_char(line[j])) {
        std::size_t e = j;
        while (e < line.size() && ident_char(line[e])) ++e;
        const std::string arg = line.substr(j, e - j);
        if (starts_with(arg, "kFault")) continue;
        out.push_back({f.rel, static_cast<long>(i + 1), "fault-site",
                       "fault_point argument '" + arg +
                           "' is not a kFault* constant from "
                           "src/util/fault_injection.hpp"});
      }
    }
  }
}

// ---- rule: signature-tripwire ----------------------------------------------

void check_signature_tripwires(const fs::path& root, std::vector<Finding>& out) {
  const fs::path sig = root / "src" / "compiler" / "signature.cpp";
  if (!fs::exists(sig)) return;
  const std::string text = read_file(sig);
  const std::vector<std::string> code = strip(text, true);
  const std::vector<std::string> raw = strip(text, false);

  // Hashed types: every `const T&` / `const std::vector<T>&` parameter or
  // local where T is a repo struct (capitalized, unqualified).
  struct Use {
    std::string type;
    long line;
  };
  std::vector<Use> uses;
  std::set<std::string> seen;
  for (std::size_t i = 0; i < code.size(); ++i) {
    const std::string& line = code[i];
    for (std::size_t col : find_ident(line, "const")) {
      std::size_t j = col + 5;
      while (j < line.size() && std::isspace(static_cast<unsigned char>(line[j])))
        ++j;
      std::string inner;
      if (line.compare(j, 12, "std::vector<") == 0) {
        std::size_t e = j + 12;
        std::size_t k = e;
        while (k < line.size() && line[k] != '>') ++k;
        if (k >= line.size() || (k + 1 < line.size() && line[k + 1] != '&' &&
                                 line[k + 1] != ' '))
          continue;
        inner = line.substr(e, k - e);
        std::size_t a = k + 1;
        while (a < line.size() &&
               std::isspace(static_cast<unsigned char>(line[a])))
          ++a;
        if (a >= line.size() || line[a] != '&') continue;
      } else {
        std::size_t e = j;
        while (e < line.size() && ident_char(line[e])) ++e;
        inner = line.substr(j, e - j);
        std::size_t a = e;
        while (a < line.size() &&
               std::isspace(static_cast<unsigned char>(line[a])))
          ++a;
        if (a >= line.size() || line[a] != '&') continue;
      }
      if (inner.empty() || !std::isupper(static_cast<unsigned char>(inner[0])))
        continue;
      if (inner.find(':') != std::string::npos) continue;  // std:: etc.
      if (!seen.insert(inner).second) continue;
      uses.push_back({inner, static_cast<long>(i + 1)});
    }
  }

  for (const Use& u : uses) {
    bool asserted = false;
    for (const std::string& line : code) {
      const std::size_t a = line.find("static_assert");
      if (a == std::string::npos) continue;
      if (!find_ident(line, u.type).empty() &&
          line.find("sizeof", a) != std::string::npos) {
        asserted = true;
        break;
      }
    }
    if (asserted) continue;
    if (allow_marker(raw[static_cast<std::size_t>(u.line - 1)],
                     "signature-tripwire"))
      continue;
    out.push_back(
        {"src/compiler/signature.cpp", u.line, "signature-tripwire",
         "'" + u.type +
             "' is hashed here but has no static_assert(sizeof(" + u.type +
             ") == ...) tripwire in this file; adding a field without "
             "updating the hash must fail the build"});
  }
}

// ---- driver ----------------------------------------------------------------

bool scannable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".h" || ext == ".cc";
}

std::vector<Finding> lint_tree(const fs::path& root) {
  std::vector<Finding> findings;
  bool registry_found = false;
  const std::set<std::string> registry = load_fault_registry(root, &registry_found);

  static const char* const kRoots[] = {"src", "tools", "bench", "tests",
                                       "examples"};
  std::vector<fs::path> files;
  for (const char* sub : kRoots) {
    const fs::path dir = root / sub;
    if (!fs::is_directory(dir)) continue;
    for (const auto& ent : fs::recursive_directory_iterator(dir)) {
      if (!ent.is_regular_file() || !scannable(ent.path())) continue;
      const std::string rel =
          fs::relative(ent.path(), root).generic_string();
      // The fixture tree contains violations on purpose; build trees
      // contain generated copies.
      if (rel.find("lint_fixtures") != std::string::npos) continue;
      if (rel.find("build") == 0) continue;
      files.push_back(ent.path());
    }
  }
  std::sort(files.begin(), files.end());

  for (const fs::path& p : files) {
    FileView f;
    f.rel = fs::relative(p, root).generic_string();
    const std::string text = read_file(p);
    // allow markers live in comments, so the marker view is the raw text
    // split into lines, not a stripped view.
    {
      std::string cur;
      for (char c : text) {
        if (c == '\n') {
          f.raw.push_back(cur);
          cur.clear();
        } else {
          cur += c;
        }
      }
      if (!cur.empty()) f.raw.push_back(cur);
    }
    f.code = strip(text, false);
    f.code_nostr = strip(text, true);

    check_raw_parse(f, findings);
    check_error_taxonomy(f, findings);
    check_cache_core(f, findings);
    check_stats_keys(f, findings);
    if (registry_found) check_fault_sites(f, registry, findings);
  }

  check_signature_tripwires(root, findings);
  std::sort(findings.begin(), findings.end());
  return findings;
}

int run_selftest(const fs::path& fixture_dir) {
  const fs::path golden_path = fixture_dir / "GOLDEN.txt";
  if (!fs::exists(golden_path)) {
    std::fprintf(stderr, "dynasparse_lint: no GOLDEN.txt in %s\n",
                 fixture_dir.string().c_str());
    return 2;
  }
  std::vector<std::string> golden;
  {
    std::ifstream in(golden_path);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      golden.push_back(line);
    }
  }
  std::sort(golden.begin(), golden.end());

  std::vector<std::string> got;
  for (const Finding& f : lint_tree(fixture_dir)) got.push_back(f.format());

  if (golden.empty()) {
    // An empty golden list means the fixture tree went missing or the
    // rules stopped firing — either way the self-test proves nothing.
    std::fprintf(stderr, "dynasparse_lint: GOLDEN.txt lists no findings\n");
    return 2;
  }

  bool ok = true;
  for (const std::string& g : golden) {
    if (std::find(got.begin(), got.end(), g) == got.end()) {
      std::fprintf(stderr, "MISSING (expected, not reported): %s\n", g.c_str());
      ok = false;
    }
  }
  for (const std::string& g : got) {
    if (std::find(golden.begin(), golden.end(), g) == golden.end()) {
      std::fprintf(stderr, "UNEXPECTED (reported, not golden): %s\n", g.c_str());
      ok = false;
    }
  }
  if (!ok) return 1;
  std::printf("dynasparse_lint selftest: %zu/%zu fixture findings matched\n",
              got.size(), golden.size());
  return 0;
}

void usage() {
  std::fprintf(stderr,
               "usage: dynasparse_lint --root <repo-root>\n"
               "       dynasparse_lint --selftest <fixture-dir>\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    usage();
    return 2;
  }
  const std::string mode = argv[1];
  const fs::path dir = argv[2];
  if (!fs::is_directory(dir)) {
    std::fprintf(stderr, "dynasparse_lint: not a directory: %s\n",
                 dir.string().c_str());
    return 2;
  }
  if (mode == "--selftest") return run_selftest(dir);
  if (mode != "--root") {
    usage();
    return 2;
  }
  const std::vector<Finding> findings = lint_tree(dir);
  for (const Finding& f : findings) std::printf("%s\n", f.format().c_str());
  if (!findings.empty()) {
    std::fprintf(stderr, "dynasparse_lint: %zu finding(s)\n", findings.size());
    return 1;
  }
  std::printf("dynasparse_lint: clean\n");
  return 0;
}
