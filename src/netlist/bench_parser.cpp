#include "netlist/bench_parser.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace xtalk::netlist {

namespace {

std::string trim(std::string_view s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string(s.substr(b, e - b));
}

std::string upper(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  return s;
}

struct ParsedGate {
  std::string output;
  std::string func;
  std::vector<std::string> args;
  std::size_t line_no = 0;
};

bool func_from_name(const std::string& f, CellFunc& out) {
  if (f == "NOT" || f == "INV") { out = CellFunc::kInv; return true; }
  if (f == "BUF" || f == "BUFF") { out = CellFunc::kBuf; return true; }
  if (f == "AND") { out = CellFunc::kAnd; return true; }
  if (f == "NAND") { out = CellFunc::kNand; return true; }
  if (f == "OR") { out = CellFunc::kOr; return true; }
  if (f == "NOR") { out = CellFunc::kNor; return true; }
  if (f == "XOR") { out = CellFunc::kXor; return true; }
  if (f == "XNOR") { out = CellFunc::kXnor; return true; }
  if (f == "DFF") { out = CellFunc::kDff; return true; }
  return false;
}

/// Largest direct fanin the library supports per function.
std::size_t max_fanin(CellFunc func) {
  switch (func) {
    case CellFunc::kNand:
    case CellFunc::kNor:
      return 4;
    case CellFunc::kAnd:
    case CellFunc::kOr:
      return 3;
    default:
      return 2;
  }
}

/// Decompose a wide AND/OR/NAND/NOR into a balanced tree of narrower
/// gates, creating intermediate nets named <out>$t<n>. Returns the list of
/// (cell, output net name, input net names) gates to instantiate, in
/// topological order.
struct TreeGate {
  CellFunc func;
  std::string output;
  std::vector<std::string> inputs;
};

void decompose(CellFunc func, const std::string& output,
               std::vector<std::string> inputs, std::vector<TreeGate>& out) {
  const std::size_t width = max_fanin(func);
  if (inputs.size() <= width) {
    out.push_back({func, output, std::move(inputs)});
    return;
  }
  // Reduce with the *non-inverting* base function, inverting only at the
  // root for NAND/NOR: NAND(a..z) == NOT(AND(a..z)).
  const bool inverting = func == CellFunc::kNand || func == CellFunc::kNor;
  const CellFunc base = (func == CellFunc::kNand || func == CellFunc::kAnd)
                            ? CellFunc::kAnd
                            : CellFunc::kOr;
  const std::size_t base_width = max_fanin(base);
  std::size_t counter = 0;
  std::vector<std::string> level = std::move(inputs);
  while (level.size() > base_width) {
    std::vector<std::string> next;
    for (std::size_t i = 0; i < level.size(); i += base_width) {
      const std::size_t n = std::min(base_width, level.size() - i);
      if (n == 1) {
        next.push_back(level[i]);
        continue;
      }
      std::string mid = output + "$t" + std::to_string(counter++);
      out.push_back({base,
                     mid,
                     {level.begin() + static_cast<std::ptrdiff_t>(i),
                      level.begin() + static_cast<std::ptrdiff_t>(i + n)}});
      next.push_back(std::move(mid));
    }
    level = std::move(next);
  }
  out.push_back({inverting ? (base == CellFunc::kAnd ? CellFunc::kNand
                                                     : CellFunc::kNor)
                           : base,
                 output, std::move(level)});
}

}  // namespace

Netlist parse_bench(std::string_view text, const CellLibrary& library,
                    const util::ParseLimits& limits, util::DiagSink* sink) {
  util::ParseDiag pd("<bench>", limits, sink);
  Netlist nl(library);

  std::vector<std::string> inputs;
  std::vector<std::string> outputs;
  std::vector<ParsedGate> gates;

  std::size_t line_no = 0;
  std::size_t pos = 0;
  std::size_t tokens = 0;
  auto count_token = [&] {
    if (++tokens > limits.max_tokens) {
      pd.fatal(util::DiagCode::kInputLimit, static_cast<std::int64_t>(line_no),
               "token count exceeds limit (" +
                   std::to_string(limits.max_tokens) + ")");
    }
  };
  bool recovering = true;
  while (recovering && pos <= text.size()) {
    const std::size_t nl_pos = text.find('\n', pos);
    const std::size_t raw_len =
        (nl_pos == std::string_view::npos ? text.size() : nl_pos) - pos;
    ++line_no;
    if (raw_len > limits.max_line_length) {
      pd.fatal(util::DiagCode::kInputLimit, static_cast<std::int64_t>(line_no),
               "line length " + std::to_string(raw_len) +
                   " exceeds limit (" +
                   std::to_string(limits.max_line_length) + ")");
    }
    std::string line = trim(text.substr(pos, raw_len));
    pos = nl_pos == std::string_view::npos ? text.size() + 1 : nl_pos + 1;
    if (line.empty() || line[0] == '#') continue;
    // Recovery is per-line: every diagnostic below abandons this line only
    // and the loop continues with the next one (until max_errors trips).
    auto bad_line = [&](const std::string& msg) {
      recovering = pd.error(static_cast<std::int64_t>(line_no), msg);
    };

    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      // INPUT(x) or OUTPUT(x)
      const std::size_t open = line.find('(');
      const std::size_t close = line.rfind(')');
      if (open == std::string::npos || close == std::string::npos ||
          close < open) {
        bad_line("expected INPUT(...) or OUTPUT(...): '" + line + "'");
        continue;
      }
      const std::string kw = upper(trim(line.substr(0, open)));
      const std::string arg = trim(line.substr(open + 1, close - open - 1));
      count_token();
      if (arg.empty()) {
        bad_line("empty port name");
        continue;
      }
      if (kw == "INPUT") {
        inputs.push_back(arg);
      } else if (kw == "OUTPUT") {
        outputs.push_back(arg);
      } else {
        bad_line("unknown directive '" + kw + "'");
      }
      continue;
    }

    ParsedGate g;
    g.line_no = line_no;
    g.output = trim(line.substr(0, eq));
    if (g.output.empty()) {
      bad_line("empty gate output name");
      continue;
    }
    const std::string rhs = trim(line.substr(eq + 1));
    const std::size_t open = rhs.find('(');
    const std::size_t close = rhs.rfind(')');
    if (open == std::string::npos || close == std::string::npos ||
        close < open) {
      bad_line("expected FUNC(args): '" + rhs + "'");
      continue;
    }
    g.func = upper(trim(rhs.substr(0, open)));
    std::stringstream args(rhs.substr(open + 1, close - open - 1));
    std::string a;
    bool args_ok = true;
    while (std::getline(args, a, ',')) {
      a = trim(a);
      count_token();
      if (a.empty()) {
        bad_line("empty argument");
        args_ok = false;
        break;
      }
      g.args.push_back(a);
    }
    if (!args_ok) continue;
    if (g.args.empty()) {
      bad_line("gate with no inputs");
      continue;
    }
    if (g.args.size() > limits.max_gate_args) {
      bad_line("gate fanin " + std::to_string(g.args.size()) +
               " exceeds limit (" + std::to_string(limits.max_gate_args) +
               ")");
      continue;
    }
    if (gates.size() >= limits.max_instances) {
      pd.fatal(util::DiagCode::kInputLimit, static_cast<std::int64_t>(line_no),
               "instance count exceeds limit (" +
                   std::to_string(limits.max_instances) + ")");
    }
    gates.push_back(std::move(g));
  }

  // Create the implicit clock net first if any DFF is present, so it gets a
  // stable id.
  const bool has_ff = std::any_of(gates.begin(), gates.end(),
                                  [](const ParsedGate& g) {
                                    return upper(g.func) == "DFF";
                                  });
  if (has_ff) {
    const NetId clk = nl.add_net("CLK", NetKind::kClock);
    nl.mark_primary_input(clk);
    nl.set_clock_net(clk);
  }

  auto check_nets = [&](std::size_t line) {
    if (nl.num_nets() > limits.max_nets) {
      pd.fatal(util::DiagCode::kInputLimit, static_cast<std::int64_t>(line),
               "net count exceeds limit (" + std::to_string(limits.max_nets) +
                   ")");
    }
  };

  for (const std::string& in : inputs) {
    if (!recovering) break;
    try {
      nl.mark_primary_input(nl.add_net(in));
    } catch (const std::exception& e) {
      recovering = pd.error(-1, e.what());
    }
    check_nets(0);
  }

  // Semantic errors (unknown function, bad arity, a net driven twice) skip
  // the offending gate and keep going — the netlist core's own
  // std::runtime_error throws become recorded diagnostics here. Limit hits
  // (DiagError from check_nets) stay fatal.
  std::size_t ff_index = 0;
  for (const ParsedGate& g : gates) {
    if (!recovering) break;
    auto bad_gate = [&](const std::string& msg) {
      recovering = pd.error(static_cast<std::int64_t>(g.line_no), msg);
    };
    try {
      CellFunc func;
      if (!func_from_name(g.func, func)) {
        bad_gate("unknown function '" + g.func + "'");
        continue;
      }
      if (func == CellFunc::kDff) {
        if (g.args.size() != 1) {
          bad_gate("DFF takes exactly one input");
          continue;
        }
        const Cell& cell = library.by_func(CellFunc::kDff, 1);
        const NetId d = nl.add_net(g.args[0]);
        const NetId q = nl.add_net(g.output);
        nl.add_gate("ff" + std::to_string(ff_index++) + "_" + g.output, cell,
                    {d, nl.clock_net(), q});
        check_nets(g.line_no);
        continue;
      }
      if ((func == CellFunc::kInv || func == CellFunc::kBuf) &&
          g.args.size() != 1) {
        bad_gate(g.func + " takes exactly one input");
        continue;
      }
      if ((func == CellFunc::kXor || func == CellFunc::kXnor) &&
          g.args.size() != 2) {
        bad_gate(g.func + " takes exactly two inputs");
        continue;
      }
      if (g.args.size() == 1 && func != CellFunc::kInv &&
          func != CellFunc::kBuf) {
        // Single-input AND/OR/NAND/NOR degenerate to BUF/NOT.
        const CellFunc unary =
            (func == CellFunc::kNand || func == CellFunc::kNor)
                ? CellFunc::kInv
                : CellFunc::kBuf;
        const Cell& cell = library.by_func(unary, 1);
        nl.add_gate(g.output, cell,
                    {nl.add_net(g.args[0]), nl.add_net(g.output)});
        check_nets(g.line_no);
        continue;
      }
      std::vector<TreeGate> tree;
      decompose(func, g.output, g.args, tree);
      for (TreeGate& tg : tree) {
        const Cell& cell = library.by_func(tg.func, tg.inputs.size());
        std::vector<NetId> pins;
        pins.reserve(tg.inputs.size() + 1);
        for (const std::string& in : tg.inputs) pins.push_back(nl.add_net(in));
        pins.push_back(nl.add_net(tg.output));
        nl.add_gate(tg.output, cell, std::move(pins));
      }
      check_nets(g.line_no);
    } catch (const util::DiagError&) {
      throw;  // a fatal limit hit, not a recoverable gate error
    } catch (const std::exception& e) {
      bad_gate(e.what());
    }
  }

  for (const std::string& out : outputs) {
    if (!recovering) break;
    const NetId id = nl.find_net(out);
    if (id == kNoNet) {
      recovering = pd.error(-1, "OUTPUT(" + out + ") is never driven");
      continue;
    }
    nl.mark_primary_output(id);
  }

  pd.finish();
  try {
    nl.validate();
  } catch (const std::exception& e) {
    // Structural inconsistency that survived a clean parse: still routed
    // through DiagError so every front-end failure carries a Diagnostic.
    pd.fatal(util::DiagCode::kParseError, -1, e.what());
  }
  return nl;
}

Netlist parse_bench_file(const std::string& path, const CellLibrary& library,
                         const util::ParseLimits& limits,
                         util::DiagSink* sink) {
  std::ifstream in(path);
  if (!in) {
    util::ParseDiag pd(path, limits, sink);
    pd.fatal(util::DiagCode::kFileError, -1, "cannot open " + path);
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse_bench(ss.str(), library, limits, sink);
}

std::string write_bench(const Netlist& nl) {
  std::ostringstream os;
  os << "# written by xtalk-sta\n";
  for (const NetId id : nl.primary_inputs()) {
    if (id == nl.clock_net()) continue;  // implicit in the format
    os << "INPUT(" << nl.net(id).name << ")\n";
  }
  for (const NetId id : nl.primary_outputs()) {
    os << "OUTPUT(" << nl.net(id).name << ")\n";
  }
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    const Gate& gate = nl.gate(g);
    const Cell& cell = *gate.cell;
    std::string func;
    switch (cell.func()) {
      case CellFunc::kInv: func = "NOT"; break;
      case CellFunc::kBuf: func = "BUF"; break;
      case CellFunc::kNand: func = "NAND"; break;
      case CellFunc::kNor: func = "NOR"; break;
      case CellFunc::kAnd: func = "AND"; break;
      case CellFunc::kOr: func = "OR"; break;
      case CellFunc::kXor: func = "XOR"; break;
      case CellFunc::kXnor: func = "XNOR"; break;
      case CellFunc::kAoi21: func = "AOI21"; break;
      case CellFunc::kOai21: func = "OAI21"; break;
      case CellFunc::kDff: func = "DFF"; break;
    }
    os << nl.net(gate.pin_nets[cell.output_pin()]).name << " = " << func << "(";
    bool first = true;
    for (std::uint32_t p = 0; p < gate.pin_nets.size(); ++p) {
      const PinDir dir = cell.pins()[p].dir;
      if (dir == PinDir::kOutput) continue;
      if (dir == PinDir::kClock) continue;  // implicit clock
      if (!first) os << ", ";
      first = false;
      os << nl.net(gate.pin_nets[p]).name;
    }
    os << ")\n";
  }
  return os.str();
}

}  // namespace xtalk::netlist
