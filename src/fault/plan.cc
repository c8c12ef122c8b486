#include "fault/plan.h"

#include <charconv>
#include <cmath>

#include "common/strings.h"
#include "config/syntax.h"

namespace bistro {

namespace {

// Fault plans share the configuration language's front end
// (config/syntax.h); they are a test/ops artifact, not part of the
// server configuration, so their grammar lives here.
class PlanParser {
 public:
  explicit PlanParser(TokenCursor cursor) : c_(std::move(cursor)) {}

  Result<FaultPlan> Run() {
    FaultPlan plan;
    BISTRO_RETURN_IF_ERROR(c_.ExpectWord("fault_plan"));
    BISTRO_RETURN_IF_ERROR(c_.ExpectPunct("{"));
    while (!c_.TakePunct("}")) {
      if (c_.AtEof()) return c_.Err("unterminated fault_plan");
      if (c_.TakeWord("seed")) {
        BISTRO_ASSIGN_OR_RETURN(std::string text, c_.TakeNumber());
        auto [end, ec] =
            std::from_chars(text.data(), text.data() + text.size(), plan.seed);
        if (ec != std::errc() || end != text.data() + text.size()) {
          return c_.Err("seed must be an unsigned 64-bit integer");
        }
        BISTRO_RETURN_IF_ERROR(c_.ExpectPunct(";"));
      } else if (c_.TakeWord("vfs")) {
        BISTRO_RETURN_IF_ERROR(ParseVfs(&plan.vfs));
      } else if (c_.TakeWord("net")) {
        BISTRO_RETURN_IF_ERROR(ParseNet(&plan.net));
      } else {
        return c_.Err("unknown fault_plan attribute");
      }
    }
    if (!c_.AtEof()) return c_.Err("trailing input after fault_plan");
    return plan;
  }

 private:
  Result<double> TakeProb() { return c_.TakeDouble("probability", 0, 1); }

  Status ParseVfs(VfsFaultSpec* vfs) {
    BISTRO_RETURN_IF_ERROR(c_.ExpectPunct("{"));
    while (!c_.TakePunct("}")) {
      if (c_.AtEof()) return c_.Err("unterminated vfs block");
      if (c_.TakeWord("write_error")) {
        BISTRO_ASSIGN_OR_RETURN(vfs->write_error_prob, TakeProb());
      } else if (c_.TakeWord("torn_write")) {
        BISTRO_ASSIGN_OR_RETURN(vfs->torn_write_prob, TakeProb());
      } else if (c_.TakeWord("sync_error")) {
        BISTRO_ASSIGN_OR_RETURN(vfs->sync_error_prob, TakeProb());
      } else if (c_.TakeWord("scope")) {
        BISTRO_ASSIGN_OR_RETURN(vfs->scope, c_.TakeString());
      } else {
        return c_.Err("unknown vfs attribute");
      }
      BISTRO_RETURN_IF_ERROR(c_.ExpectPunct(";"));
    }
    return Status::OK();
  }

  // `"from" "to"`: the two distinct endpoints of a link directive.
  Status TakeLink(const std::string& verb, std::string* from, std::string* to) {
    BISTRO_ASSIGN_OR_RETURN(*from, c_.TakeString());
    BISTRO_ASSIGN_OR_RETURN(*to, c_.TakeString());
    if (*from == *to) return c_.Err(verb + " endpoints must differ");
    return Status::OK();
  }

  Status ParseNet(NetFaultSpec* net) {
    BISTRO_RETURN_IF_ERROR(c_.ExpectPunct("{"));
    while (!c_.TakePunct("}")) {
      if (c_.AtEof()) return c_.Err("unterminated net block");
      BISTRO_ASSIGN_OR_RETURN(std::string attr, c_.TakeIdent());
      if (attr == "send_failure") {
        BISTRO_ASSIGN_OR_RETURN(net->send_failure_prob, TakeProb());
      } else if (attr == "corrupt") {
        BISTRO_ASSIGN_OR_RETURN(net->corrupt_prob, TakeProb());
      } else if (attr == "ack_loss") {
        BISTRO_ASSIGN_OR_RETURN(net->ack_loss_prob, TakeProb());
      } else if (attr == "flap") {
        LinkFlap& flap = net->flaps.emplace_back();
        BISTRO_ASSIGN_OR_RETURN(flap.endpoint, c_.TakeString());
        BISTRO_RETURN_IF_ERROR(c_.ExpectWord("down"));
        BISTRO_ASSIGN_OR_RETURN(flap.down_at, c_.TakeDuration());
        BISTRO_RETURN_IF_ERROR(c_.ExpectWord("up"));
        BISTRO_ASSIGN_OR_RETURN(flap.up_at, c_.TakeDuration());
        if (flap.up_at <= flap.down_at) {
          return c_.Err("flap must heal after it fails");
        }
      } else if (attr == "degrade") {
        LinkDegrade& deg = net->degrades.emplace_back();
        BISTRO_ASSIGN_OR_RETURN(deg.endpoint, c_.TakeString());
        BISTRO_ASSIGN_OR_RETURN(
            deg.factor, c_.TakeDouble("degrade factor", 1, HUGE_VAL));
      } else if (attr == "partition" || attr == "blackhole" ||
                 attr == "slow_link") {
        LinkFault& fault = net->link_faults.emplace_back();
        fault.kind = attr == "partition"   ? LinkFault::Kind::kPartition
                     : attr == "blackhole" ? LinkFault::Kind::kBlackhole
                                           : LinkFault::Kind::kSlowLink;
        BISTRO_RETURN_IF_ERROR(TakeLink(attr, &fault.from, &fault.to));
        if (fault.kind == LinkFault::Kind::kSlowLink) {
          BISTRO_ASSIGN_OR_RETURN(fault.delay,
                                  c_.TakeDuration("slow_link delay", 1));
        }
        BISTRO_RETURN_IF_ERROR(c_.ExpectWord("at"));
        BISTRO_ASSIGN_OR_RETURN(fault.at, c_.TakeDuration());
      } else if (attr == "heal") {
        LinkHeal& heal = net->link_heals.emplace_back();
        BISTRO_RETURN_IF_ERROR(TakeLink(attr, &heal.from, &heal.to));
        BISTRO_RETURN_IF_ERROR(c_.ExpectWord("at"));
        BISTRO_ASSIGN_OR_RETURN(heal.at, c_.TakeDuration());
      } else {
        return c_.Err("unknown net attribute '" + attr + "'");
      }
      BISTRO_RETURN_IF_ERROR(c_.ExpectPunct(";"));
    }
    return Status::OK();
  }

  TokenCursor c_;
};

}  // namespace

Result<FaultPlan> ParseFaultPlan(std::string_view text) {
  BISTRO_ASSIGN_OR_RETURN(
      TokenCursor cursor,
      TokenCursor::Lex(text, "fault plan", /*leading_dot_numbers=*/true));
  return PlanParser(std::move(cursor)).Run();
}

std::string FormatFaultPlan(const FaultPlan& plan) {
  std::string out = "fault_plan {\n";
  out += StrFormat("  seed %llu;\n", (unsigned long long)plan.seed);
  auto prob = [&out](const char* key, double p) {
    if (p > 0) {
      out += std::string("    ") + key + " " + DoubleLiteral(p) + ";\n";
    }
  };
  const VfsFaultSpec& v = plan.vfs;
  if (v != VfsFaultSpec{}) {
    out += "  vfs {\n";
    prob("write_error", v.write_error_prob);
    prob("torn_write", v.torn_write_prob);
    prob("sync_error", v.sync_error_prob);
    if (!v.scope.empty()) out += "    scope " + Quote(v.scope) + ";\n";
    out += "  }\n";
  }
  const NetFaultSpec& n = plan.net;
  if (n != NetFaultSpec{}) {
    out += "  net {\n";
    prob("send_failure", n.send_failure_prob);
    prob("corrupt", n.corrupt_prob);
    prob("ack_loss", n.ack_loss_prob);
    for (const LinkFlap& f : n.flaps) {
      out += "    flap " + Quote(f.endpoint) + " down " +
             DurationLiteral(f.down_at) + " up " + DurationLiteral(f.up_at) +
             ";\n";
    }
    for (const LinkDegrade& d : n.degrades) {
      out += "    degrade " + Quote(d.endpoint) + " " +
             DoubleLiteral(d.factor) + ";\n";
    }
    for (const LinkFault& f : n.link_faults) {
      const char* verb = f.kind == LinkFault::Kind::kPartition ? "partition"
                         : f.kind == LinkFault::Kind::kBlackhole
                             ? "blackhole"
                             : "slow_link";
      out += std::string("    ") + verb + " " + Quote(f.from) + " " +
             Quote(f.to);
      if (f.kind == LinkFault::Kind::kSlowLink) {
        out += " " + DurationLiteral(f.delay);
      }
      out += " at " + DurationLiteral(f.at) + ";\n";
    }
    for (const LinkHeal& h : n.link_heals) {
      out += "    heal " + Quote(h.from) + " " + Quote(h.to) + " at " +
             DurationLiteral(h.at) + ";\n";
    }
    out += "  }\n";
  }
  out += "}\n";
  return out;
}

}  // namespace bistro
