#include "sim/scenario_config.hpp"

#include <charconv>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <system_error>

namespace vpm::sim {
namespace {

/// The %.15g spelling when it parses back to `v` bit for bit (every
/// literal value keeps the spelling it was written in), else the fewest
/// extra digits that do — the repro line must re-run the identical config.
std::string fmt_double(double v) {
  char buf[32];
  for (int precision = 15;; ++precision) {
    char* end = std::to_chars(buf, buf + sizeof buf, v,
                              std::chars_format::general, precision)
                    .ptr;
    double back = 0.0;
    std::from_chars(buf, end, back);
    if (back == v || precision == 17) return std::string(buf, end);
  }
}

std::string join_domains(const std::vector<std::string>& domains) {
  std::string out;
  for (const std::string& d : domains) {
    if (!out.empty()) out += ',';
    out += d;
  }
  return out;
}

std::vector<std::string> split(std::string_view v, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= v.size()) {
    const std::size_t end = v.find(sep, start);
    if (end == std::string_view::npos) {
      out.emplace_back(v.substr(start));
      break;
    }
    out.emplace_back(v.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

std::int64_t to_us(net::Duration d) { return d.nanoseconds() / 1000; }

const char* loss_name(LossKind k) {
  switch (k) {
    case LossKind::kNone: return "none";
    case LossKind::kBernoulli: return "bernoulli";
    case LossKind::kGilbertElliott: return "ge";
    case LossKind::kCongestion: return "congestion";
  }
  return "none";
}

const char* adversary_name(AdversaryKind k) {
  switch (k) {
    case AdversaryKind::kHonest: return "honest";
    case AdversaryKind::kHideLoss: return "hide_loss";
    case AdversaryKind::kUnderstateDelay: return "understate_delay";
    case AdversaryKind::kCoverUpstream: return "cover";
  }
  return "honest";
}

[[noreturn]] void bad_token(const std::string& token, const std::string& why) {
  throw std::invalid_argument("scenario config: " + why + ": '" + token +
                              "'");
}

/// The whole value as one T.  std::from_chars takes no leading space and
/// no sign on an unsigned T, so `paths=-1` is malformed, not 2^64 - 1.
template <typename T>
T parse_number(const std::string& token, const std::string& value,
               const std::string& what) {
  T v{};
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, v);
  if (ec == std::errc::result_out_of_range) {
    bad_token(token, what + " out of range");
  }
  if (ec != std::errc{}) bad_token(token, "malformed " + what);
  if (ptr != end) bad_token(token, "trailing junk in " + what);
  return v;
}

double parse_double(const std::string& token, const std::string& value) {
  const double v = parse_number<double>(token, value, "number");
  // nan and inf parse, but no knob means anything by them (a NaN rate
  // would never end the traffic generator's arrival loop).
  if (!std::isfinite(v)) bad_token(token, "non-finite number");
  return v;
}

std::uint64_t parse_u64(const std::string& token, const std::string& value) {
  return parse_number<std::uint64_t>(token, value, "integer");
}

net::Duration parse_us(const std::string& token, const std::string& value) {
  return net::microseconds(static_cast<std::int64_t>(parse_u64(token, value)));
}

/// Parse "a:b:c" into three integers (link_down, route_flap, churn).
void parse_triple(const std::string& token, const std::string& value,
                  std::size_t& a, std::size_t& b, std::size_t& c) {
  const std::vector<std::string> parts = split(value, ':');
  if (parts.size() != 3) bad_token(token, "expected <a>:<b>:<c>");
  a = static_cast<std::size_t>(parse_u64(token, parts[0]));
  b = static_cast<std::size_t>(parse_u64(token, parts[1]));
  c = static_cast<std::size_t>(parse_u64(token, parts[2]));
}

}  // namespace

std::string ScenarioConfig::to_string() const {
  const ScenarioConfig def;
  std::string out;
  const auto put = [&out](const std::string& key, const std::string& value) {
    if (!out.empty()) out += ' ';
    out += key;
    out += '=';
    out += value;
  };

  put("name", name);
  put("seed", std::to_string(seed));
  if (domains != def.domains) put("domains", join_domains(domains));
  if (paths != def.paths) put("paths", std::to_string(paths));
  if (rounds != def.rounds) put("rounds", std::to_string(rounds));
  if (round_length != def.round_length) {
    put("round_us", std::to_string(to_us(round_length)));
  }
  if (packets_per_second != def.packets_per_second) {
    put("pps", fmt_double(packets_per_second));
  }
  if (zipf_s != def.zipf_s) put("zipf", fmt_double(zipf_s));
  if (digest_mode != def.digest_mode) {
    put("digest", digest_mode == net::DigestMode::kSingle ? "single"
                                                          : "independent");
  }
  if (marker_rate != def.marker_rate) {
    put("marker_rate", fmt_double(marker_rate));
  }
  if (marker_max_age != def.marker_max_age) {
    put("marker_max_age_us", std::to_string(to_us(marker_max_age)));
  }
  if (tuning.sample_rate != def.tuning.sample_rate) {
    put("sample_rate", fmt_double(tuning.sample_rate));
  }
  if (tuning.cut_rate != def.tuning.cut_rate) {
    put("cut_rate", fmt_double(tuning.cut_rate));
  }
  if (shards != def.shards) put("shards", std::to_string(shards));
  if (max_diff != def.max_diff) {
    put("max_diff_us", std::to_string(to_us(max_diff)));
  }
  if (domain_delay != def.domain_delay) {
    put("domain_delay_us", std::to_string(to_us(domain_delay)));
  }
  if (link_delay != def.link_delay) {
    put("link_delay_us", std::to_string(to_us(link_delay)));
  }
  if (!jitter_domain.empty()) put("jitter_domain", jitter_domain);
  if (jitter != def.jitter) put("jitter_us", std::to_string(to_us(jitter)));
  if (loss != def.loss) put("loss", loss_name(loss));
  if (!loss_domain.empty()) put("loss_domain", loss_domain);
  if (loss_rate != def.loss_rate) put("loss_rate", fmt_double(loss_rate));
  if (loss_burst != def.loss_burst) put("loss_burst", fmt_double(loss_burst));
  if (congestion_bps != def.congestion_bps) {
    put("congestion_bps", fmt_double(congestion_bps));
  }
  if (congestion_buffer != def.congestion_buffer) {
    put("congestion_buffer", std::to_string(congestion_buffer));
  }
  for (const ScenarioAdversary& a : adversaries) {
    put("adversary." + a.domain, adversary_name(a.kind));
  }
  if (shave != def.shave) put("shave_us", std::to_string(to_us(shave)));
  if (fake_delay != def.fake_delay) {
    put("fake_delay_us", std::to_string(to_us(fake_delay)));
  }
  if (link_down.duration_rounds != 0) {
    put("link_down", std::to_string(link_down.link) + ':' +
                         std::to_string(link_down.round) + ':' +
                         std::to_string(link_down.duration_rounds));
  }
  if (route_flap.duration_rounds != 0) {
    put("route_flap", std::to_string(route_flap.paths) + ':' +
                          std::to_string(route_flap.round) + ':' +
                          std::to_string(route_flap.duration_rounds));
  }
  if (churn.live != 0) {
    put("churn", std::to_string(churn.stable) + ':' +
                     std::to_string(churn.live) + ':' +
                     std::to_string(churn.lifetime_rounds));
  }
  if (ttl_rounds != def.ttl_rounds) {
    put("ttl_rounds", std::to_string(ttl_rounds));
  }
  if (max_chunk_bytes != def.max_chunk_bytes) {
    put("chunk_bytes", std::to_string(max_chunk_bytes));
  }
  if (faults.drop_rate != 0.0) put("fault_drop", fmt_double(faults.drop_rate));
  if (faults.corrupt_rate != 0.0) {
    put("fault_corrupt", fmt_double(faults.corrupt_rate));
  }
  if (faults.duplicate_rate != 0.0) {
    put("fault_duplicate", fmt_double(faults.duplicate_rate));
  }
  if (faults.reorder_rate != 0.0) {
    put("fault_reorder", fmt_double(faults.reorder_rate));
  }
  if (faults.delay_rate != 0.0) {
    put("fault_delay", fmt_double(faults.delay_rate));
  }
  if (faults.max_delay_ticks != def.faults.max_delay_ticks) {
    put("fault_max_delay_ticks", std::to_string(faults.max_delay_ticks));
  }
  if (fault_seed != def.fault_seed) {
    put("fault_seed", std::to_string(fault_seed));
  }
  if (crash_every_rounds != def.crash_every_rounds) {
    put("crash_every", std::to_string(crash_every_rounds));
  }
  if (gap_patience_polls != def.gap_patience_polls) {
    put("gap_patience", std::to_string(gap_patience_polls));
  }
  if (store_shards != def.store_shards) {
    put("store_shards", std::to_string(store_shards));
  }
  if (segment_store) put("store", "segment");
  if (torn_tail) put("torn_tail", "1");
  return out;
}

ScenarioConfig parse_scenario(std::string_view text) {
  // Strip comments, then tokenize on whitespace.
  std::string clean;
  clean.reserve(text.size());
  bool in_comment = false;
  for (const char c : text) {
    if (c == '#') in_comment = true;
    if (c == '\n') in_comment = false;
    clean += in_comment ? ' ' : c;
  }

  ScenarioConfig cfg;
  std::istringstream stream(clean);
  std::string token;
  while (stream >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0) {
      bad_token(token, "expected key=value");
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);

    if (key == "name") {
      cfg.name = value;
    } else if (key == "seed") {
      cfg.seed = parse_u64(token, value);
    } else if (key == "domains") {
      cfg.domains = split(value, ',');
      for (const std::string& d : cfg.domains) {
        if (d.empty()) bad_token(token, "empty domain name");
      }
    } else if (key == "paths") {
      cfg.paths = static_cast<std::size_t>(parse_u64(token, value));
    } else if (key == "rounds") {
      cfg.rounds = static_cast<std::size_t>(parse_u64(token, value));
    } else if (key == "round_us") {
      cfg.round_length = parse_us(token, value);
    } else if (key == "pps") {
      cfg.packets_per_second = parse_double(token, value);
    } else if (key == "zipf") {
      cfg.zipf_s = parse_double(token, value);
    } else if (key == "digest") {
      if (value == "single") {
        cfg.digest_mode = net::DigestMode::kSingle;
      } else if (value == "independent") {
        cfg.digest_mode = net::DigestMode::kIndependent;
      } else {
        bad_token(token, "unknown digest mode");
      }
    } else if (key == "marker_rate") {
      cfg.marker_rate = parse_double(token, value);
    } else if (key == "marker_max_age_us") {
      cfg.marker_max_age = parse_us(token, value);
    } else if (key == "sample_rate") {
      cfg.tuning.sample_rate = parse_double(token, value);
    } else if (key == "cut_rate") {
      cfg.tuning.cut_rate = parse_double(token, value);
    } else if (key == "shards") {
      cfg.shards = static_cast<std::size_t>(parse_u64(token, value));
    } else if (key == "max_diff_us") {
      cfg.max_diff = parse_us(token, value);
    } else if (key == "domain_delay_us") {
      cfg.domain_delay = parse_us(token, value);
    } else if (key == "link_delay_us") {
      cfg.link_delay = parse_us(token, value);
    } else if (key == "jitter_domain") {
      cfg.jitter_domain = value;
    } else if (key == "jitter_us") {
      cfg.jitter = parse_us(token, value);
    } else if (key == "loss") {
      if (value == "none") {
        cfg.loss = LossKind::kNone;
      } else if (value == "bernoulli") {
        cfg.loss = LossKind::kBernoulli;
      } else if (value == "ge") {
        cfg.loss = LossKind::kGilbertElliott;
      } else if (value == "congestion") {
        cfg.loss = LossKind::kCongestion;
      } else {
        bad_token(token, "unknown loss kind");
      }
    } else if (key == "loss_domain") {
      cfg.loss_domain = value;
    } else if (key == "loss_rate") {
      cfg.loss_rate = parse_double(token, value);
    } else if (key == "loss_burst") {
      cfg.loss_burst = parse_double(token, value);
    } else if (key == "congestion_bps") {
      cfg.congestion_bps = parse_double(token, value);
    } else if (key == "congestion_buffer") {
      cfg.congestion_buffer = static_cast<std::size_t>(parse_u64(token, value));
    } else if (key.rfind("adversary.", 0) == 0) {
      ScenarioAdversary a;
      a.domain = key.substr(10);
      if (a.domain.empty()) bad_token(token, "empty adversary domain");
      if (value == "honest") {
        a.kind = AdversaryKind::kHonest;
      } else if (value == "hide_loss") {
        a.kind = AdversaryKind::kHideLoss;
      } else if (value == "understate_delay") {
        a.kind = AdversaryKind::kUnderstateDelay;
      } else if (value == "cover") {
        a.kind = AdversaryKind::kCoverUpstream;
      } else {
        bad_token(token, "unknown adversary kind");
      }
      cfg.adversaries.push_back(std::move(a));
    } else if (key == "shave_us") {
      cfg.shave = parse_us(token, value);
    } else if (key == "fake_delay_us") {
      cfg.fake_delay = parse_us(token, value);
    } else if (key == "link_down") {
      parse_triple(token, value, cfg.link_down.link, cfg.link_down.round,
                   cfg.link_down.duration_rounds);
    } else if (key == "route_flap") {
      parse_triple(token, value, cfg.route_flap.paths, cfg.route_flap.round,
                   cfg.route_flap.duration_rounds);
    } else if (key == "churn") {
      parse_triple(token, value, cfg.churn.stable, cfg.churn.live,
                   cfg.churn.lifetime_rounds);
    } else if (key == "ttl_rounds") {
      cfg.ttl_rounds = static_cast<std::size_t>(parse_u64(token, value));
    } else if (key == "chunk_bytes") {
      cfg.max_chunk_bytes = static_cast<std::size_t>(parse_u64(token, value));
    } else if (key == "fault_drop") {
      cfg.faults.drop_rate = parse_double(token, value);
    } else if (key == "fault_corrupt") {
      cfg.faults.corrupt_rate = parse_double(token, value);
    } else if (key == "fault_duplicate") {
      cfg.faults.duplicate_rate = parse_double(token, value);
    } else if (key == "fault_reorder") {
      cfg.faults.reorder_rate = parse_double(token, value);
    } else if (key == "fault_delay") {
      cfg.faults.delay_rate = parse_double(token, value);
    } else if (key == "fault_max_delay_ticks") {
      cfg.faults.max_delay_ticks =
          static_cast<std::size_t>(parse_u64(token, value));
    } else if (key == "fault_seed") {
      cfg.fault_seed = parse_u64(token, value);
    } else if (key == "crash_every") {
      cfg.crash_every_rounds = static_cast<std::size_t>(parse_u64(token, value));
    } else if (key == "gap_patience") {
      cfg.gap_patience_polls = parse_u64(token, value);
    } else if (key == "store_shards") {
      cfg.store_shards = static_cast<std::size_t>(parse_u64(token, value));
    } else if (key == "store") {
      if (value == "memory") {
        cfg.segment_store = false;
      } else if (value == "segment") {
        cfg.segment_store = true;
      } else {
        bad_token(token, "unknown store");
      }
    } else if (key == "torn_tail") {
      cfg.torn_tail = parse_u64(token, value) != 0;
    } else {
      bad_token(token, "unknown key");
    }
  }
  return cfg;
}

}  // namespace vpm::sim
