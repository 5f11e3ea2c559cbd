#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

/// \file report.h
/// Result-line helpers: a flat JSON object writer and order statistics.

namespace perfbench {

inline std::string JsonQuote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Shortest text that reads back as the same double (all its digits,
/// nothing invented).  Non-finite values have no JSON form: null.
inline std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

/// Builds one JSON object, members in insertion order.
class JsonObject {
 public:
  JsonObject& Raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + JsonQuote(key) + ": " + json;
    return *this;
  }
  JsonObject& Num(const std::string& key, double v) {
    return Raw(key, JsonNumber(v));
  }
  JsonObject& Int(const std::string& key, int64_t v) {
    return Raw(key, std::to_string(v));
  }
  JsonObject& Str(const std::string& key, const std::string& v) {
    return Raw(key, JsonQuote(v));
  }
  JsonObject& Bool(const std::string& key, bool v) {
    return Raw(key, v ? "true" : "false");
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// Nearest-rank percentile (p in [0, 1]) of `v`; NaN when empty.
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return NAN;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  if (rank == 0) rank = 1;
  return v[std::min(rank, v.size()) - 1];
}

inline double Median(const std::vector<double>& v) {
  if (v.empty()) return NAN;
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  const size_t n = s.size();
  return n % 2 == 1 ? s[n / 2] : (s[n / 2 - 1] + s[n / 2]) / 2;
}

/// The p-th percentile of each run of `block` consecutive samples of
/// `v` (the last run also takes the remainder), and their median; the
/// plain percentile when `v` holds fewer than two blocks.  A burst of
/// interference that spans fewer than half the blocks does not move it.
inline double BlockMedianPercentile(const std::vector<double>& v, double p,
                                    size_t block) {
  const size_t blocks = v.size() / block;
  if (blocks < 2) return Percentile(v, p);
  std::vector<double> per_block;
  for (size_t b = 0; b < blocks; ++b) {
    const auto first = v.begin() + static_cast<std::ptrdiff_t>(b * block);
    const auto last = b + 1 == blocks
                          ? v.end()
                          : first + static_cast<std::ptrdiff_t>(block);
    per_block.push_back(Percentile(std::vector<double>(first, last), p));
  }
  return Median(per_block);
}

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
