#include "src/util/time_utils.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace aiql {
namespace {

// Days from civil date (Howard Hinnant's algorithm), proleptic Gregorian.
int64_t DaysFromCivil(int y, int m, int d) {
  y -= m <= 2;
  const int64_t era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);
  const unsigned doy = (153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return era * 146097 + static_cast<int64_t>(doe) - 719468;
}

void CivilFromDays(int64_t z, int* y, unsigned* m, unsigned* d) {
  z += 719468;
  const int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const int64_t yy = static_cast<int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const unsigned mp = (5 * doy + 2) / 153;
  *d = doy - (153 * mp + 2) / 5 + 1;
  *m = mp + (mp < 10 ? 3 : -9);
  *y = static_cast<int>(yy + (*m <= 2));
}

struct ParsedDateTime {
  int year = 0, month = 0, day = 0;
  int hour = -1, minute = -1, second = -1, millis = 0;
};

bool ParseComponents(const std::string& text, ParsedDateTime* out) {
  // Try US format mm/dd/yyyy first, then ISO yyyy-mm-dd, both with an
  // optional time part separated by ' ' or 'T'.
  const char* p = text.c_str();
  int a = 0, b = 0, c = 0;
  int consumed = 0;
  if (std::sscanf(p, "%d/%d/%d%n", &a, &b, &c, &consumed) == 3) {
    out->month = a;
    out->day = b;
    out->year = c;
  } else if (std::sscanf(p, "%d-%d-%d%n", &a, &b, &c, &consumed) == 3) {
    out->year = a;
    out->month = b;
    out->day = c;
  } else {
    return false;
  }
  p += consumed;
  while (*p == ' ' || *p == 'T') {
    ++p;
  }
  if (*p == '\0') {
    return true;
  }
  int hh = 0, mm = 0;
  if (std::sscanf(p, "%d:%d%n", &hh, &mm, &consumed) != 2) {
    return false;
  }
  out->hour = hh;
  out->minute = mm;
  p += consumed;
  if (*p == ':') {
    ++p;
    int ss = 0;
    if (std::sscanf(p, "%d%n", &ss, &consumed) != 1) {
      return false;
    }
    out->second = ss;
    p += consumed;
    if (*p == '.') {
      ++p;
      int ms = 0;
      if (std::sscanf(p, "%d%n", &ms, &consumed) != 1) {
        return false;
      }
      out->millis = ms;
      p += consumed;
    }
  }
  while (*p == ' ') {
    ++p;
  }
  return *p == '\0';
}

bool ValidDate(const ParsedDateTime& dt) {
  if (dt.year < 1900 || dt.year > 9999 || dt.month < 1 || dt.month > 12 || dt.day < 1 ||
      dt.day > 31) {
    return false;
  }
  if (dt.hour > 23 || dt.minute > 59 || dt.second > 60 || dt.millis > 999) {
    return false;
  }
  return true;
}

}  // namespace

TimestampMs MakeTimestamp(int year, int month, int day, int hour, int minute, int second,
                          int millis) {
  int64_t days = DaysFromCivil(year, month, day);
  return ((days * 24 + hour) * 60 + minute) * 60 * 1000 + second * 1000 + millis;
}

int64_t DayIndex(TimestampMs t) {
  // Floor division for negative timestamps.
  return t >= 0 ? t / kDayMs : (t - (kDayMs - 1)) / kDayMs;
}

TimestampMs DayStart(int64_t day_index) { return day_index * kDayMs; }

Result<TimestampMs> ParseDateTime(const std::string& text) {
  ParsedDateTime dt;
  if (!ParseComponents(text, &dt) || !ValidDate(dt)) {
    return Result<TimestampMs>::Error("unrecognized datetime: '" + text + "'");
  }
  return MakeTimestamp(dt.year, dt.month, dt.day, dt.hour < 0 ? 0 : dt.hour,
                       dt.minute < 0 ? 0 : dt.minute, dt.second < 0 ? 0 : dt.second, dt.millis);
}

Result<TimeRange> ParseDateTimeRange(const std::string& text) {
  ParsedDateTime dt;
  if (!ParseComponents(text, &dt) || !ValidDate(dt)) {
    return Result<TimeRange>::Error("unrecognized datetime: '" + text + "'");
  }
  TimestampMs begin = MakeTimestamp(dt.year, dt.month, dt.day, dt.hour < 0 ? 0 : dt.hour,
                                    dt.minute < 0 ? 0 : dt.minute, dt.second < 0 ? 0 : dt.second,
                                    dt.millis);
  DurationMs width = kDayMs;
  if (dt.hour >= 0) {
    width = kMinuteMs;  // "at hh:mm" covers that minute
  }
  if (dt.second >= 0) {
    width = kSecondMs;
  }
  return TimeRange{begin, begin + width};
}

Result<DurationMs> ParseDuration(double amount, const std::string& unit) {
  std::string u;
  u.reserve(unit.size());
  for (char ch : unit) {
    u.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(ch))));
  }
  DurationMs scale = 0;
  if (u == "ms" || u == "millisecond" || u == "milliseconds") {
    scale = kMillisecond;
  } else if (u == "s" || u == "sec" || u == "secs" || u == "second" || u == "seconds") {
    scale = kSecondMs;
  } else if (u == "min" || u == "mins" || u == "minute" || u == "minutes") {
    scale = kMinuteMs;
  } else if (u == "h" || u == "hour" || u == "hours") {
    scale = kHourMs;
  } else if (u == "d" || u == "day" || u == "days") {
    scale = kDayMs;
  } else {
    return Result<DurationMs>::Error("unrecognized time unit: '" + unit + "'");
  }
  const double ms = amount * static_cast<double>(scale);
  // Beyond int64 the cast is undefined.
  if (!(ms >= -0x1p63 && ms < 0x1p63)) {
    return Result<DurationMs>::Error("duration out of range");
  }
  return static_cast<DurationMs>(ms);
}

Result<DurationMs> ParseDuration(const std::string& text) {
  char unit[32] = {0};
  double amount = 0;
  if (std::sscanf(text.c_str(), "%lf %31s", &amount, unit) != 2) {
    return Result<DurationMs>::Error("unrecognized duration: '" + text + "'");
  }
  return ParseDuration(amount, unit);
}

std::string FormatTimestamp(TimestampMs t) {
  int64_t days = DayIndex(t);
  int64_t in_day = t - DayStart(days);
  int y = 0;
  unsigned m = 0, d = 0;
  CivilFromDays(days, &y, &m, &d);
  int ms = static_cast<int>(in_day % 1000);
  in_day /= 1000;
  int sec = static_cast<int>(in_day % 60);
  in_day /= 60;
  int min = static_cast<int>(in_day % 60);
  int hour = static_cast<int>(in_day / 60);
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%04d-%02u-%02u %02d:%02d:%02d.%03d", y, m, d, hour, min, sec,
                ms);
  return std::string(buf);
}

}  // namespace aiql
