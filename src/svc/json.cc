#include "svc/json.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "base/logging.hh"
#include "revision.hh"

namespace nowcluster::svc {

// ---- value helpers --------------------------------------------------

const JsonValue *
JsonValue::find(std::string_view key) const
{
    if (kind != kObject)
        return nullptr;
    const JsonValue *found = nullptr;
    for (const auto &[k, v] : object) {
        if (k == key)
            found = &v; // Last duplicate wins.
    }
    return found;
}

double
JsonValue::numberOr(std::string_view key, double fallback) const
{
    const JsonValue *v = find(key);
    return v && v->isNumber() ? v->number : fallback;
}

std::string
JsonValue::stringOr(std::string_view key,
                    const std::string &fallback) const
{
    const JsonValue *v = find(key);
    return v && v->isString() ? v->str : fallback;
}

bool
JsonValue::boolOr(std::string_view key, bool fallback) const
{
    const JsonValue *v = find(key);
    return v && v->isBool() ? v->boolean : fallback;
}

// ---- parser ---------------------------------------------------------

namespace {

constexpr int kMaxDepth = 32;

struct Parser
{
    const char *p;
    const char *end;
    std::string *err;

    bool
    fail(const char *reason)
    {
        if (err && err->empty())
            *err = reason;
        return false;
    }

    void
    skipWs()
    {
        while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' ||
                           *p == '\r'))
            ++p;
    }

    bool
    literal(const char *text)
    {
        const char *q = text;
        const char *save = p;
        while (*q) {
            if (p >= end || *p != *q) {
                p = save;
                return false;
            }
            ++p;
            ++q;
        }
        return true;
    }

    bool
    parseString(std::string &out)
    {
        if (p >= end || *p != '"')
            return fail("expected string");
        ++p;
        out.clear();
        while (p < end && *p != '"') {
            unsigned char c = *p;
            if (c == '\\') {
                if (++p >= end)
                    return fail("truncated escape");
                switch (*p) {
                case '"': out += '"'; break;
                case '\\': out += '\\'; break;
                case '/': out += '/'; break;
                case 'b': out += '\b'; break;
                case 'f': out += '\f'; break;
                case 'n': out += '\n'; break;
                case 'r': out += '\r'; break;
                case 't': out += '\t'; break;
                case 'u': {
                    if (end - p < 5)
                        return fail("truncated \\u escape");
                    unsigned v = 0;
                    for (int i = 1; i <= 4; ++i) {
                        char h = p[i];
                        v <<= 4;
                        if (h >= '0' && h <= '9')
                            v |= h - '0';
                        else if (h >= 'a' && h <= 'f')
                            v |= h - 'a' + 10;
                        else if (h >= 'A' && h <= 'F')
                            v |= h - 'A' + 10;
                        else
                            return fail("bad \\u escape");
                    }
                    p += 4;
                    // Encode as UTF-8 (surrogates land as-is; the
                    // protocol never carries them).
                    if (v < 0x80) {
                        out += char(v);
                    } else if (v < 0x800) {
                        out += char(0xc0 | (v >> 6));
                        out += char(0x80 | (v & 0x3f));
                    } else {
                        out += char(0xe0 | (v >> 12));
                        out += char(0x80 | ((v >> 6) & 0x3f));
                        out += char(0x80 | (v & 0x3f));
                    }
                    break;
                }
                default:
                    return fail("bad escape");
                }
                ++p;
            } else if (c < 0x20) {
                return fail("control char in string");
            } else {
                out += char(c);
                ++p;
            }
        }
        if (p >= end)
            return fail("unterminated string");
        ++p; // closing quote
        return true;
    }

    bool
    parseNumber(JsonValue &out)
    {
        const char *start = p;
        if (p < end && *p == '-')
            ++p;
        while (p < end && *p >= '0' && *p <= '9')
            ++p;
        if (p < end && *p == '.') {
            ++p;
            while (p < end && *p >= '0' && *p <= '9')
                ++p;
        }
        if (p < end && (*p == 'e' || *p == 'E')) {
            ++p;
            if (p < end && (*p == '+' || *p == '-'))
                ++p;
            while (p < end && *p >= '0' && *p <= '9')
                ++p;
        }
        if (p == start || (p == start + 1 && *start == '-'))
            return fail("expected value");
        std::string text(start, p);
        char *parsed_end = nullptr;
        double v = std::strtod(text.c_str(), &parsed_end);
        if (parsed_end != text.c_str() + text.size() || !std::isfinite(v))
            return fail("bad number");
        out.kind = JsonValue::kNumber;
        out.number = v;
        return true;
    }

    bool
    parseValue(JsonValue &out, int depth)
    {
        if (depth > kMaxDepth)
            return fail("nesting too deep");
        skipWs();
        if (p >= end)
            return fail("truncated document");
        switch (*p) {
        case '{': {
            ++p;
            out.kind = JsonValue::kObject;
            skipWs();
            if (p < end && *p == '}') {
                ++p;
                return true;
            }
            for (;;) {
                skipWs();
                std::string key;
                if (!parseString(key))
                    return false;
                skipWs();
                if (p >= end || *p != ':')
                    return fail("expected ':'");
                ++p;
                JsonValue v;
                if (!parseValue(v, depth + 1))
                    return false;
                out.object.emplace_back(std::move(key), std::move(v));
                skipWs();
                if (p < end && *p == ',') {
                    ++p;
                    continue;
                }
                if (p < end && *p == '}') {
                    ++p;
                    return true;
                }
                return fail("expected ',' or '}'");
            }
        }
        case '[': {
            ++p;
            out.kind = JsonValue::kArray;
            skipWs();
            if (p < end && *p == ']') {
                ++p;
                return true;
            }
            for (;;) {
                JsonValue v;
                if (!parseValue(v, depth + 1))
                    return false;
                out.array.push_back(std::move(v));
                skipWs();
                if (p < end && *p == ',') {
                    ++p;
                    continue;
                }
                if (p < end && *p == ']') {
                    ++p;
                    return true;
                }
                return fail("expected ',' or ']'");
            }
        }
        case '"':
            out.kind = JsonValue::kString;
            return parseString(out.str);
        case 't':
            if (!literal("true"))
                return fail("expected value");
            out.kind = JsonValue::kBool;
            out.boolean = true;
            return true;
        case 'f':
            if (!literal("false"))
                return fail("expected value");
            out.kind = JsonValue::kBool;
            out.boolean = false;
            return true;
        case 'n':
            if (!literal("null"))
                return fail("expected value");
            out.kind = JsonValue::kNull;
            return true;
        default:
            return parseNumber(out);
        }
    }
};

} // namespace

bool
parseJson(std::string_view text, JsonValue &out, std::string *err)
{
    Parser parser{text.data(), text.data() + text.size(), err};
    JsonValue v;
    if (!parser.parseValue(v, 0))
        return false;
    parser.skipWs();
    if (parser.p != parser.end)
        return parser.fail("trailing garbage");
    out = std::move(v);
    return true;
}

// ---- writer ---------------------------------------------------------

std::string
jsonQuote(std::string_view s)
{
    std::string out;
    out.reserve(s.size() + 2);
    out += '"';
    for (unsigned char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\b': out += "\\b"; break;
        case '\f': out += "\\f"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += char(c);
            }
        }
    }
    out += '"';
    return out;
}

void
JsonWriter::comma()
{
    if (needComma_)
        out_ += ',';
    needComma_ = true;
}

void
JsonWriter::key(std::string_view k)
{
    comma();
    out_ += jsonQuote(k);
    out_ += ':';
}

JsonWriter &
JsonWriter::beginObject()
{
    if (!out_.empty())
        comma();
    out_ += '{';
    needComma_ = false;
    return *this;
}

JsonWriter &
JsonWriter::beginObject(std::string_view k)
{
    key(k);
    out_ += '{';
    needComma_ = false;
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    out_ += '}';
    needComma_ = true;
    return *this;
}

JsonWriter &
JsonWriter::beginArray(std::string_view k)
{
    key(k);
    out_ += '[';
    needComma_ = false;
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    out_ += ']';
    needComma_ = true;
    return *this;
}

JsonWriter &
JsonWriter::field(std::string_view k, std::string_view value)
{
    key(k);
    out_ += jsonQuote(value);
    return *this;
}

JsonWriter &
JsonWriter::field(std::string_view k, const char *value)
{
    return field(k, std::string_view(value));
}

JsonWriter &
JsonWriter::field(std::string_view k, double value)
{
    key(k);
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    out_ += buf;
    return *this;
}

JsonWriter &
JsonWriter::field(std::string_view k, std::uint64_t value)
{
    key(k);
    out_ += std::to_string(value);
    return *this;
}

JsonWriter &
JsonWriter::field(std::string_view k, std::int64_t value)
{
    key(k);
    out_ += std::to_string(value);
    return *this;
}

JsonWriter &
JsonWriter::field(std::string_view k, int value)
{
    return field(k, static_cast<std::int64_t>(value));
}

JsonWriter &
JsonWriter::field(std::string_view k, bool value)
{
    key(k);
    out_ += value ? "true" : "false";
    return *this;
}

JsonWriter &
JsonWriter::element(std::uint64_t value)
{
    comma();
    out_ += std::to_string(value);
    return *this;
}

JsonWriter &
JsonWriter::element(std::int64_t value)
{
    comma();
    out_ += std::to_string(value);
    return *this;
}

void
writeJsonFile(const JsonWriter &w, const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    fatal_if(!f || std::fprintf(f, "%s\n", w.str().c_str()) < 0 ||
                 std::fclose(f) != 0,
             "cannot write %s", path.c_str());
    std::printf("wrote %s\n", path.c_str());
}

namespace {

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        const std::size_t colon = line.find(':');
        if (line.rfind("model name", 0) == 0 && colon != std::string::npos &&
            colon + 2 <= line.size())
            return line.substr(colon + 2);
    }
    return "unknown";
}

} // namespace

JsonWriter &
writeHost(JsonWriter &w)
{
    return w.beginObject("host")
        .field("cores",
               static_cast<std::uint64_t>(std::thread::hardware_concurrency()))
        .field("cpu", cpuModel())
        .field("compiler", NOWCLUSTER_COMPILER)
        .field("buildType", NOWCLUSTER_BUILD_TYPE)
        .field("revision", NOWCLUSTER_REVISION)
        .endObject();
}

} // namespace nowcluster::svc
