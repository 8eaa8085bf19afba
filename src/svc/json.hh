/**
 * @file
 * Minimal JSON for the nowlabd wire protocol: a bounds- and
 * depth-limited recursive-descent parser plus a writer.
 *
 * This is deliberately not a general JSON library: it exists so the
 * service has a zero-dependency, fuzz-hardened protocol layer
 * (tests/test_fuzz.cc feeds it junk, truncations, and deep nesting).
 * Numbers are doubles (integral values survive exactly up to 2^53,
 * far beyond any field the protocol carries); object keys keep
 * insertion order; duplicate keys resolve to the last one, matching
 * common JSON semantics.
 */

#ifndef NOWCLUSTER_SVC_JSON_HH_
#define NOWCLUSTER_SVC_JSON_HH_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace nowcluster::svc {

struct JsonValue
{
    enum Kind
    {
        kNull,
        kBool,
        kNumber,
        kString,
        kArray,
        kObject,
    };

    Kind kind = kNull;
    bool boolean = false;
    double number = 0;
    std::string str;
    std::vector<JsonValue> array;
    std::vector<std::pair<std::string, JsonValue>> object;

    bool isNull() const { return kind == kNull; }
    bool isBool() const { return kind == kBool; }
    bool isNumber() const { return kind == kNumber; }
    bool isString() const { return kind == kString; }
    bool isObject() const { return kind == kObject; }

    /** Member lookup (last duplicate wins); nullptr when absent or not
     *  an object. */
    const JsonValue *find(std::string_view key) const;

    /** Convenience accessors with fallbacks. */
    double numberOr(std::string_view key, double fallback) const;
    std::string stringOr(std::string_view key,
                         const std::string &fallback) const;
    bool boolOr(std::string_view key, bool fallback) const;
};

/**
 * Parse one complete JSON document. Trailing non-whitespace, nesting
 * past 32 levels, or any syntax error fails the parse (false; `err`
 * gets a short reason). Never throws, never reads out of bounds.
 */
bool parseJson(std::string_view text, JsonValue &out,
               std::string *err = nullptr);

/** Escape and quote a string for embedding in a JSON document. */
std::string jsonQuote(std::string_view s);

/**
 * Compact JSON writer for replies. Appends to an internal buffer;
 * structural bookkeeping (commas) is handled by the begin/field calls.
 */
class JsonWriter
{
  public:
    JsonWriter &beginObject();
    JsonWriter &beginObject(std::string_view key);
    JsonWriter &endObject();
    JsonWriter &beginArray(std::string_view key);
    JsonWriter &endArray();
    JsonWriter &field(std::string_view key, std::string_view value);
    JsonWriter &field(std::string_view key, const char *value);
    JsonWriter &field(std::string_view key, double value);
    JsonWriter &field(std::string_view key, std::uint64_t value);
    JsonWriter &field(std::string_view key, std::int64_t value);
    JsonWriter &field(std::string_view key, int value);
    JsonWriter &field(std::string_view key, bool value);
    JsonWriter &element(std::uint64_t value);
    JsonWriter &element(std::int64_t value);

    const std::string &str() const { return out_; }

  private:
    void comma();
    void key(std::string_view k);

    std::string out_;
    bool needComma_ = false;
};

/** Write `w`'s document and a newline to `path`, then print "wrote
 *  <path>"; exit 1 naming `path` if it cannot be written. The tail of
 *  every `--out` JSON file. */
void writeJsonFile(const JsonWriter &w, const std::string &path);

/** Add the "host" object every `--out` ledger carries: the machine's
 *  cores and CPU model, and the compiler, build type and revision this
 *  binary was built with (`git describe --always --dirty` of its
 *  source tree at build time, "unknown" outside a git checkout). */
JsonWriter &writeHost(JsonWriter &w);

} // namespace nowcluster::svc

#endif // NOWCLUSTER_SVC_JSON_HH_
