/**
 * @file
 * Binary encoding of a RunResult for the content-addressed store.
 *
 * The codec is exact, not approximate: doubles travel as bit patterns
 * and every field of the summary, matrix, and metrics snapshot is
 * carried, so `fingerprint(decoded)` is byte-identical to
 * `fingerprint(computed)` -- the property test_svc.cc asserts and the
 * whole cache-correctness argument rests on.
 *
 * decodeResult is defensive: it never trusts lengths from the wire,
 * returns false on any truncation, overrun, or version mismatch, and
 * leaves no partially-filled result behind. A failed decode is a cache
 * miss, never a crash or a wrong answer.
 */

#ifndef NOWCLUSTER_SVC_CODEC_HH_
#define NOWCLUSTER_SVC_CODEC_HH_

#include <string>
#include <string_view>

#include "harness/experiment.hh"

namespace nowcluster::svc {

/** Serialize a result (versioned, self-contained). */
std::string encodeResult(const RunResult &r);

/** Deserialize; false on any malformed input (out untouched then). */
bool decodeResult(std::string_view payload, RunResult &out);

} // namespace nowcluster::svc

#endif // NOWCLUSTER_SVC_CODEC_HH_
