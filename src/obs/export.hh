/**
 * @file
 * Trace exporters: Chrome/Perfetto trace_event JSON for the `chrome://
 * tracing` / ui.perfetto.dev timeline view, and a compact binary format
 * that round-trips losslessly (the form `nowlab replay --obs` loads).
 *
 * Perfetto mapping: pid = node id (named "node N"), tid = track kind
 * (named "cpu" / "nic-tx" / "nic-rx"), complete events ("ph":"X") with
 * microsecond ts/dur from nanosecond ticks, flow events ("s"/"f")
 * linking a message's o_send span to its o_recv span, and instant
 * events ("i") for retransmissions. See docs/INTERNALS.md for the
 * byte-level layout of the binary format.
 */

#ifndef NOWCLUSTER_OBS_EXPORT_HH_
#define NOWCLUSTER_OBS_EXPORT_HH_

#include <string>

#include "obs/tracer.hh"

namespace nowcluster {

/** Render the Perfetto trace_event JSON document. */
std::string perfettoJson(const SpanTracer &tracer);

/** Write perfettoJson() to a file. */
bool writePerfettoJson(const SpanTracer &tracer, const std::string &path);

/** Write the compact binary form (magic "NOWOBS01"). */
bool writeBinaryTrace(const SpanTracer &tracer, const std::string &path);

/** Load a writeBinaryTrace() file, replacing `tracer`'s contents.
 *  Returns false (tracer cleared) on missing/corrupt input: bad
 *  magic, a size that disagrees with the counts, an unknown track,
 *  category or packet kind, or a negative node id. */
bool readBinaryTrace(SpanTracer &tracer, const std::string &path);

} // namespace nowcluster

#endif // NOWCLUSTER_OBS_EXPORT_HH_
