/**
 * @file
 * Trace exporters: Chrome/Perfetto trace_event JSON for the `chrome://
 * tracing` / ui.perfetto.dev timeline view, and a compact binary format
 * that round-trips losslessly (NOWOBS02, the form `nowlab replay --obs`
 * loads), headed by the run it records.
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

/** The run a binary trace records, in its header. */
struct TraceHeader
{
    /** Its spec as a nowlabd submit request (svc::submitRequest);
     *  opaque to this layer. */
    std::string spec;
    Tick runtime = 0; ///< Its measured runtime.
};

/** Write the compact binary form (magic "NOWOBS02"): the header, then
 *  every span and message record. */
bool writeBinaryTrace(const SpanTracer &tracer, const TraceHeader &header,
                      const std::string &path);

/** Load a writeBinaryTrace() file into `tracer` and `header`. Returns
 *  "" on success, else why the file was refused (both left empty):
 *  another format (a NOWOBS01 trace named), a header or size that
 *  disagrees with the file's length, a negative runtime, an unknown
 *  track, category or packet kind, or a negative node id. */
std::string readBinaryTrace(SpanTracer &tracer, TraceHeader &header,
                            const std::string &path);

} // namespace nowcluster

#endif // NOWCLUSTER_OBS_EXPORT_HH_
