/**
 * @file
 * The unit of transfer between simulated nodes.
 */

#ifndef NOWCLUSTER_NET_PACKET_HH_
#define NOWCLUSTER_NET_PACKET_HH_

#include <cstdint>
#include <vector>

#include "base/types.hh"

namespace nowcluster {

/** Message classes; they differ in flow control and accounting. */
enum class PacketKind : std::uint8_t
{
    Request,   ///< Short AM expecting a reply; consumes a credit.
    Reply,     ///< Short AM reply; returns the request's credit.
    OneWay,    ///< Short AM with no reply; credit returned by NIC ack.
    BulkFrag,  ///< Bulk fragment; credit returned by NIC ack.
};

/** An Active Message in flight. */
struct Packet
{
    NodeId src = -1;
    NodeId dst = -1;
    PacketKind kind = PacketKind::OneWay;
    /** Handler table index to invoke at the receiver. */
    int handler = -1;
    /** Short payload words. */
    Word args[6] = {0, 0, 0, 0, 0, 0};

    /** Bulk fragment payload (empty for short messages). */
    std::vector<std::uint8_t> bulk;
    /** Destination virtual address for the bulk DMA at the receiver. */
    void *bulkDst = nullptr;
    /** Identifier of the enclosing bulk operation. */
    std::uint64_t bulkOp = 0;
    /** True on the final fragment of a bulk operation (fires handler). */
    bool bulkLast = false;
    /** Total bytes of the enclosing bulk operation. */
    std::size_t bulkTotal = 0;
    /** Reply-class bulk (serving a get): consumes no send credits and
     *  triggers no automatic StoreAck. */
    bool creditFree = false;
    /** This packet answers a Request and must return its flow-control
     *  credit on arrival (not set for StoreAck replies to bulk/one-way
     *  messages, whose credits come back via NIC-level acks). */
    bool creditReply = false;

    /** Virtual time the presence bit is set at the receiver. */
    Tick readyAt = 0;

    /** Reliability protocol sequence number, per (src, dst) pair,
     *  starting at 1. 0 when the reliable layer is disabled. */
    std::uint64_t seq = 0;

    /** Observability message id (0 unless a span tracer is attached). */
    std::uint64_t obsMsg = 0;

    /** Cross-leaf packet still owing its destination-leaf downlink
     *  queueing (fat-tree topology model; cleared once applied). */
    bool spineHop = false;

    bool isBulk() const { return kind == PacketKind::BulkFrag; }
};

} // namespace nowcluster

#endif // NOWCLUSTER_NET_PACKET_HH_
