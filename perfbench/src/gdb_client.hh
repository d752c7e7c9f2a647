/**
 * @file
 * A gdb-like RSP client: one loopback socket with TCP_NODELAY (as gdb
 * sets on remote targets), '+' acks, blocking request/reply. The
 * in-tree rsp::RspClient leaves Nagle on, so its ack-then-packet write
 * pairs stall on delayed ACKs; the benchmark measures the server, not
 * that client.
 */

#ifndef PERFBENCH_GDB_CLIENT_HH
#define PERFBENCH_GDB_CLIENT_HH

#include <cstdint>
#include <string>

#include "rsp/packet.hh"

namespace perfbench {

class GdbClient
{
  public:
    GdbClient() = default;
    ~GdbClient() { close(); }
    GdbClient(const GdbClient &) = delete;
    GdbClient &operator=(const GdbClient &) = delete;

    bool connectTo(uint16_t port, unsigned timeoutSeconds = 30);
    /** Send one packet; the reply payload, or "<eof>" on failure. */
    std::string exchange(const std::string &payload);
    void close();

  private:
    int fd_ = -1;
    dise::rsp::PacketDecoder dec_;
};

} // namespace perfbench

#endif // PERFBENCH_GDB_CLIENT_HH
