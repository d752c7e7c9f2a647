/**
 * @file
 * The one blocking socket send every server-side wire layer uses (the
 * session wire, the RSP bridge, the shard supervisor's proxy).
 */

#ifndef DISE_COMMON_SOCKET_HH
#define DISE_COMMON_SOCKET_HH

#include <sys/socket.h>

#include <cstddef>
#include <string>

namespace dise {

/**
 * Send all @p n bytes on socket @p fd; false once the peer is gone or
 * the send timed out. MSG_NOSIGNAL: a client that hung up fails the
 * send instead of raising SIGPIPE, which would kill the whole daemon.
 */
inline bool
sendAll(int fd, const char *data, size_t n)
{
    size_t off = 0;
    while (off < n) {
        ssize_t w = ::send(fd, data + off, n - off, MSG_NOSIGNAL);
        if (w <= 0)
            return false;
        off += static_cast<size_t>(w);
    }
    return true;
}

inline bool
sendAll(int fd, const std::string &data)
{
    return sendAll(fd, data.data(), data.size());
}

} // namespace dise

#endif // DISE_COMMON_SOCKET_HH
