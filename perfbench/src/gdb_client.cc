#include "gdb_client.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

namespace perfbench {

using namespace dise::rsp;

bool
GdbClient::connectTo(uint16_t port, unsigned timeoutSeconds)
{
    close();
    dec_ = PacketDecoder{};
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0)
        return false;
    timeval tv{static_cast<time_t>(timeoutSeconds), 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr), sizeof addr) !=
        0) {
        close();
        return false;
    }
    return true;
}

std::string
GdbClient::exchange(const std::string &payload)
{
    std::string wire = frame(payload);
    if (fd_ < 0 || ::write(fd_, wire.data(), wire.size()) !=
                       static_cast<ssize_t>(wire.size()))
        return "<eof>";
    ItemKind kind;
    std::string reply;
    char buf[4096];
    for (;;) {
        while (dec_.next(kind, reply))
            if (kind == ItemKind::Packet) {
                (void)!::write(fd_, "+", 1);
                return reply;
            }
        ssize_t n = ::read(fd_, buf, sizeof buf);
        if (n <= 0)
            return "<eof>";
        dec_.feed(buf, static_cast<size_t>(n));
    }
}

void
GdbClient::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

} // namespace perfbench
