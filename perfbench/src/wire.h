#ifndef PERFBENCH_WIRE_H_
#define PERFBENCH_WIRE_H_

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

/// \file wire.h
/// The client side of the belief_serve protocol (src/server/frame.h)
/// over AF_UNIX, and the server process the benchmark spawns.

namespace perfbench {

/// A spawned `belief_serve --socket <path> --no-stdio`.
class ServerProcess {
 public:
  /// Spawns the server and waits until its socket accepts a
  /// connection.  Returns nullptr (and `*error`) on failure; a server
  /// that was spawned is then killed and reaped.
  static std::unique_ptr<ServerProcess> Start(const std::string& binary,
                                              const std::string& socket_path,
                                              std::string* error);
  ~ServerProcess();

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Peak resident set (VmHWM) so far, in MiB; negative if unreadable.
  double PeakRssMiB() const;

  /// Sends SHUTDOWN, waits for the process to exit (SIGKILL after a
  /// grace period) and reaps it.  Idempotent.  Returns true iff it
  /// exited by itself with status 0.
  bool Stop();

 private:
  ServerProcess(pid_t pid, std::string socket_path)
      : pid_(pid), socket_path_(std::move(socket_path)) {}

  pid_t pid_;
  std::string socket_path_;
};

/// One client connection.  Call() is a closed-loop round trip: it
/// returns only once the reply has been read.
class Connection {
 public:
  static std::unique_ptr<Connection> Open(const std::string& socket_path,
                                          std::string* error);
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  enum class Reply {
    kOk,        ///< REPLY frame read; `epoch` and `outcomes` are set
    kErrFrame,  ///< the server answered ERR (the session is over)
    kLost,      ///< connection lost, malformed reply, or no reply in time
  };

  /// Sends one request frame (RenderFrame output) and reads the reply.
  Reply Call(const std::string& frame, uint64_t* epoch,
             std::vector<std::string>* outcomes, std::string* error);

  /// Sends a raw frame without waiting for an answer.
  bool Send(const std::string& frame);

 private:
  explicit Connection(int fd) : fd_(fd) {}
  bool ReadLine(std::string* line);

  int fd_;
  std::string buf_;
  size_t pos_ = 0;
};

/// FNV-1a over the outcome lines, each terminated by '\n'.
uint64_t HashOutcomes(const std::vector<std::string>& outcomes);

}  // namespace perfbench

#endif  // PERFBENCH_WIRE_H_
