#include "wire.h"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

extern char** environ;

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

/// A reply that has not arrived after this long counts as lost.
constexpr int kReplyTimeoutSeconds = 120;

int ConnectUnix(const std::string& path, std::string* error) {
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    *error = "socket path too long: " + path;
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = std::string("socket(): ") + std::strerror(errno);
    return -1;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    *error = "connect(" + path + "): " + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  timeval tv{kReplyTimeoutSeconds, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  return fd;
}

bool WriteAll(int fd, const std::string& data) {
  const char* p = data.data();
  size_t left = data.size();
  while (left > 0) {
    ssize_t n = ::send(fd, p, left, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    p += n;
    left -= static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

uint64_t HashOutcomes(const std::vector<std::string>& outcomes) {
  uint64_t h = 0xCBF29CE484222325ULL;
  for (const std::string& line : outcomes) {
    for (unsigned char c : line) {
      h ^= c;
      h *= 0x100000001B3ULL;
    }
    h ^= '\n';
    h *= 0x100000001B3ULL;
  }
  return h;
}

std::unique_ptr<ServerProcess> ServerProcess::Start(
    const std::string& binary, const std::string& socket_path,
    std::string* error) {
  ::unlink(socket_path.c_str());
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  // The server's stdin/stdout are unused with --no-stdio; its stderr
  // chatter ("listening on ...") would clutter the result stream.
  posix_spawn_file_actions_addopen(&actions, STDIN_FILENO, "/dev/null",
                                   O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, "/dev/null",
                                   O_WRONLY, 0);
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, "/dev/null",
                                   O_WRONLY, 0);
  std::vector<std::string> args = {binary, "--socket", socket_path,
                                   "--no-stdio"};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, binary.c_str(), &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    *error = "cannot spawn " + binary + ": " + std::strerror(rc);
    return nullptr;
  }
  std::unique_ptr<ServerProcess> server(new ServerProcess(pid, socket_path));
  const Clock::time_point give_up = Clock::now() + std::chrono::seconds(30);
  while (true) {
    std::string connect_error;
    int fd = ConnectUnix(socket_path, &connect_error);
    if (fd >= 0) {
      ::close(fd);
      return server;
    }
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) == pid) {
      server->pid_ = -1;
      *error = binary + " exited before its socket was ready";
      return nullptr;
    }
    if (Clock::now() > give_up) {
      *error = "socket not ready after 30 s: " + connect_error;
      return nullptr;  // the destructor kills and reaps it
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

ServerProcess::~ServerProcess() { Stop(); }

double ServerProcess::PeakRssMiB() const {
  if (pid_ <= 0) return -1;
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return -1;
}

bool ServerProcess::Stop() {
  if (pid_ <= 0) return true;
  std::string error;
  if (std::unique_ptr<Connection> conn = Connection::Open(socket_path_,
                                                          &error)) {
    conn->Send("SHUTDOWN bye\n");
  }
  int status = 0;
  bool exited = false;
  const Clock::time_point give_up = Clock::now() + std::chrono::seconds(20);
  while (Clock::now() < give_up) {
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      exited = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (!exited) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
  }
  pid_ = -1;
  ::unlink(socket_path_.c_str());
  return exited && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

std::unique_ptr<Connection> Connection::Open(const std::string& socket_path,
                                             std::string* error) {
  int fd = ConnectUnix(socket_path, error);
  if (fd < 0) return nullptr;
  return std::unique_ptr<Connection>(new Connection(fd));
}

Connection::~Connection() { ::close(fd_); }

bool Connection::Send(const std::string& frame) { return WriteAll(fd_, frame); }

bool Connection::ReadLine(std::string* line) {
  while (true) {
    size_t nl = buf_.find('\n', pos_);
    if (nl != std::string::npos) {
      line->assign(buf_, pos_, nl - pos_);
      pos_ = nl + 1;
      if (pos_ == buf_.size()) {
        buf_.clear();
        pos_ = 0;
      }
      return true;
    }
    char chunk[65536];
    ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    if (pos_ > 0) {
      buf_.erase(0, pos_);
      pos_ = 0;
    }
    buf_.append(chunk, static_cast<size_t>(n));
  }
}

Connection::Reply Connection::Call(const std::string& frame, uint64_t* epoch,
                                   std::vector<std::string>* outcomes,
                                   std::string* error) {
  outcomes->clear();
  if (!WriteAll(fd_, frame)) {
    *error = "send failed";
    return Reply::kLost;
  }
  std::string header;
  if (!ReadLine(&header)) {
    *error = "no reply";
    return Reply::kLost;
  }
  if (header.rfind("ERR", 0) == 0) {
    *error = header;
    return Reply::kErrFrame;
  }
  // REPLY <id> <epoch> <n>
  char id[256];
  unsigned long long e = 0, n = 0;
  if (std::sscanf(header.c_str(), "REPLY %255s %llu %llu", id, &e, &n) != 3) {
    *error = "malformed reply header: " + header;
    return Reply::kLost;
  }
  *epoch = e;
  outcomes->resize(n);
  for (std::string& line : *outcomes) {
    if (!ReadLine(&line)) {
      *error = "reply body cut short";
      return Reply::kLost;
    }
  }
  return Reply::kOk;
}

}  // namespace perfbench
