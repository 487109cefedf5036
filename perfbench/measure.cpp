// measure OUT -- PROGRAM [ARGS...]
//
// Runs PROGRAM with the caller's stdin/stdout/stderr, waits for it, and
// writes one line to OUT:
//   exit=<code> wall_s=<seconds> cpu_s=<seconds> maxrss_kb=<KiB>
// exit is 128+signal for a signalled child. cpu_s and maxrss cover the
// child and every descendant it waited for (a `vft run` launcher and
// its target), read from wait4. cpu_s is user plus system time; a
// kernel with paravirtual steal accounting leaves out of it the time
// the hypervisor ran other guests. maxrss is the peak resident set.
// The parent is this small program, not the benchmark's run.py,
// because a forked child's peak RSS starts from the memory of the
// process it was forked from.
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>

int main(int argc, char** argv) {
  if (argc < 4 || std::strcmp(argv[2], "--") != 0) {
    std::fprintf(stderr, "usage: measure OUT -- PROGRAM [ARGS...]\n");
    return 2;
  }
  timespec t0;
  clock_gettime(CLOCK_MONOTONIC, &t0);
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("measure: fork");
    return 2;
  }
  if (pid == 0) {
    execvp(argv[3], argv + 3);
    std::perror("measure: exec");
    _exit(127);
  }
  int status = 0;
  rusage ru{};
  if (wait4(pid, &status, 0, &ru) != pid) {
    std::perror("measure: wait4");
    return 2;
  }
  timespec t1;
  clock_gettime(CLOCK_MONOTONIC, &t1);
  const double wall = static_cast<double>(t1.tv_sec - t0.tv_sec) +
                      1e-9 * static_cast<double>(t1.tv_nsec - t0.tv_nsec);
  const int code = WIFEXITED(status) ? WEXITSTATUS(status)
                                     : 128 + WTERMSIG(status);
  FILE* out = std::fopen(argv[1], "w");
  if (out == nullptr) {
    std::perror("measure: open OUT");
    return 2;
  }
  const double cpu =
      static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
      1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
  std::fprintf(out, "exit=%d wall_s=%.9f cpu_s=%.6f maxrss_kb=%ld\n", code,
               wall, cpu, ru.ru_maxrss);
  std::fclose(out);
  return 0;
}
