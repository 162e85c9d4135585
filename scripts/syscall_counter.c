/* The counter behind EXPERIMENTS.md's "Where tcp3-small's wake-ups go"
 * and "Where tcp3-large's wake-ups go",
 * preloaded into the counted process by scripts/syscalls.sh:
 *
 *   gcc -O2 -shared -fPIC -o counter.so scripts/syscall_counter.c -ldl
 *   LD_PRELOAD=counter.so SYSCALLS_OUT=counts.txt <program> [args]
 *
 * Interposes libc's `send`, `recv`, `readv`, `writev` (a socket's
 * `read_vectored` and `write_vectored` in Rust's std), `ppoll` (a TCP
 * node's I/O loop sleeps in it) and `syscall` (Rust's std parks and
 * wakes threads — mutexes, condition variables, `park` — through
 * `syscall(SYS_futex, ...)`), forwards every call unchanged, and counts
 * calls of each, bytes moved by the four socket calls, and the futex
 * calls that wake (FUTEX_WAKE, FUTEX_WAKE_BITSET) or wait (FUTEX_WAIT,
 * FUTEX_WAIT_BITSET). A `send` or `recv` on a Unix-domain socket is
 * counted apart, as `send_unix`/`recv_unix`: std reads and writes a
 * `UnixStream` with them too, and on a TCP node those are the I/O
 * loop's waker being rung and silenced. At exit one `name calls bytes`
 * line per counter goes to SYSCALLS_OUT.
 */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <linux/futex.h>
#include <poll.h>
#include <signal.h>
#include <stdarg.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <sys/uio.h>

enum { SEND, RECV, SEND_UNIX, RECV_UNIX, READV, WRITEV, PPOLL, WAKE, WAIT, COUNTERS };
static const char *names[COUNTERS] = {"send",   "recv",  "send_unix",  "recv_unix", "readv",
                                      "writev", "ppoll", "futex_wake", "futex_wait"};
static unsigned long calls[COUNTERS], bytes[COUNTERS];

static ssize_t (*real_send)(int, const void *, size_t, int);
static ssize_t (*real_recv)(int, void *, size_t, int);
static ssize_t (*real_readv)(int, const struct iovec *, int);
static ssize_t (*real_writev)(int, const struct iovec *, int);
static int (*real_ppoll)(struct pollfd *, nfds_t, const struct timespec *, const sigset_t *);
static long (*real_syscall)(long, ...);

__attribute__((constructor)) static void start(void) {
    real_send = (ssize_t(*)(int, const void *, size_t, int))dlsym(RTLD_NEXT, "send");
    real_recv = (ssize_t(*)(int, void *, size_t, int))dlsym(RTLD_NEXT, "recv");
    real_readv = (ssize_t(*)(int, const struct iovec *, int))dlsym(RTLD_NEXT, "readv");
    real_writev = (ssize_t(*)(int, const struct iovec *, int))dlsym(RTLD_NEXT, "writev");
    real_ppoll = (int (*)(struct pollfd *, nfds_t, const struct timespec *, const sigset_t *))dlsym(
        RTLD_NEXT, "ppoll");
    real_syscall = (long (*)(long, ...))dlsym(RTLD_NEXT, "syscall");
}

static void count(int counter, long moved) {
    __atomic_fetch_add(&calls[counter], 1, __ATOMIC_RELAXED);
    if (moved > 0) __atomic_fetch_add(&bytes[counter], (unsigned long)moved, __ATOMIC_RELAXED);
}

static int is_unix(int fd) {
    struct sockaddr_storage addr;
    socklen_t len = sizeof addr;
    return getsockname(fd, (struct sockaddr *)&addr, &len) == 0 && addr.ss_family == AF_UNIX;
}

ssize_t send(int fd, const void *buf, size_t len, int flags) {
    ssize_t n = real_send(fd, buf, len, flags);
    count(is_unix(fd) ? SEND_UNIX : SEND, n);
    return n;
}

ssize_t recv(int fd, void *buf, size_t len, int flags) {
    ssize_t n = real_recv(fd, buf, len, flags);
    count(is_unix(fd) ? RECV_UNIX : RECV, n);
    return n;
}

ssize_t readv(int fd, const struct iovec *iov, int iovcnt) {
    ssize_t n = real_readv(fd, iov, iovcnt);
    count(READV, n);
    return n;
}

ssize_t writev(int fd, const struct iovec *iov, int iovcnt) {
    ssize_t n = real_writev(fd, iov, iovcnt);
    count(WRITEV, n);
    return n;
}

int ppoll(struct pollfd *fds, nfds_t nfds, const struct timespec *timeout, const sigset_t *mask) {
    int n = real_ppoll(fds, nfds, timeout, mask);
    count(PPOLL, 0);
    return n;
}

/* Every caller passes at most six word-sized arguments; forwarding six
 * is what glibc's own `syscall` reads. */
long syscall(long number, ...) {
    long a[6];
    va_list args;
    va_start(args, number);
    for (int i = 0; i < 6; i++) a[i] = va_arg(args, long);
    va_end(args);
    if (number == SYS_futex) {
        int op = (int)a[1] & FUTEX_CMD_MASK;
        if (op == FUTEX_WAKE || op == FUTEX_WAKE_BITSET) count(WAKE, 0);
        if (op == FUTEX_WAIT || op == FUTEX_WAIT_BITSET) count(WAIT, 0);
    }
    return real_syscall(number, a[0], a[1], a[2], a[3], a[4], a[5]);
}

__attribute__((destructor)) static void dump(void) {
    const char *path = getenv("SYSCALLS_OUT");
    FILE *out = fopen(path ? path : "syscalls.txt", "w");
    if (!out) return;
    for (int i = 0; i < COUNTERS; i++) fprintf(out, "%s %lu %lu\n", names[i], calls[i], bytes[i]);
    fclose(out);
}
