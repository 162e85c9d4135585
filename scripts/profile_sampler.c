/* The sampler behind EXPERIMENTS.md's "Where ... goes" tables, preloaded
 * into the profiled process by scripts/profile.sh:
 *
 *   gcc -O2 -shared -fPIC -o sampler.so scripts/profile_sampler.c
 *   LD_PRELOAD=sampler.so PROFILE_OUT=samples.txt <program> [args]
 *
 * Every PROFILE_HZ-th of a second of CPU time the process burns (all
 * threads; default 200) the thread that was running takes a SIGPROF and
 * stores its call stack as raw addresses: the interrupted PC first, then
 * return addresses. At exit the stacks go to PROFILE_OUT, one per line,
 * followed by /proc/self/maps so the addresses can be given back to
 * their files. Nothing is symbolised in here.
 */
#define _GNU_SOURCE
#include <execinfo.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_DEPTH 64
#define MAX_WORDS (1 << 22) /* 32 MB of addresses, reserved untouched */

static void *words[MAX_WORDS];
static volatile size_t used; /* words taken, each stack ends in NULL */

static void on_prof(int sig, siginfo_t *info, void *uc) {
    void *stack[MAX_DEPTH];
    void *pc = (void *)((ucontext_t *)uc)->uc_mcontext.gregs[REG_RIP];
    int depth = backtrace(stack, MAX_DEPTH), first = 0;
    (void)sig, (void)info;
    /* Drop this handler and the signal trampoline above it. */
    while (first < depth && stack[first] != pc) first++;
    if (first == depth) return;
    size_t at = __atomic_fetch_add(&used, depth - first + 1, __ATOMIC_RELAXED);
    if (at + depth - first + 1 > MAX_WORDS) return;
    for (int i = first; i < depth; i++) words[at++] = stack[i];
    words[at] = NULL;
}

__attribute__((constructor)) static void start(void) {
    const char *hz = getenv("PROFILE_HZ");
    long usec = 1000000 / (hz && atol(hz) > 0 ? atol(hz) : 200);
    void *prime[4];
    backtrace(prime, 4); /* loads the unwinder now, not inside a signal */
    struct sigaction sa = {.sa_sigaction = on_prof, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every = {{0, usec}, {0, usec}};
    setitimer(ITIMER_PROF, &every, NULL);
}

__attribute__((destructor)) static void dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("PROFILE_OUT");
    FILE *out = fopen(path ? path : "profile.samples", "w");
    if (!out) return;
    size_t n = used < MAX_WORDS ? used : MAX_WORDS;
    for (size_t i = 0; i < n; i++)
        words[i] ? fprintf(out, "%p ", words[i]) : fputc('\n', out);
    fputs("== maps\n", out);
    FILE *maps = fopen("/proc/self/maps", "r");
    for (int c; maps && (c = fgetc(maps)) != EOF;) fputc(c, out);
    fclose(out);
}
