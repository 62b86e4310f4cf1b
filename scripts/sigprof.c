/* A sampling profiler for a container without perf or valgrind: preload
 * this into any process (scripts/sample-profile.sh does) and it samples
 * the call stack every 2 ms of CPU time and writes /proc/self/maps plus
 * one line of hex PCs per sample to "$PROF_OUT.<pid>" when the process
 * exits. scripts/profile.py resolves the file. Does nothing without
 * PROF_OUT, so child processes that inherit LD_PRELOAD can be ignored
 * (each writes its own file). */
#define _GNU_SOURCE
#include <execinfo.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <unistd.h>

#define MAX_SAMPLES (1 << 17) /* 262 s of CPU at 2 ms; later samples are dropped */
#define DEPTH 32

static void *frames[MAX_SAMPLES][DEPTH]; /* BSS: only sampled rows are ever touched */
static unsigned char depth[MAX_SAMPLES];
static int n_samples;

static void on_sigprof(int sig) {
    (void)sig;
    /* Claim a row first: any thread may take the signal. */
    int i = __atomic_fetch_add(&n_samples, 1, __ATOMIC_RELAXED);
    if (i < MAX_SAMPLES)
        depth[i] = (unsigned char)backtrace(frames[i], DEPTH);
}

static void write_profile(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    char path[4096];
    snprintf(path, sizeof path, "%s.%d", getenv("PROF_OUT"), (int)getpid());
    FILE *out = fopen(path, "w"), *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps)
        return;
    for (int c; (c = fgetc(maps)) != EOF;)
        fputc(c, out);
    fputs("--samples--\n", out);
    for (int i = 0; i < n_samples && i < MAX_SAMPLES; i++) {
        for (int j = 0; j < depth[i]; j++)
            fprintf(out, "%lx ", (unsigned long)frames[i][j]);
        fputc('\n', out);
    }
    fclose(out);
}

__attribute__((constructor)) static void arm(void) {
    if (!getenv("PROF_OUT"))
        return;
    void *warm[2];
    backtrace(warm, 2); /* loads the unwinder now: its first call allocates */
    struct sigaction sa = {.sa_handler = on_sigprof, .sa_flags = SA_RESTART};
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every = {{0, 2000}, {0, 2000}};
    setitimer(ITIMER_PROF, &every, NULL);
    atexit(write_profile);
}
