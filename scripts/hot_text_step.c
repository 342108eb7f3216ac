/* Records which code of its own executable a process runs.
 *
 *   hot_text_step OUT -- PROG [ARG...]             step PROG from its exec to its exit
 *   hot_text_step OUT -b ENTRIES -- PROG [ARG...]  run PROG at full speed, trapping entries
 *
 * Every thread, including those created while traced, is followed.
 * Without -b each one is stepped an instruction at a time, and every
 * instruction inside the executable's text is recorded. With -b, ENTRIES
 * lists function start addresses, one per line; a breakpoint is planted
 * at each, and the first thread to reach one records it and removes it,
 * so the process runs at full speed once its code is warm. Either way a
 * recorded instruction is written as its offset from the load base, in
 * decimal: for a PIE that is the address `nm -t d` prints. SIGUSR1 writes
 * the offsets recorded since the last set to OUT.N (N = 0, 1, ...) and
 * starts a new set; the last set is written when the process has exited.
 * scripts/hot_text.sh builds this with `cc` and drives it. x86-64 Linux.
 */
#define _GNU_SOURCE
#include <errno.h>
#include <fcntl.h>
#include <signal.h>
#include <stddef.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/ptrace.h>
#include <sys/user.h>
#include <sys/wait.h>
#include <unistd.h>

static unsigned char *seen;     /* one flag per byte of text */
static unsigned char *original; /* the byte a breakpoint replaced */
static unsigned char *planted;  /* 1: a breakpoint is there, 2: it was */
static uintptr_t base, text_lo, text_hi;
static const char *out;
static int sets;
static volatile sig_atomic_t want_dump;

static void on_usr1(int s) { (void)s; want_dump = 1; }

static void die(const char *what) {
    perror(what);
    exit(1);
}

/* The load base (the file's offset-0 mapping) and the executable mapping. */
static void find_text(pid_t pid) {
    char path[64], exe[4096], line[8192];
    snprintf(path, sizeof path, "/proc/%d/exe", pid);
    ssize_t n = readlink(path, exe, sizeof exe - 1);
    if (n < 0) die("readlink /proc/PID/exe");
    exe[n] = 0;
    snprintf(path, sizeof path, "/proc/%d/maps", pid);
    FILE *f = fopen(path, "r");
    if (!f) die("open /proc/PID/maps");
    while (fgets(line, sizeof line, f)) {
        unsigned long lo, hi, off;
        char perms[5];
        int name = 0;
        line[strcspn(line, "\n")] = 0;
        if (sscanf(line, "%lx-%lx %4s %lx %*s %*s %n", &lo, &hi, perms, &off, &name) < 4 ||
            !name || strcmp(line + name, exe))
            continue;
        if (off == 0 && (!base || lo < base)) base = lo;
        if (perms[2] == 'x') text_lo = lo, text_hi = hi;
    }
    fclose(f);
    if (!base || !text_hi) {
        fprintf(stderr, "hot_text_step: no text mapping of %s\n", exe);
        exit(1);
    }
    if (!(seen = calloc(text_hi - text_lo, 1))) die("calloc");
}

static void dump(void) {
    char path[4096];
    snprintf(path, sizeof path, "%s.%d", out, sets++);
    FILE *f = fopen(path, "w");
    if (!f) die(path);
    for (uintptr_t i = 0; i < text_hi - text_lo; i++)
        if (seen[i]) fprintf(f, "%lu\n", (unsigned long)(text_lo + i - base));
    if (fclose(f)) die(path);
    memset(seen, 0, text_hi - text_lo);
}

/* An int3 at every listed entry inside the text, written through
 * /proc/PID/mem (a tracer may write a private read-only mapping). */
static int plant(pid_t pid, const char *entries) {
    char path[64];
    snprintf(path, sizeof path, "/proc/%d/mem", pid);
    int mem = open(path, O_RDWR);
    FILE *f = fopen(entries, "r");
    if (mem < 0 || !f) die(mem < 0 ? path : entries);
    if (!(original = calloc(text_hi - text_lo, 1)) || !(planted = calloc(text_hi - text_lo, 1))) die("calloc");
    unsigned char int3 = 0xcc;
    for (unsigned long off; fscanf(f, "%lu", &off) == 1;) {
        uintptr_t at = base + off;
        if (at < text_lo || at >= text_hi || planted[at - text_lo]) continue;
        if (pread(mem, &original[at - text_lo], 1, at) != 1 || pwrite(mem, &int3, 1, at) != 1) die("plant");
        planted[at - text_lo] = 1;
    }
    fclose(f);
    return mem;
}

int main(int argc, char **argv) {
    struct sigaction sa = {0}; /* no SA_RESTART: a signal ends waitpid */
    sa.sa_handler = on_usr1;
    sigaction(SIGUSR1, &sa, 0);
    const char *entries = argc >= 4 && !strcmp(argv[2], "-b") ? argv[3] : 0;
    int prog = entries ? 5 : 3;
    if (argc <= prog || strcmp(argv[prog - 1], "--")) {
        fprintf(stderr, "usage: %s OUT [-b ENTRIES] -- PROG [ARG...]\n", argv[0]);
        return 2;
    }
    out = argv[1];
    pid_t pid = fork();
    if (pid < 0) die("fork");
    if (pid == 0) {
        ptrace(PTRACE_TRACEME, 0, 0, 0);
        execvp(argv[prog], argv + prog);
        _exit(127);
    }
    int st, mem = -1;
    if (waitpid(pid, &st, 0) != pid || !WIFSTOPPED(st)) die("exec");
    if (ptrace(PTRACE_SETOPTIONS, pid, 0, PTRACE_O_TRACECLONE | PTRACE_O_EXITKILL)) die("setoptions");
    find_text(pid);
    if (entries) mem = plant(pid, entries);
    const enum __ptrace_request resume = entries ? PTRACE_CONT : PTRACE_SINGLESTEP;
    ptrace(resume, pid, 0, 0);
    for (;;) {
        if (want_dump) want_dump = 0, dump();
        pid_t tid = waitpid(-1, &st, __WALL);
        if (tid < 0) {
            if (errno == EINTR) continue;
            if (errno == ECHILD) break;
            die("waitpid");
        }
        if (!WIFSTOPPED(st)) continue;
        int sig = WSTOPSIG(st), event = st >> 16;
        /* Step and breakpoint traps, and a new thread's first stop, are
         * the tracer's own; any other signal goes on to the thread. */
        int pass = sig == SIGTRAP || sig == SIGSTOP || event ? 0 : sig;
        errno = 0;
        long rip = ptrace(PTRACE_PEEKUSER, tid, offsetof(struct user_regs_struct, rip), 0);
        uintptr_t at = entries ? (uintptr_t)rip - 1 : (uintptr_t)rip;
        int trap = !errno && sig == SIGTRAP && !event && at >= text_lo && at < text_hi;
        if (trap && !entries) {
            seen[at - text_lo] = 1;
        } else if (trap && planted[at - text_lo]) {
            /* Just past an int3 of ours (or one another thread has just
             * removed): put the byte back and rerun the instruction. */
            seen[at - text_lo] = 1;
            if (planted[at - text_lo] == 1 && pwrite(mem, &original[at - text_lo], 1, at) != 1) die("unplant");
            planted[at - text_lo] = 2;
            ptrace(PTRACE_POKEUSER, tid, offsetof(struct user_regs_struct, rip), at);
        }
        ptrace(resume, tid, 0, pass);
    }
    dump();
    return 0;
}
