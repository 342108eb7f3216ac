/* Records which code and read-only data of its own executable a process uses.
 *
 *   hot_text_step OUT [-b ENTRIES] [-r] -- PROG [ARG...]
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
 *
 * With -r the executable's first mapping (offset 0, read-only: headers,
 * relocations, .rodata, unwind tables) is traced as well, and each set
 * also writes OUT.N.ro: the offsets of the reads that faulted, in the
 * same form: one a page, the first read of it. After the exec stop the
 * tracer single-steps the process once (a syscall injected at the exec
 * stop itself has its result overwritten by execve's) and then makes it
 * mprotect the mapping PROT_NONE, through a `syscall` instruction found
 * in the vDSO. A read of the mapping then stops the thread with SIGSEGV:
 * the tracer records the address, makes the page readable the same way,
 * and the thread reruns the read; the page costs nothing after that.
 * The kernel's own reads of the mapping (a syscall argument that points
 * into .rodata) do not fault: the syscall fails with EFAULT. So under
 * -r every syscall also stops the thread (PTRACE_SYSCALL; under
 * stepping, the step over the `syscall` instruction), and one that
 * returns EFAULT with an argument pointing at or up to 64 pages before a
 * protected page has that page recorded (at the argument, or at the
 * page's start) and opened, and is rewound to run again. What is left
 * blind is a read the kernel makes through a pointer it found in memory
 * (an iovec's base, say) that no argument points near; such a syscall
 * keeps its EFAULT, so check that a traced process still answers
 * correctly.
 *
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
#include <sys/mman.h>
#include <sys/ptrace.h>
#include <sys/syscall.h>
#include <sys/user.h>
#include <sys/wait.h>
#include <unistd.h>

#define PAGE 4096UL

static unsigned char *seen;     /* one flag per byte of text */
static unsigned char *original; /* the byte a breakpoint replaced */
static unsigned char *planted;  /* 1: a breakpoint is there, 2: it was */
static unsigned char *ro_seen;  /* one flag per byte of the read-only mapping */
static unsigned char *ro_open;  /* 1: the read-only page is readable now */
static uintptr_t base, text_lo, text_hi, ro_hi, vdso_syscall;
static const char *out;
static int sets;
static volatile sig_atomic_t want_dump;

static void on_usr1(int s) { (void)s; want_dump = 1; }

static void die(const char *what) {
    perror(what);
    exit(1);
}

/* The load base (the file's offset-0 mapping), the executable mapping,
 * the end of the read-only mapping at the base and, for -r, the address
 * of a `syscall` instruction in the vDSO. */
static void find_mappings(pid_t pid, int ro) {
    char path[64], exe[4096], line[8192];
    unsigned long vdso_lo = 0, vdso_hi = 0;
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
        if (sscanf(line, "%lx-%lx %4s %lx %*s %*s %n", &lo, &hi, perms, &off, &name) < 4 || !name) continue;
        if (!strcmp(line + name, "[vdso]")) vdso_lo = lo, vdso_hi = hi;
        if (strcmp(line + name, exe)) continue;
        if (off == 0 && (!base || lo < base)) base = lo, ro_hi = perms[2] == 'x' ? lo : hi;
        if (perms[2] == 'x') text_lo = lo, text_hi = hi;
    }
    fclose(f);
    if (!base || !text_hi) {
        fprintf(stderr, "hot_text_step: no text mapping of %s\n", exe);
        exit(1);
    }
    if (!(seen = calloc(text_hi - text_lo, 1))) die("calloc");
    if (!ro) return;
    if (ro_hi <= base || !vdso_hi) {
        fprintf(stderr, "hot_text_step: no read-only mapping at the base of %s, or no vDSO\n", exe);
        exit(1);
    }
    if (!(ro_seen = calloc(ro_hi - base, 1)) || !(ro_open = calloc((ro_hi - base) / PAGE, 1)))
        die("calloc");
    snprintf(path, sizeof path, "/proc/%d/mem", pid);
    int mem = open(path, O_RDONLY);
    unsigned char *vdso = malloc(vdso_hi - vdso_lo);
    if (mem < 0 || !vdso || pread(mem, vdso, vdso_hi - vdso_lo, vdso_lo) != (ssize_t)(vdso_hi - vdso_lo))
        die("read the vDSO");
    close(mem);
    for (unsigned long i = 0; i + 1 < vdso_hi - vdso_lo && !vdso_syscall; i++)
        if (vdso[i] == 0x0f && vdso[i + 1] == 0x05) vdso_syscall = vdso_lo + i;
    free(vdso);
    if (!vdso_syscall) {
        fprintf(stderr, "hot_text_step: no syscall instruction in the vDSO\n");
        exit(1);
    }
}

static void write_set(const char *path, const unsigned char *flags, uintptr_t lo, uintptr_t hi) {
    FILE *f = fopen(path, "w");
    if (!f) die(path);
    for (uintptr_t i = 0; i < hi - lo; i++)
        if (flags[i]) fprintf(f, "%lu\n", (unsigned long)(lo + i - base));
    if (fclose(f)) die(path);
}

static void dump(void) {
    char path[4096];
    snprintf(path, sizeof path, "%s.%d", out, sets);
    write_set(path, seen, text_lo, text_hi);
    memset(seen, 0, text_hi - text_lo);
    if (ro_seen) {
        snprintf(path, sizeof path, "%s.%d.ro", out, sets);
        write_set(path, ro_seen, base, ro_hi);
        memset(ro_seen, 0, ro_hi - base);
    }
    sets++;
}

/* Runs mprotect(lo, len, prot) in stopped thread `tid` and puts its
 * registers back. A signal that stops the thread meanwhile is returned,
 * for the caller to deliver when it resumes the thread. */
static int inject_mprotect(pid_t tid, uintptr_t lo, uintptr_t len, int prot) {
    struct user_regs_struct saved, regs;
    int st, held = 0;
    if (ptrace(PTRACE_GETREGS, tid, 0, &saved)) die("getregs");
    regs = saved;
    regs.rip = vdso_syscall;
    regs.rax = SYS_mprotect;
    regs.orig_rax = -1;
    regs.rdi = lo;
    regs.rsi = len;
    regs.rdx = prot;
    if (ptrace(PTRACE_SETREGS, tid, 0, &regs)) die("setregs");
    for (;;) {
        if (ptrace(PTRACE_SINGLESTEP, tid, 0, 0)) die("step the injected syscall");
        while (waitpid(tid, &st, __WALL) != tid)
            if (errno != EINTR) die("wait for the injected syscall");
        if (!WIFSTOPPED(st)) {
            fprintf(stderr, "hot_text_step: thread %d ended inside an injected mprotect\n", tid);
            exit(1);
        }
        int sig = WSTOPSIG(st);
        if (sig == SIGTRAP && !(st >> 16)) break;
        if (sig != SIGTRAP && sig != (SIGTRAP | 0x80) && sig != SIGSTOP) held = sig;
    }
    if (ptrace(PTRACE_GETREGS, tid, 0, &regs)) die("getregs");
    if (regs.rax != 0) {
        fprintf(stderr, "hot_text_step: injected mprotect failed: %lld\n", (long long)regs.rax);
        exit(1);
    }
    if (ptrace(PTRACE_SETREGS, tid, 0, &saved)) die("setregs");
    return held;
}

/* Makes read-only page `page` readable from stopped thread `tid`;
 * returns as inject_mprotect. */
static int open_page(pid_t tid, uintptr_t page) {
    ro_open[page] = 1;
    return inject_mprotect(tid, base + page * PAGE, PAGE, PROT_READ);
}

/* A SIGSEGV stop: if the fault is a read of the protected mapping,
 * record it and make the page readable. Returns whether the fault was
 * ours (the thread then resumes without the signal, or with one that
 * arrived meanwhile, in *held). A fault on a page already open was
 * taken before another thread's fault on it opened it, and is ours
 * once: the thread's second one at the same address is its own. */
static int on_fault(pid_t tid, int *held) {
    static pid_t again_tid;
    static uintptr_t again_at;
    siginfo_t si;
    if (!ro_seen || ptrace(PTRACE_GETSIGINFO, tid, 0, &si)) return 0;
    uintptr_t at = (uintptr_t)si.si_addr;
    if (at < base || at >= ro_hi) return 0;
    if (ro_open[(at - base) / PAGE]) {
        if (again_tid == tid && again_at == at) return 0;
        again_tid = tid, again_at = at;
        return 1;
    }
    ro_seen[at - base] = 1;
    *held = open_page(tid, (at - base) / PAGE);
    return 1;
}

/* A syscall that has just returned EFAULT (a syscall-exit stop, or the
 * step over a `syscall` instruction): if an argument points into the
 * mapping at, or up to 64 pages before, a protected page, the kernel's
 * read is what failed. The first such page is recorded (at the
 * argument's address, or at the page's start) and opened, and the
 * syscall is rewound to run again. Returns whether it was; a syscall
 * with no such page keeps its EFAULT. */
static int on_efault(pid_t tid, int *held) {
    struct user_regs_struct r;
    if (!ro_seen || ptrace(PTRACE_GETREGS, tid, 0, &r) || (long long)r.orig_rax < 0 ||
        (long long)r.rax != -EFAULT)
        return 0;
    unsigned long long args[] = {r.rdi, r.rsi, r.rdx, r.r10, r.r8, r.r9};
    uintptr_t pages = (ro_hi - base) / PAGE;
    int opened = 0;
    for (int i = 0; i < 6; i++) {
        if (args[i] < base || args[i] >= ro_hi) continue;
        uintptr_t first = (args[i] - base) / PAGE, page = first;
        while (page < pages && page < first + 64 && ro_open[page]) page++;
        if (page == pages || page == first + 64) continue;
        ro_seen[page == first ? args[i] - base : page * PAGE] = 1;
        int h = open_page(tid, page);
        if (h) *held = h;
        opened = 1;
    }
    if (!opened) return 0;
    r.rax = r.orig_rax;
    r.rip -= 2; /* `syscall` */
    if (ptrace(PTRACE_SETREGS, tid, 0, &r)) die("setregs");
    return 1;
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
    const char *entries = 0;
    int ro = 0, prog = 2;
    for (; prog < argc && strcmp(argv[prog], "--"); prog++) {
        if (!strcmp(argv[prog], "-b") && prog + 1 < argc) entries = argv[++prog];
        else if (!strcmp(argv[prog], "-r")) ro = 1;
        else break;
    }
    if (argc < 2 || ++prog >= argc || strcmp(argv[prog - 1], "--")) {
        fprintf(stderr, "usage: %s OUT [-b ENTRIES] [-r] -- PROG [ARG...]\n", argv[0]);
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
    find_mappings(pid, ro);
    if (ro) {
        /* Before any breakpoint is planted, so the step runs the entry's
         * own first instruction. */
        long rip = ptrace(PTRACE_PEEKUSER, pid, offsetof(struct user_regs_struct, rip), 0);
        if (ptrace(PTRACE_SINGLESTEP, pid, 0, 0) || waitpid(pid, &st, __WALL) != pid || !WIFSTOPPED(st))
            die("step past the exec stop");
        if ((uintptr_t)rip >= text_lo && (uintptr_t)rip < text_hi) seen[rip - text_lo] = 1;
        inject_mprotect(pid, base, ro_hi - base, PROT_NONE);
        if (ptrace(PTRACE_SETOPTIONS, pid, 0, PTRACE_O_TRACECLONE | PTRACE_O_EXITKILL | PTRACE_O_TRACESYSGOOD))
            die("setoptions");
    }
    if (entries) mem = plant(pid, entries);
    /* At full speed under -r every syscall stops the thread, so that one
     * the mapping's protection failed can be seen and run again. */
    const enum __ptrace_request resume = !entries ? PTRACE_SINGLESTEP : ro ? PTRACE_SYSCALL : PTRACE_CONT;
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
        int sig = WSTOPSIG(st), event = st >> 16, held = 0;
        /* Step and breakpoint traps, syscall stops and a new thread's
         * first stop are the tracer's own, and so is a fault on the
         * protected mapping; any other signal goes on to the thread. */
        int pass = sig == SIGTRAP || sig == (SIGTRAP | 0x80) || sig == SIGSTOP || event ? 0 : sig;
        if (sig == SIGSEGV && !event && on_fault(tid, &held)) pass = held;
        if (sig == (SIGTRAP | 0x80) || (sig == SIGTRAP && !event && !entries)) {
            on_efault(tid, &held);
            pass = held;
        }
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
