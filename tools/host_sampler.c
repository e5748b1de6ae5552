/* In-process sampling profiler, loaded with LD_PRELOAD by
 * tools/host_profile.py (see there for usage).
 *
 * ITIMER_PROF fires SIGPROF after every millisecond of CPU time this process
 * spends (the kernel checks CPU timers on its scheduler tick, so there is at
 * most one sample per tick).  The handler claims a sample index with one
 * atomic add and records the interrupted PC followed by the return
 * addresses found by walking the frame-pointer chain, so the program under
 * test must be built with -fno-omit-frame-pointer.  A leaf that sets up no
 * frame (libc's memcpy and memset) is missing from that chain's view: the
 * chain starts at its caller's caller.  So each sample also keeps the word
 * at the interrupted stack pointer on x86-64 (the link register on
 * aarch64), which in such a leaf is the return address into its caller;
 * tools/host_profile.py decides whether to use it.  At exit the samples (one
 * line per sample: "t", that word, then the PC and the chain, leaf first,
 * in hex), the process's CPU time and a copy of /proc/self/maps are written
 * to the file named by HOST_SAMPLER_OUT.
 *
 * Only this process is sampled; nothing system-wide is touched.
 */
#define _GNU_SOURCE
#include <errno.h>
#include <signal.h>
#include <stdatomic.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1u << 18)
#define MAX_DEPTH 48
#define MAX_FRAME_BYTES (8u << 20) /* frames live within 8 MB of the handler */

typedef struct {
  uint32_t depth;
  uintptr_t sp_word; /* word at the stack pointer (x86-64) or LR (aarch64) */
  uintptr_t pc[MAX_DEPTH];
} sample_t;

static sample_t* samples;
static atomic_uint next_sample;
static atomic_uint dropped;
static uintptr_t page_size;

/* Whether [p, p + 16) lies on mapped pages.  mincore() fails with ENOMEM on
 * an unmapped page, so a bogus frame pointer is rejected instead of
 * faulting the program. */
static int mapped16(uintptr_t p) {
  unsigned char vec;
  const uintptr_t first = p & ~(page_size - 1);
  const uintptr_t last = (p + 15) & ~(page_size - 1);
  if (mincore((void*)first, page_size, &vec) != 0) return 0;
  return last == first || mincore((void*)last, page_size, &vec) == 0;
}

static void on_sigprof(int sig, siginfo_t* info, void* uctx) {
  (void)sig;
  (void)info;
  const unsigned idx = atomic_fetch_add_explicit(&next_sample, 1,
                                                 memory_order_relaxed);
  if (idx >= MAX_SAMPLES) {
    atomic_fetch_add_explicit(&dropped, 1, memory_order_relaxed);
    return;
  }
  const int saved_errno = errno; /* mincore() may set it */
  const ucontext_t* uc = (const ucontext_t*)uctx;
  sample_t* s = &samples[idx];
  uint32_t n = 0;
#if defined(__x86_64__)
  s->pc[n++] = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
  uintptr_t fp = (uintptr_t)uc->uc_mcontext.gregs[REG_RBP];
  const uintptr_t sp = (uintptr_t)uc->uc_mcontext.gregs[REG_RSP];
  s->sp_word = (sp & 7) == 0 && mapped16(sp) ? *(const uintptr_t*)sp : 0;
#elif defined(__aarch64__)
  s->pc[n++] = (uintptr_t)uc->uc_mcontext.pc;
  uintptr_t fp = (uintptr_t)uc->uc_mcontext.regs[29];
  s->sp_word = (uintptr_t)uc->uc_mcontext.regs[30];
#else
#error "host_sampler: unsupported architecture"
#endif
  /* The handler runs on the interrupted thread's stack, below every frame
   * of the interrupted code: a frame pointer outside the 8 MB above this
   * local, misaligned, not strictly increasing or unmapped ends the walk. */
  const uintptr_t stack_lo = (uintptr_t)&n;
  while (n < MAX_DEPTH && fp > stack_lo && fp - stack_lo < MAX_FRAME_BYTES &&
         (fp & 7) == 0 && mapped16(fp)) {
    const uintptr_t next = ((const uintptr_t*)fp)[0];
    const uintptr_t ret = ((const uintptr_t*)fp)[1];
    if (ret == 0) break;
    s->pc[n++] = ret;
    if (next <= fp) break;
    fp = next;
  }
  s->depth = n;
  errno = saved_errno;
}

static void write_out(void) {
  struct itimerval off;
  memset(&off, 0, sizeof off);
  setitimer(ITIMER_PROF, &off, NULL);
  const char* path = getenv("HOST_SAMPLER_OUT");
  if (path == NULL || samples == NULL) return;
  FILE* out = fopen(path, "w");
  if (out == NULL) return;
  unsigned taken = atomic_load(&next_sample);
  if (taken > MAX_SAMPLES) taken = MAX_SAMPLES;
  struct timespec cpu;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &cpu);
  fprintf(out, "# host_sampler v2 samples=%u dropped=%u cpu_s=%.3f\n", taken,
          atomic_load(&dropped), (double)cpu.tv_sec + cpu.tv_nsec / 1e9);
  for (unsigned i = 0; i < taken; ++i) {
    const sample_t* s = &samples[i];
    fprintf(out, "t %lx", (unsigned long)s->sp_word);
    for (uint32_t d = 0; d < s->depth; ++d)
      fprintf(out, " %lx", (unsigned long)s->pc[d]);
    fputc('\n', out);
  }
  FILE* maps = fopen("/proc/self/maps", "r");
  if (maps != NULL) {
    char line[4096];
    while (fgets(line, sizeof line, maps) != NULL) fprintf(out, "m %s", line);
    fclose(maps);
  }
  fclose(out);
}

__attribute__((constructor)) static void host_sampler_start(void) {
  if (getenv("HOST_SAMPLER_OUT") == NULL) return;
  page_size = (uintptr_t)sysconf(_SC_PAGESIZE);
  samples = calloc(MAX_SAMPLES, sizeof(sample_t));
  if (samples == NULL) return;
  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_sigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, NULL);
  atexit(write_out);

  struct itimerval tv;
  tv.it_interval.tv_sec = 0;
  tv.it_interval.tv_usec = 1000;
  tv.it_value = tv.it_interval;
  setitimer(ITIMER_PROF, &tv, NULL);
}
