/* SIGPROF program-counter sampler, loaded with LD_PRELOAD by
 * scripts/pc_profile.sh.
 *
 * The kernel sends SIGPROF every millisecond of process CPU time, which
 * CPU-time timers round up to the scheduler tick (1-10 ms); with
 * PC_SAMPLER_WALL set, every 100 microseconds of wall-clock time on a
 * high-resolution timer instead, which suits short single-threaded runs.
 * The handler stores the interrupted program counter.
 * It never unwinds the stack, so a sample taken on a simulated fiber's
 * stack is as good as one taken on the main stack (call-graph profilers
 * drop most of those). At exit each process writes its samples to
 * PC_SAMPLER_OUT.<pid> as tab-separated "count object address" lines, where
 * address is the ELF virtual address inside `object` (the load bias
 * subtracted), ready for addr2line.
 *
 * Build: cc -O2 -shared -fPIC -o pc_sampler.so pc_sampler.c
 */
#define _GNU_SOURCE
#include <link.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1u << 22)
#define MAX_SEGMENTS 512

static uintptr_t samples[MAX_SAMPLES];
static unsigned long n_samples;
static unsigned long n_dropped;
static timer_t wall_timer;
static int use_wall;

static uintptr_t interrupted_pc(const ucontext_t* uc) {
#if defined(__x86_64__)
  return (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
  return (uintptr_t)uc->uc_mcontext.pc;
#else
#error "pc_sampler: unsupported architecture"
#endif
}

static void on_sigprof(int sig, siginfo_t* info, void* uctx) {
  (void)sig;
  (void)info;
  const unsigned long i = __atomic_fetch_add(&n_samples, 1, __ATOMIC_RELAXED);
  if (i < MAX_SAMPLES) {
    samples[i] = interrupted_pc((const ucontext_t*)uctx);
  } else {
    __atomic_fetch_add(&n_dropped, 1, __ATOMIC_RELAXED);
  }
}

/* An executable PT_LOAD segment of a loaded object. */
struct segment {
  uintptr_t lo, hi;  /* run-time address range */
  uintptr_t bias;    /* load bias: ELF address = run-time address - bias */
  char name[256];
};

static struct segment segs[MAX_SEGMENTS];
static int n_segs;

static int collect_segment(struct dl_phdr_info* info, size_t size, void* d) {
  (void)size;
  (void)d;
  for (int i = 0; i < info->dlpi_phnum && n_segs < MAX_SEGMENTS; ++i) {
    const ElfW(Phdr)* ph = &info->dlpi_phdr[i];
    if (ph->p_type != PT_LOAD || !(ph->p_flags & PF_X)) continue;
    struct segment* s = &segs[n_segs++];
    s->lo = info->dlpi_addr + ph->p_vaddr;
    s->hi = s->lo + ph->p_memsz;
    s->bias = info->dlpi_addr;
    const char* name = info->dlpi_name;
    if (name == NULL || name[0] == '\0') {  /* the main executable */
      const ssize_t n = readlink("/proc/self/exe", s->name, sizeof s->name - 1);
      s->name[n > 0 ? n : 0] = '\0';
    } else {
      snprintf(s->name, sizeof s->name, "%s", name);
    }
  }
  return 0;
}

static int cmp_pc(const void* a, const void* b) {
  const uintptr_t x = *(const uintptr_t*)a, y = *(const uintptr_t*)b;
  return x < y ? -1 : x > y;
}

static void write_samples(FILE* f, unsigned long n) {
  qsort(samples, n, sizeof samples[0], cmp_pc);
  dl_iterate_phdr(collect_segment, NULL);
  unsigned long unknown = 0;
  for (unsigned long i = 0; i < n;) {
    unsigned long j = i;
    while (j < n && samples[j] == samples[i]) ++j;
    const uintptr_t pc = samples[i];
    int k = 0;
    while (k < n_segs && !(pc >= segs[k].lo && pc < segs[k].hi)) ++k;
    if (k < n_segs && segs[k].name[0] != '\0') {
      fprintf(f, "%lu\t%s\t0x%lx\n", j - i, segs[k].name,
              (unsigned long)(pc - segs[k].bias));
    } else {
      unknown += j - i;
    }
    i = j;
  }
  if (unknown > 0) fprintf(f, "%lu\t?\t0x0\n", unknown);
}

__attribute__((constructor)) static void sampler_start(void) {
  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_sigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, NULL);
  use_wall = getenv("PC_SAMPLER_WALL") != NULL;
  if (use_wall) {
    struct sigevent sev;
    memset(&sev, 0, sizeof sev);
    sev.sigev_notify = SIGEV_SIGNAL;
    sev.sigev_signo = SIGPROF;
    struct itimerspec ts;
    ts.it_interval.tv_sec = 0;
    ts.it_interval.tv_nsec = 100 * 1000;
    ts.it_value = ts.it_interval;
    if (timer_create(CLOCK_MONOTONIC, &sev, &wall_timer) == 0) {
      timer_settime(wall_timer, 0, &ts, NULL);
      return;
    }
    perror("pc_sampler: timer_create");
    use_wall = 0;
  }
  struct itimerval it;
  it.it_interval.tv_sec = 0;
  it.it_interval.tv_usec = 1000;
  it.it_value = it.it_interval;
  setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((destructor)) static void sampler_stop(void) {
  if (use_wall) {
    timer_delete(wall_timer);
  } else {
    struct itimerval off;
    memset(&off, 0, sizeof off);
    setitimer(ITIMER_PROF, &off, NULL);
  }
  signal(SIGPROF, SIG_IGN);
  const char* out = getenv("PC_SAMPLER_OUT");
  if (out == NULL) return;
  char path[4096];
  snprintf(path, sizeof path, "%s.%ld", out, (long)getpid());
  FILE* f = fopen(path, "w");
  if (f == NULL) {
    perror("pc_sampler: fopen PC_SAMPLER_OUT");
    return;
  }
  unsigned long n = __atomic_load_n(&n_samples, __ATOMIC_RELAXED);
  if (n > MAX_SAMPLES) n = MAX_SAMPLES;
  write_samples(f, n);
  if (n_dropped > 0) {
    fprintf(stderr, "pc_sampler: buffer full, %lu samples dropped\n",
            n_dropped);
  }
  fclose(f);
}
