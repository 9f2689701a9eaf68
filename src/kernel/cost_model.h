// Virtual-CPU cost model.
//
// Every simulated kernel or server operation charges a fixed number of
// nanoseconds of virtual CPU time to the (single) server CPU. The paper's
// scalability results are entirely about where CPU time goes as interest sets
// grow, so this table is the heart of the reproduction. Values are expressed
// on the paper's server hardware scale (400 MHz AMD K6-2): syscall traps cost
// tens of microseconds and a 6 KB response costs a few hundred microseconds
// of copy/checksum work, which saturates the server near 1000 replies/s as in
// the paper. EXPERIMENTS.md records the calibration. The table is fixed:
// SimKernel::cost() returns kCostModel and nothing can replace or mutate it.

#ifndef SRC_KERNEL_COST_MODEL_H_
#define SRC_KERNEL_COST_MODEL_H_

#include "src/sim/time.h"

namespace scio {

struct CostModel {
  // --- generic syscall costs -------------------------------------------------
  SimDuration syscall_entry = Micros(15);  // trap + kernel entry/exit

  // --- socket syscalls (charged on top of syscall_entry) ----------------------
  SimDuration accept_extra = Micros(40);  // socket + file allocation
  SimDuration read_extra = Micros(8);
  SimDuration read_per_byte = Nanos(40);
  SimDuration write_extra = Micros(8);
  SimDuration write_per_byte = Nanos(75);  // copy + checksum + driver queue
  SimDuration close_extra = Micros(10);
  SimDuration fcntl_extra = Micros(2);

  // --- classic poll() ---------------------------------------------------------
  // Stock poll copies the whole interest set in, invokes every file's driver
  // poll callback, manipulates a wait queue entry per fd when it blocks, and
  // copies results out.
  SimDuration poll_copyin_per_fd = Nanos(700);
  // The driver poll callback chain (fget, sock_poll -> tcp_poll, wait-queue
  // registration, cache misses across hundreds of cold sockets) on a
  // 400 MHz part: ~12000 cycles. This is the dominant per-idle-fd cost the
  // paper's /dev/poll hints eliminate.
  SimDuration poll_driver_poll_per_fd = Micros(30);
  SimDuration poll_waitqueue_add_per_fd = Nanos(2200);
  SimDuration poll_waitqueue_remove_per_fd = Nanos(1800);
  SimDuration poll_copyout_per_ready = Nanos(800);
  // User-space cost for legacy applications that rebuild their pollfd array
  // from scratch before every call (thttpd and phhttpd both do).
  SimDuration poll_userspace_rebuild_per_fd = Nanos(500);

  // --- /dev/poll --------------------------------------------------------------
  SimDuration devpoll_write_per_fd = Nanos(1200);   // copyin + hash update
  SimDuration devpoll_scan_per_interest = Nanos(270);  // touch entry, test hint
  SimDuration devpoll_copyout_per_ready = Nanos(800);  // skipped with mmap
  SimDuration devpoll_hint_set = Nanos(300);  // driver-side backmap mark (interrupt)
  SimDuration devpoll_ioctl_extra = Micros(1);
  SimDuration devpoll_lock_acquire = Nanos(120);  // backmap rwlock, counted

  // --- successor event cores (epoll-style / kqueue-style) ----------------------
  // The epoll-style core: interest mutations touch one slab slot, the driver
  // pushes ready descriptors onto a kernel ready list (interrupt context),
  // and a wait harvests only that list — never the full interest set.
  SimDuration epoll_ctl_extra = Nanos(1500);     // one interest-slab slot update
  SimDuration epoll_ready_enqueue = Nanos(250);  // driver-side ready-list link
  SimDuration epoll_wait_per_event = Nanos(350); // ready-list dequeue + revalidate
  SimDuration epoll_copyout_per_event = Nanos(800);
  // The kqueue-style filter core: one kevent() applies a changelist and
  // harvests an eventlist in the same trap; per-(fd,filter) knotes activate
  // from interrupt context and are re-filtered at harvest.
  SimDuration kq_kevent_extra = Micros(1);       // changelist/eventlist setup
  SimDuration kq_change_per_entry = Nanos(1300); // apply one changelist entry
  SimDuration kq_knote_activate = Nanos(250);    // knote -> active list (interrupt)
  SimDuration kq_filter_eval = Nanos(300);       // re-run one filter at harvest
  SimDuration kq_copyout_per_event = Nanos(800);

  // --- POSIX RT signals ---------------------------------------------------------
  // One sigwaitinfo() trap per event is the cost the paper blames for
  // phhttpd faltering under load (§5.2): dequeue, siginfo copyout, signal
  // mask manipulation.
  SimDuration rt_sigwaitinfo_extra = Micros(85);
  SimDuration rt_sigwait_per_extra_sig = Micros(3);  // batch dequeue marginal cost
  // Copying one additional siginfo to userspace during a sigtimedwait4 batch
  // dequeue. The batch amortizes the trap and the mask manipulation, but
  // every entry beyond the first (whose copyout rt_sigwaitinfo_extra already
  // covers) still pays its own copyout.
  SimDuration rt_siginfo_copyout = Micros(2);
  // Kernel-side enqueue: allocate the siginfo, walk the fasync list, queue —
  // charged as interrupt-context debt.
  SimDuration rt_signal_enqueue = Micros(25);
  // Discarding one queued siginfo during SIG_DFL flush (overflow recovery).
  SimDuration rt_signal_flush_per_sig = Micros(10);
  // phhttpd's overflow handoff (§6): each connection is passed one at a time
  // to the poll sibling over a UNIX domain socket.
  SimDuration rt_overflow_handoff_per_conn = Micros(120);

  // --- interrupt / network processing (charged as debt while busy) -------------
  SimDuration interrupt_per_packet = Micros(9);

  // --- ingress filter chain (netfilter-style; "Performance Evaluation of
  // netfilter" measures per-rule traversal as a first-class overhead) ----------
  SimDuration filter_match_per_rule = Nanos(300);  // test one rule, miss or hit
  SimDuration filter_drop_extra = Nanos(500);      // execute a DROP verdict
  // Stateless SYN-ACK generation when the SYN backlog saturates: hash compute
  // on a 400 MHz part, paid per cookie instead of per half-open slot.
  SimDuration syncookie_cost = Micros(6);
  SimDuration synq_reap_per_entry = Nanos(200);  // free one timed-out half-open
  // Graceful-degradation controller: one pressure scan per tick (process
  // context), plus a chain mutation when a rule is inserted or removed.
  SimDuration defense_tick = Micros(10);
  SimDuration filter_rule_update = Micros(2);

  // --- transport plane (opt-in TCP model; charged as interrupt-context debt
  // on the server side only — the client machine's CPU stays free) -------------
  SimDuration tcp_segment_cost = Micros(2);     // carve + header + queue one MSS
  SimDuration tcp_ack_generate = Micros(2);     // build cumulative ACK + SACK blocks
  SimDuration tcp_ack_process = Micros(3);      // scoreboard update per ACK received
  SimDuration tcp_retransmit_extra = Micros(4); // on top of tcp_segment_cost
  SimDuration tcp_pacing_release = Micros(1);   // pacing-timer fire + dequeue

  // --- SMP scheduling ------------------------------------------------------------
  // Charged when a virtual CPU switches which worker it runs: register/TLB
  // state plus the cold caches the incoming worker finds (2.2-era x86).
  SimDuration smp_context_switch = Micros(5);

  // --- application-level work ----------------------------------------------------
  SimDuration http_parse_base = Micros(25);     // per parser invocation
  SimDuration http_parse_per_byte = Nanos(600);  // per request byte fed
  SimDuration http_build_response = Micros(70);
  SimDuration server_loop_overhead = Micros(40);  // per event-loop iteration
  SimDuration server_timer_sweep_per_conn = Micros(8);  // periodic timeout scan
  SimDuration server_conn_setup = Micros(12);   // allocate + init conn state
  SimDuration server_conn_teardown = Micros(8);
};

inline constexpr CostModel kCostModel{};

}  // namespace scio

#endif  // SRC_KERNEL_COST_MODEL_H_
