(** Deterministic fault injection for the simulated storage stack.

    Real block devices exhibit transient read/write errors, tail-latency
    spikes, writeback stalls and short device-full (ENOSPC) windows; the
    paper's whole argument rests on H2 living on such imperfect storage
    (§2, §7.2). A {!spec} describes one fault regime (per-operation rates
    plus episode durations) and a {!plan} sequences regimes over simulated
    time — phased wear-out schedules, cycling quiet/burst patterns — so
    long-horizon soak runs see the fault environment *change* mid-run. A
    {!t} draws from a dedicated splitmix64 PRNG so equal seeds inject
    identical fault sequences: a run under a fault plan is exactly as
    reproducible as one without.

    The injector also aggregates every fault-related counter of a run —
    injected faults, retries, backoff and penalty time, degraded-mode
    events — so drivers can report them and classify the run outcome. *)

type spec = {
  seed : int64;
  read_error_rate : float;  (** transient-error probability per read op *)
  write_error_rate : float;  (** transient-error probability per write op *)
  spike_rate : float;
      (** probability per op of opening a tail-latency spike episode *)
  spike_factor : float;  (** latency/cost multiplier during an episode *)
  spike_duration_ns : float;  (** simulated length of a spike episode *)
  stall_rate : float;  (** writeback-stall probability per write op *)
  stall_ns : float;  (** extra charge of one writeback stall *)
  full_rate : float;
      (** probability per write op of opening a device-full window *)
  full_duration_ns : float;  (** simulated length of a device-full window *)
}

val zero : spec
(** All rates zero: a regime that never injects anything. *)

val default_plan : spec
(** A moderate regime: occasional transient errors and latency spikes,
    rare stalls and device-full windows. *)

val harsh : spec
(** An aggressive regime for stress experiments. *)

type plan = {
  phases : (spec * float) list;
      (** each phase is a regime plus its simulated duration in ns; only
          the last phase of a non-cycling plan may be [infinity] (and a
          finite last phase holds past its end anyway) *)
  cycle : bool;  (** wrap back to the first phase when the last ends *)
}

val static : spec -> plan
(** [static s] is the single-phase plan holding [s] forever — the shape
    every pre-phased caller used implicitly. *)

val wearout : plan
(** A device aging over the run: gentle rates at first, escalating phase
    by phase, ending in a permanently worn-out regime. *)

val bursty : plan
(** Clustered fault episodes: long quiet stretches punctuated by short
    storms of harsh-grade faults, cycling for the whole run. *)

val parse : string -> (plan, string) result
(** [parse s] reads a fault plan from a comma-separated [key=value] spec,
    e.g. ["seed=7,read_err=1e-4,write_err=1e-4,spike=5e-5,spike_factor=8"].
    Keys: [seed], [read_err]/[re], [write_err]/[we], [spike],
    [spike_factor], [spike_us], [stall], [stall_us], [full], [full_us]
    (durations in simulated microseconds). The bare words [none],
    [default] and [harsh] name the preset regimes; preset names may be
    followed by overrides ("default,seed=9").

    Phased plans list [phase(...)] fields, each wrapping the same spec
    syntax plus a duration key [dur_us]/[dur_ms]/[dur_s]; a phase with no
    duration holds forever (legal for the last phase only). The bare word
    [cycle] makes the schedule wrap (every phase then needs a duration),
    and [wearout]/[bursty] name preset schedules. Top-level [key=value]
    fields apply to every phase, so ["wearout,seed=9"] reseeds the whole
    schedule. Rate keys must be probabilities in [0, 1], durations
    non-negative and [spike_factor >= 1]; anything else is a descriptive
    [Error]. *)

val to_string : spec -> string
(** Canonical [key=value] rendering of a regime (parseable by {!parse}). *)

val plan_to_string : plan -> string
(** Canonical rendering of a plan (parseable by {!parse}); a single-phase
    static plan prints as its bare spec. *)

type outcome =
  | Ok  (** no fault: the operation proceeds at its modelled cost *)
  | Transient_error
      (** the attempt fails after paying its latency; retryable *)
  | Spike of float  (** tail-latency episode: cost multiplied by factor *)
  | Stall of float  (** writeback stall: extra nanoseconds on top of cost *)
  | Device_full
      (** ENOSPC window: writes fail until the window closes; retryable *)

type stats = {
  read_errors : int;  (** transient read errors injected *)
  write_errors : int;  (** transient write errors injected *)
  spiked_ops : int;  (** operations charged at spike-episode cost *)
  stalls : int;
  enospc_rejections : int;  (** writes rejected inside device-full windows *)
  retries : int;  (** retry attempts performed by the I/O policy *)
  backoff_ns : float;  (** simulated time charged as retry backoff *)
  penalty_ns : float;
      (** every other fault-induced charge: failed-attempt latency, spike
          surcharge, stalls, retry-timeout waits *)
  exhausted_retries : int;  (** bounded retry loops that gave up *)
  watchdog_timeouts : int;
      (** checked-I/O episodes cut short by the retry watchdog deadline *)
  recomputes : int;  (** lineage-style partition recomputations *)
  h2_degraded_events : int;
      (** degraded-mode episodes in H2: compactions that left tagged
          objects in H1, promotion-buffer flush deferrals *)
  h2_objects_deferred : int;  (** objects left in H1 by a full H2 *)
}

val zero_stats : stats

type t

val create : spec -> t
(** A fresh injector with its own PRNG stream seeded from [spec.seed];
    equivalent to [create_plan (static spec)]. *)

val create_plan : plan -> t
(** A fresh injector following a phased plan; the PRNG is seeded from the
    first phase's [seed]. Raises [Invalid_argument] on a plan that
    {!parse} would reject (empty, or missing phase durations). *)

val spec : t -> spec
(** The regime active at the injector's current phase. *)

val phase_index : t -> int
(** Index into the plan of the phase active at the last injection. *)

val phase_changes : t -> int
(** Phase transitions taken so far (cycling wraps count once each). *)

val enabled : t -> bool
(** False when every rate in every phase is zero; a disabled injector
    never draws from its PRNG, so a zero-rate run is byte-identical to a
    run with no injector at all. *)

val jitter_unit : t -> float
(** One uniform draw in [0, 1) from the injector's dedicated jitter
    stream, used to de-synchronise retry backoff. The stream is derived
    from the plan seed but independent of the injection stream: drawing
    jitter never perturbs the injected fault sequence. *)

(** {1 Injection points} (called by the device layer) *)

val on_read : t -> now_ns:float -> outcome
(** Draw the outcome of one read attempt at simulated time [now_ns]. *)

val on_write : t -> now_ns:float -> outcome
(** Draw the outcome of one write attempt: transient errors, spikes,
    stalls, and device-full windows (which reject every write until they
    close). *)

(** {1 Counter recording} (called by the retry policy and recovery sites) *)

val note_retry : t -> unit

val note_backoff : t -> float -> unit

val note_penalty : t -> float -> unit

val note_exhausted : t -> unit

val note_watchdog : t -> unit

val note_recompute : t -> unit

val note_h2_degraded : t -> ?objects:int -> unit -> unit

val stats : t -> stats

val faults_injected : stats -> int
(** Total faults of any kind injected (reads + writes + spikes + stalls +
    ENOSPC rejections). *)

val degraded : stats -> bool
(** True when the run took any visible degraded-mode action: exhausted
    retries, watchdog timeouts, recomputations, or H2 degraded events —
    or when any fault at all was injected (the run's timing no longer
    matches a fault-free device). *)

val pp_stats : Format.formatter -> stats -> unit
