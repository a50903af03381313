(** The H2 card table (§3.4).

    A DRAM byte array with one entry per fixed-size H2 card segment. Each
    entry is in one of four states: [Clean] (no backward references),
    [Dirty] (mutator updated an object in the segment), [Young_gen]
    (segment only references the H1 young generation) or [Old_gen]
    (segment only references the H1 old generation). Minor GC scans
    [Dirty] and [Young_gen] segments; major GC additionally scans
    [Old_gen] segments.

    The table is divided into slices and stripes for contention-free
    parallel scanning. With [stripe_aligned] (TeraHeap's design: stripe
    size = region size, objects never span regions), boundary cards behave
    like any other card. Without it (vanilla-JVM behaviour), a boundary
    card that ever becomes dirty is never cleaned and is re-scanned by
    every GC.

    The state bytes are sized on first use: {!num_segments} and
    {!metadata_bytes} report the logical table, fixed at creation, while
    the bytes cover only a prefix that doubles when a write reaches past
    it. A segment beyond the prefix reads [Clean]; the prefix is
    unobservable except in host memory. *)

type state = Clean | Dirty | Young_gen | Old_gen

type event = Barrier_dirty | Recompute of state | Bulk_clear
(** Why a card changed state: the mutator's post-write barrier
    ([Barrier_dirty], always lands [Dirty]), a GC recompute ([Recompute]
    carries the state the collector {e requested} — a sticky dirty
    boundary card may lawfully stay [Dirty] instead), or bulk region
    reclamation ([Bulk_clear], always lands [Clean]). *)

type t

val create :
  ?segment_size:int ->
  ?stripe_aligned:bool ->
  ?stripe_size:int ->
  capacity_bytes:int ->
  unit ->
  t
(** [segment_size] defaults to 4 KiB; [stripe_aligned] defaults to [true];
    [stripe_size] defaults to the H2 region size passed by {!H2.create}. *)

val segment_size : t -> int

val num_segments : t -> int
(** The logical segment count, however much of the table is covered. *)

val segment_of : t -> gaddr:int -> int
(** Segment index of a global H2 address. *)

val state : t -> seg:int -> state

val set_state : t -> seg:int -> state -> unit
(** Respects stickiness of dirty boundary cards in unaligned mode: an
    attempt to clean such a card leaves it [Dirty]. *)

val mark_dirty : t -> gaddr:int -> unit
(** Post-write-barrier entry point. *)

val iter_minor_scan : t -> lo:int -> hi:int -> (int -> state -> unit) -> unit
(** Iterate segments in state [Dirty] or [Young_gen] whose index lies in
    [lo, hi); minor GC path. *)

val iter_major_scan : t -> lo:int -> hi:int -> (int -> state -> unit) -> unit
(** Same, plus [Old_gen] segments; major GC path. *)

val clear_range : t -> lo:int -> hi:int -> unit
(** Reset segments to [Clean] (bulk region reclamation). Boundary-card
    stickiness does not apply: the backing region is dead. *)

val set_transition_hook :
  t -> (seg:int -> before:state -> after:state -> event -> unit) option -> unit
(** Install (or remove) an observer called on every state change —
    {!mark_dirty} and {!set_state} also report no-op transitions, so the
    observer sees suppressed sticky-boundary cleans. Used by the
    {!Th_verify} sanitizer to check transition legality online. *)

val set_trace_clock : t -> Th_sim.Clock.t option -> unit
(** Give the table a clock to timestamp and emit card-transition trace
    instants through (when that clock has a tracer attached). Unlike the
    observer hook, tracing reports only real state changes — sticky
    no-op transitions stay off the ring. Installed by {!H2.create};
    independent of {!set_transition_hook} so the {!Th_verify} sanitizer
    and the flight recorder can coexist. *)

val non_clean_count : t -> int

val metadata_bytes : t -> int
(** DRAM footprint of the modelled table (one byte per logical
    segment). *)
