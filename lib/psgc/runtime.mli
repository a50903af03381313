(** Mutator-facing runtime API ("MiniJVM").

    Frameworks allocate objects, store references (through the post-write
    barrier with its H1/H2 range check, §4), touch data, and register GC
    roots through this module. Allocation transparently triggers minor and
    major collections exactly as heap pressure dictates; the TeraHeap hint
    calls are re-exported from {!Th_core.H2} for convenience. *)

type t = Rt.t

exception Out_of_memory of string
(** Alias of {!Rt.Out_of_memory}. *)

exception Invalid_heap_state of { object_id : int; phase : string }
(** Alias of {!Rt.Invalid_heap_state}: an object's location contradicted
    the runtime configuration or collection phase (for instance an
    [In_h2] object reached while no H2 heap is attached). Indicates a
    simulator bug, not a recoverable condition; the payload names the
    offending object and the phase that found it. *)

val create :
  ?collector:Rt.collector ->
  ?profile:Cost_profile.t ->
  ?rset_mode:Rt.rset_mode ->
  ?h2:Th_core.H2.t ->
  ?policy:Th_policy.Policy.t ->
  clock:Th_sim.Clock.t ->
  costs:Th_sim.Costs.t ->
  heap:Th_minijvm.H1_heap.t ->
  unit ->
  t

val clock : t -> Th_sim.Clock.t

val costs : t -> Th_sim.Costs.t

val heap : t -> Th_minijvm.H1_heap.t

val h2 : t -> Th_core.H2.t option

val stats : t -> Gc_stats.t

val roots : t -> Th_objmodel.Roots.t

val teraheap_enabled : t -> bool

(** {1 Mutator operations} *)

val alloc :
  t -> ?kind:Th_objmodel.Heap_object.kind -> size:int -> unit ->
  Th_objmodel.Heap_object.t
(** Allocate in eden (or directly in the old generation for objects larger
    than half of eden). Runs minor/major GC on demand; raises
    {!Out_of_memory} when even a full collection cannot make room. *)

val alloc_dead : t -> size:int -> unit
(** [alloc_dead t ~size] allocates a [Temp] object that nothing will ever
    reference (a serializer buffer, stage garbage) and changes the
    simulated state exactly as [ignore (alloc t ~kind:Temp ~size ())]
    would, without building a record: it charges [alloc_ns] once,
    consumes one object id per attempt, and drives the same
    eden-full → minor GC → major GC → {!Out_of_memory} sequence, with the
    same message. The bytes sit in eden as dead-young bytes
    ({!Th_minijvm.H1_heap.alloc_dead}) until the next young sweep. Sizes
    that {!alloc} would pretenure into the old generation take the record
    path. *)

val write_ref :
  t -> Th_objmodel.Heap_object.t -> Th_objmodel.Heap_object.t -> unit
(** [write_ref t parent child] stores a reference, executing the post-write
    barrier: the range check selects the H1 or H2 card table. *)

val unlink_ref :
  t -> Th_objmodel.Heap_object.t -> Th_objmodel.Heap_object.t -> unit
(** Remove a reference (a field overwrite with null). Also a barriered
    store. *)

val replace_refs :
  t -> Th_objmodel.Heap_object.t -> Th_objmodel.Heap_object.t list -> unit
(** Overwrite all reference slots of [parent]. *)

val read_obj : t -> Th_objmodel.Heap_object.t -> unit
(** Touch an object's payload: mutator compute, plus page-cache I/O when it
    lives in H2 (faults land in "other" time, §6). *)

val update_obj : t -> Th_objmodel.Heap_object.t -> unit
(** Mutate an object's scalar payload in place: compute plus, for H2
    residents, the read-modify-write device traffic of §7.2. *)

val compute : t -> bytes:int -> unit
(** Pure computation over [bytes] of data, spread across the configured
    mutator threads. *)

val add_root : t -> Th_objmodel.Heap_object.t -> unit

val remove_root : t -> Th_objmodel.Heap_object.t -> unit

(** {1 GC entry points} *)

val minor_gc : t -> unit

val major_gc : t -> unit

val barrier_checks : t -> int
(** Number of post-write barriers executed (DaCapo overhead experiment). *)

(** {1 TeraHeap hints (no-ops without an H2)} *)

val h2_tag_root :
  t -> ?site:int -> Th_objmodel.Heap_object.t -> label:int -> unit
(** [site] (default [label]) names the allocation site for
    lifetime-profiling placement policies; it must be stable across runs
    of the same workload. *)

val h2_move : t -> label:int -> unit
