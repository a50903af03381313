(** The regular managed heap (H1), DRAM-backed.

    Parallel-Scavenge layout: a young generation split into an eden space
    and two survivor spaces, plus an old generation (§2). Capacities follow
    the HotSpot defaults ([NewRatio] = 2, [SurvivorRatio] = 8) unless
    overridden. The record is transparent: the collector ({!Th_psgc})
    manipulates spaces directly; invariant-sensitive moves go through the
    helpers below.

    Eden holds two kinds of contents. Objects that may be referenced are
    {!Th_objmodel.Heap_object.t} records in the [eden] vector.
    Dead-on-arrival allocations ({!alloc_dead}: serializer buffers and
    stage garbage that nothing ever references) are not materialised:
    they only add to [eden_used] and to the dead-young counters, which
    the next young-generation sweep releases in one step
    ({!free_dead_young}). At every safepoint
    [eden_used = Σ total_size(eden records) + dead_young_bytes]. *)

type t = {
  eden_capacity : int;
  survivor_capacity : int;  (** one of the two survivor semi-spaces *)
  old_capacity : int;
  mutable eden_used : int;
  mutable survivor_used : int;
  mutable old_used : int;  (** live + dead-but-not-yet-compacted bytes *)
  mutable old_top : int;  (** old-generation bump pointer *)
  eden : Th_objmodel.Heap_object.t Th_sim.Vec.t;
  survivor : Th_objmodel.Heap_object.t Th_sim.Vec.t;
  old_objs : Th_objmodel.Heap_object.t Th_sim.Vec.t;
      (** strictly address-sorted: the card table's object-start index
          refers to positions in it *)
  cards : Card_table.t;
  mutable next_id : int;
  tenure_threshold : int;  (** minor GCs survived before promotion *)
  mutable dead_young_bytes : int;
      (** eden bytes of dead-on-arrival allocations since the last
          young-generation sweep (part of [eden_used]) *)
  mutable dead_young_count : int;
      (** number of those allocations, for the heap census *)
}

type 'a attempt =
  | Allocated of 'a
  | Eden_full  (** caller must run a minor GC and retry *)
  | Old_full  (** large-object path exhausted; caller must run a major GC *)
(** The outcome of one allocation attempt. *)

val create :
  ?new_ratio:int ->
  ?card_size:int ->
  heap_bytes:int ->
  unit ->
  t

val heap_bytes : t -> int
(** Total capacity: eden + 2 survivors + old. *)

val young_bytes : t -> int

val alloc :
  t -> kind:Th_objmodel.Heap_object.kind -> size:int ->
  Th_objmodel.Heap_object.t attempt
(** Bump allocation in eden. Objects larger than half of eden
    ({!pretenured}) go directly to the old generation, as PS does. *)

val pretenured : t -> size:int -> bool
(** Whether an object with a [size]-byte payload is larger than half of
    eden once its header and label word are added, so that {!alloc}
    places it in the old generation. *)

val alloc_dead : t -> size:int -> unit attempt
(** [alloc_dead t ~size] accounts an eden allocation of a [size]-byte
    payload that nothing will ever reference, without building a record:
    it consumes an object id (before the eden-full check, as {!alloc}
    does, so a failed attempt burns one too) and, when the object fits,
    adds its total size to [eden_used] and the dead-young counters. It
    never returns [Old_full]. Raises [Invalid_argument] when the total
    size exceeds half of eden ({!pretenured}): only a record in
    [old_objs] lets a major GC free such an object. *)

val free_dead_young : t -> unit
(** Release every dead-on-arrival allocation: subtract [dead_young_bytes]
    from [eden_used] and zero both counters. The minor-GC sweep and the
    major-GC young sweep call it where they free dead eden records. *)

val old_alloc_addr : t -> int -> int option
(** [old_alloc_addr t bytes] bumps the old-generation pointer, returning
    the new object's address, or [None] if the old generation is full. *)

val promote : t -> Th_objmodel.Heap_object.t -> addr:int -> unit
(** Move a young object into the old generation at [addr]. The caller must
    have obtained [addr] from {!old_alloc_addr} (or, during major-GC
    compaction, assigned it above every old-generation object). Appends
    the object to [old_objs] and the card table's object-start index. *)

val push_old : t -> Th_objmodel.Heap_object.t -> unit
(** Append an externally initialised old-generation object (location,
    address from {!old_alloc_addr}, accounting done by the caller) to
    [old_objs] and the object-start index. Used by the G1
    humongous-allocation path. *)

val compact_after_major : t -> unit
(** Make the space vectors' backing arrays reference only live entries:
    {!Th_sim.Vec.release_slack} on each. The major GC filters [old_objs]
    in place and rebuilds the object-start index itself. *)

val to_survivor : t -> Th_objmodel.Heap_object.t -> unit
(** Copy a live eden/survivor object into the target survivor space. *)

val free_object : t -> Th_objmodel.Heap_object.t -> unit
(** Mark an object [Freed] and release its space accounting. The caller is
    responsible for removing it from the space vectors (batch filtering). *)

val live_bytes : t -> int
(** Current used bytes across all spaces. *)

val old_occupancy : t -> float
(** [old_used / old_capacity]. *)

val occupancy : t -> float
(** Whole-heap usage fraction. *)

val fresh_id : t -> int
