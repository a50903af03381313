(** The regular managed heap (H1), DRAM-backed.

    Parallel-Scavenge layout: a young generation split into an eden space
    and two survivor spaces, plus an old generation (§2). Capacities follow
    the HotSpot defaults ([NewRatio] = 2, [SurvivorRatio] = 8) unless
    overridden. The record is transparent: the collector ({!Th_psgc})
    manipulates spaces directly; invariant-sensitive moves go through the
    helpers below. *)

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
}

type alloc_result =
  | Allocated of Th_objmodel.Heap_object.t
  | Eden_full  (** caller must run a minor GC and retry *)
  | Old_full  (** large-object path exhausted; caller must run a major GC *)

val create :
  ?new_ratio:int ->
  ?survivor_ratio:int ->
  ?tenure_threshold:int ->
  ?card_size:int ->
  heap_bytes:int ->
  unit ->
  t

val heap_bytes : t -> int
(** Total capacity: eden + 2 survivors + old. *)

val young_bytes : t -> int

val alloc : t -> kind:Th_objmodel.Heap_object.kind -> size:int -> alloc_result
(** Bump allocation in eden. Objects larger than half of eden go directly
    to the old generation, as PS does. *)

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

val filter_old : t -> (Th_objmodel.Heap_object.t -> bool) -> unit
(** [filter_old t keep] filters [old_objs] in place, in order, and
    rebuilds the card table's object-start index from the kept objects.
    [keep] runs once per object and may reassign the object's address
    (sliding compaction) before accepting it; the kept addresses must
    stay ascending. *)

val compact_after_major : t -> unit
(** Shrink the space vectors' backing arrays to their lengths, releasing
    the slack that still references dead objects. *)

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
