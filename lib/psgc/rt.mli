(** Runtime state shared by the mutator facade ({!Runtime}) and the
    collector ({!Ps_gc}). Kept in its own module to break the mutual
    dependency between allocation (which triggers GC) and collection.

    The record type is exposed: both halves of the runtime — and the
    {!Th_verify} sanitizer — read and update its fields directly. *)

open Th_sim
module Obj_ = Th_objmodel.Heap_object
module Roots = Th_objmodel.Roots
module H1_heap = Th_minijvm.H1_heap
module H2 = Th_core.H2

exception Out_of_memory of string

exception Invalid_heap_state of { object_id : int; phase : string }
(** Raised in place of the old [assert false] dead branches: an object's
    location contradicts the runtime configuration or collection phase
    (e.g. an [In_h2] object with no H2 heap attached). Carries enough
    context to identify the object and the phase that tripped over it. *)

val invalid_heap_state : object_id:int -> phase:string -> 'a

type collector = Ps | Ps_jdk11 | G1

type rset_mode = Card_index | Linear_scan
(** How minor GC finds old-to-young references. [Card_index] (default)
    visits only the dirty cards' runs of the address-sorted old
    generation, through the card table's object-start index; [Linear_scan]
    sweeps every old-generation object, checking its card — the original
    O(#old objects) implementation, kept as a debug/equivalence oracle. *)

type move_pressure = Th_policy.Policy.pressure =
  | No_pressure
  | Move_all_tagged
  | Move_until_low
(** Pending move policy decided at the end of the previous major GC;
    the placement policies read the same type. *)

type safepoint = Before_minor | After_minor | Before_major | After_major
(** GC safepoints at which an external observer (the {!Th_verify}
    sanitizer) may inspect the heap. The hook lives here, not in the
    verifier, so the collector never depends on it. *)

type t = {
  clock : Clock.t;
  costs : Costs.t;
  heap : H1_heap.t;
  roots : Roots.t;
  h2 : H2.t option;
  profile : Cost_profile.t;
  collector : collector;
  rset_mode : rset_mode;
  stats : Gc_stats.t;
  mutable mark_epoch : int;
  mutable closure_epoch : int;
  mutable pressure : move_pressure;
  mutable in_gc : bool;
  mutable barrier_checks : int;  (** post-write barriers executed *)
  mutable g1_humongous_waste : int;
      (** wasted bytes in humongous regions *)
  g1_region_size : int;
  mutable safepoint_hook : (safepoint -> unit) option;
  mutable h2_move_gate : (unit -> bool) option;
      (** consulted once per major GC before the move-to-H2 passes;
          [false] suppresses moving for that cycle (tagged roots stay in
          H1). Installed by the {!Th_resilience} circuit breaker. *)
  mutable policy : Th_policy.Policy.t;
      (** decides which tagged roots move at each major GC and how they
          group into H2 regions; defaults to
          {!Th_policy.Policy.threshold}, the paper's behavior. The
          collector keeps the validity guards and the pressure budget. *)
  mutable mark_stack : Th_objmodel.Heap_object.t array;
      (** the major GC's marking stack: empty until the first marking
          pushes an object, then 1024 slots, doubled whenever full. Between
          collections every slot holds one object that was live when the
          last marking ended, so the stack keeps no freed object
          reachable. Replacing it with a shorter array (a test forcing
          the growth path) changes no simulated number. *)
}

val create :
  ?collector:collector ->
  ?profile:Cost_profile.t ->
  ?rset_mode:rset_mode ->
  ?h2:H2.t ->
  ?policy:Th_policy.Policy.t ->
  clock:Clock.t ->
  costs:Costs.t ->
  heap:H1_heap.t ->
  unit ->
  t

val safepoint : t -> safepoint -> unit
(** Announce a GC safepoint: runs the installed hook, if any. Called by
    {!Ps_gc} at entry and exit of the minor and major collections. *)

val h2_moves_allowed : t -> bool
(** Consult the installed move gate (true when none is installed). *)

val teraheap_enabled : t -> bool

val charge : t -> Clock.category -> float -> unit

val major_threads : t -> int
(** PS's old-generation collection is single-threaded in OpenJDK8,
    parallel in the JDK11/G1 configurations. *)
