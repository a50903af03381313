(** GC root set.

    Frameworks register the objects their mutator threads and static fields
    hold directly (thread stacks, block-manager maps, partition stores). An
    object may be registered several times; it stays a root until all
    registrations are removed. *)

type t

val create : unit -> t

val add : t -> Heap_object.t -> unit

val remove : t -> Heap_object.t -> unit
(** Removing an object that is not registered is a no-op. *)

val is_root : Heap_object.t -> bool

val iter : (Heap_object.t -> unit) -> t -> unit

val objects : t -> Heap_object.t Th_sim.Vec.t
(** The registered objects, each once, in the order {!iter} visits them.
    This is the root set's own storage, for closure-free loops: read it,
    never modify it, and re-fetch it after any {!add} or {!remove}. *)

val to_list : t -> Heap_object.t list

val count : t -> int
