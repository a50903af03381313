(** Stage execution: the executor-side allocation behaviour around a unit
    of work.

    Each mutator thread holds a working buffer for the duration of a
    stage (task deserialization buffers, sort buffers, ...), which is why
    more executor threads raise the live in-flight footprint and with it
    the GC cost (§7.6). Shuffles serialize a byte volume through Kryo on
    both the map and reduce sides and produce short-lived records. *)

val run :
  Context.t ->
  ?shuffle_bytes:int ->
  ?transient_bytes:int ->
  work:(unit -> unit) ->
  unit ->
  unit
(** [run ctx ~work ()] pins one 128 KiB buffer per mutator thread,
    executes [work], charges the shuffle S/D stream, allocates
    [transient_bytes] of immediately-dead records, and unpins the
    buffers. *)

val alloc_garbage : Context.t -> bytes:int -> unit
(** Allocate short-lived objects totalling [bytes] that die immediately. *)
