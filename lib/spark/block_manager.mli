(** The Spark block manager (Figure 4).

    Holds every cached partition in a hashmap whose root object is a GC
    root. Depending on the context's cache mode a partition is kept
    on-heap (deserialized), serialized to the off-heap device cache, or
    tagged and advised for movement to H2. *)

type entry_kind = On_heap | Off_heap | In_teraheap

type t

val create : Context.t -> t

val put :
  t ->
  rdd_id:int ->
  pidx:int ->
  Th_objmodel.Heap_object.t ->
  unit
(** Cache a freshly built partition group (root key-object). Spark-SD
    serializes it to the device once the on-heap budget is exhausted, in
    which case the heap copy becomes garbage. TeraHeap mode executes
    [h2_tag_root] (label = RDD id) and [h2_move]. *)

val get :
  ?hold:bool ->
  t ->
  rdd_id:int ->
  pidx:int ->
  consume:(Th_objmodel.Heap_object.t -> unit) ->
  unit
(** Access a cached partition. Off-heap entries are read back and
    deserialized into fresh heap objects which become garbage after
    [consume] — or, with [hold], stay live until {!release_held} (stage
    end), the behaviour that promotes them into the old generation under
    minor-GC pressure. On-heap and H2 entries are consumed in place.
    Raises [Not_found] for unknown blocks. *)

val release_held : t -> unit
(** Drop all groups held by [get ~hold:true]. *)

val entry_kind : t -> rdd_id:int -> pidx:int -> entry_kind option

val unpersist : t -> rdd_id:int -> unit
(** Drop all blocks of an RDD: on-heap and H2 groups become unreachable;
    off-heap bytes are forgotten. *)

val cached_blocks : t -> int
