(** Giraph's out-of-core scheduler (§5).

    Monitors managed-heap pressure and offloads the serialized edge arrays
    of least-recently-used partitions to the storage device; offloaded
    partitions are read back (and their byte arrays re-allocated on the
    heap) before they are processed. Because Giraph already keeps edges
    and messages as serialized byte arrays, offloading costs device I/O
    and allocation churn, not Kryo CPU. *)

type t

val create :
  Th_psgc.Runtime.t ->
  device:Th_device.Device.t ->
  dr2_bytes:int ->
  threshold:float ->
  t
(** [threshold] is the old-generation occupancy above which the scheduler
    starts offloading. *)

val page_cache : t -> Th_device.Page_cache.t

val note_processed : t -> Graph.partition -> unit
(** LRU bookkeeping: the partition was just processed. *)

val maybe_offload_list : t -> Graph.partition list -> unit
(** Offload the LRU candidates' edges while heap pressure exceeds the
    threshold (bounded by the pressure excess, since unlinked space only
    returns at the next collection). Used during the input superstep,
    while the graph is still being built. *)

val enforce_budget : t -> Graph.t -> max_resident:int -> unit
(** Giraph's [maxPartitionsInMemory] policy: offload LRU partitions until
    at most [max_resident] partitions' edges stay on the heap. *)

val enforce_budget_list : t -> Graph.partition list -> max_resident:int -> unit

val ensure_resident : t -> Graph.t -> Graph.partition -> unit
(** Read an offloaded partition's edges back and re-allocate their byte
    arrays on the heap. No-op for resident partitions. *)
