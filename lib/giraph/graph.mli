(** Giraph's in-memory graph representation.

    The graph is hash-partitioned; each partition holds vertices, each
    vertex a (mutable) value object and an out-edges map. Giraph
    serializes edges into byte arrays at allocation time (§5), so the
    out-edges map is modelled as one [Array_data] byte-array object per
    vertex and its construction charges serialization CPU to mutator
    time. *)

type vertex = {
  vid : int;
  degree : int;
  vobj : Th_objmodel.Heap_object.t;  (** mutable vertex-value object *)
  mutable edges_obj : Th_objmodel.Heap_object.t;  (** serialized out-edges array; replaced when the out-of-core scheduler reloads it *)
}

type partition = {
  pid : int;
  pobj : Th_objmodel.Heap_object.t;  (** partition hashmap object *)
  vertices : vertex array;
  mutable offloaded_edge_bytes : int;
      (** bytes currently off-heap under the out-of-core scheduler *)
}

type t = {
  partitions : partition array;
  total_edges : int;
  edge_bytes : int;
  store_root : Th_objmodel.Heap_object.t;  (** partition store, a GC root *)
}

val vertex_value_bytes : int

val load :
  Th_psgc.Runtime.t ->
  prng:Th_sim.Prng.t ->
  partitions:int ->
  vertices:int ->
  avg_degree:int ->
  edge_bytes:int ->
  on_vertex_loaded:(vertex -> unit) ->
  ?on_partition_loaded:(partition -> unit) ->
  unit ->
  t
(** The input superstep: build all partitions, drawing vertex degrees
    from a power-law distribution. [on_vertex_loaded] runs right after a
    vertex materialises (TeraHeap tags the out-edges map here,
    Figure 5 step 1); [on_partition_loaded] runs after each partition
    (the out-of-core scheduler relieves pressure here). *)

val iter_vertices : t -> (partition -> vertex -> unit) -> unit

val total_bytes : t -> int
