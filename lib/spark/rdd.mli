(** Resilient-distributed-dataset model.

    An RDD is a logical collection split into partitions; a materialised
    partition is a group of heap objects with a single root (the
    partition descriptor), exactly the "group of objects with a
    single-entry root reference" the paper's hint interface relies on.

    Two layouts mirror the workload families:
    - [Chunked]: many row objects of [elem_size] bytes (GraphX/MLlib
      deserialized caches);
    - [Columnar]: one large backing array per partition plus a few row
      descriptors — the humongous-object layout that fragments G1
      (§7.1). *)

type layout = Chunked | Columnar

type t = {
  id : int;
  partitions : int;
  elems_per_partition : int;
  elem_size : int;
  layout : layout;
}

val create :
  Context.t ->
  ?layout:layout ->
  partitions:int ->
  elems_per_partition:int ->
  elem_size:int ->
  unit ->
  t

val of_dataset :
  Context.t ->
  ?layout:layout ->
  ?partitions:int ->
  ?elem_size:int ->
  bytes:int ->
  unit ->
  t
(** Shape an RDD holding [bytes] of data (default 16 partitions, 1 KiB
    elements). *)

val columnar_batch_bytes : int
(** Size of one columnar backing array (192 KiB): about 1.5–3 G1 regions
    at the simulated heap sizes, the humongous-object geometry of §7.1. *)

val partition_bytes : t -> int
(** Approximate heap bytes of one materialised partition. *)

val dataset_bytes : t -> int

val build_partition : Context.t -> t -> Th_objmodel.Heap_object.t
(** Materialise one partition: allocate the descriptor and its elements
    (charging build compute) and return the root, {e pinned} as a GC root
    while under construction. The caller must
    {!Th_psgc.Runtime.remove_root} it once anchored (e.g. cached in the
    block manager) or abandoned. *)

val read_partition : Context.t -> Th_objmodel.Heap_object.t -> unit
(** Touch every element (streaming read: compute + page faults if the
    group lives in H2). *)
