module Obj_ = Th_objmodel.Heap_object
module Runtime = Th_psgc.Runtime

type layout = Chunked | Columnar

type t = {
  id : int;
  partitions : int;
  elems_per_partition : int;
  elem_size : int;
  layout : layout;
}

let create ctx ?(layout = Chunked) ~partitions ~elems_per_partition ~elem_size
    () =
  if partitions <= 0 || elems_per_partition <= 0 || elem_size <= 0 then
    invalid_arg "Rdd.create: sizes must be positive";
  { id = Context.fresh_rdd_id ctx; partitions; elems_per_partition; elem_size; layout }

let of_dataset ctx ?layout ?(partitions = 16) ?(elem_size = 1024) ~bytes () =
  let elems_per_partition = max 1 (bytes / partitions / elem_size) in
  create ctx ?layout ~partitions ~elems_per_partition ~elem_size ()

let descriptor_bytes = 256

let columnar_batch_bytes = Th_sim.Size.kib 192

let partition_bytes t =
  descriptor_bytes + (t.elems_per_partition * t.elem_size)

let dataset_bytes t = t.partitions * partition_bytes t

let build_partition ctx t =
  let rt = Context.runtime ctx in
  let root = Runtime.alloc rt ~size:descriptor_bytes () in
  (* Pinned while under construction; the caller unpins once the group is
     anchored (e.g. in the block manager) or abandoned. *)
  Runtime.add_root rt root;
  (match t.layout with
  | Chunked ->
      for _ = 1 to t.elems_per_partition do
        let e = Runtime.alloc rt ~size:t.elem_size () in
        Runtime.write_ref rt root e
      done
  | Columnar ->
      (* Columnar batches: large backing arrays sized like Spark SQL /
         MLlib column chunks. Each straddles G1 regions, wasting the tail
         of its last humongous region (§7.1). *)
      let total = t.elems_per_partition * t.elem_size in
      let batch = columnar_batch_bytes in
      let n = max 1 (total / batch) in
      for _ = 1 to n do
        let backing = Runtime.alloc rt ~kind:Obj_.Array_data ~size:batch () in
        Runtime.write_ref rt root backing
      done;
      let rem = total - (n * batch) in
      if rem > 0 then begin
        let backing = Runtime.alloc rt ~kind:Obj_.Array_data ~size:rem () in
        Runtime.write_ref rt root backing
      end);
  Runtime.compute rt ~bytes:(partition_bytes t);
  root

let read_partition ctx root =
  let rt = Context.runtime ctx in
  Runtime.read_obj rt root;
  Obj_.iter_refs (Runtime.read_obj rt) root
