open Th_sim
module Obj_ = Th_objmodel.Heap_object
module Runtime = Th_psgc.Runtime

exception Not_serializable of string

type serialized = { bytes : int; objects : int; elem_sizes : int list }

let serialized_fraction = 0.7

let transient_fraction = 0.05

(* Temporary buffers are allocated in 64 KiB chunks, as Kryo's output
   buffers are; each chunk is one short-lived heap object. *)
let temp_chunk_bytes = Size.kib 64

let charge_sd rt ~bytes ~objects =
  let costs = Runtime.costs rt in
  let ns =
    (float_of_int bytes *. costs.Costs.serde_per_byte_ns)
    +. (float_of_int objects *. costs.Costs.serde_per_obj_ns)
  in
  Clock.advance (Runtime.clock rt) Clock.Serde_io
    (Costs.parallel costs ~threads:costs.Costs.mutator_threads ns)

let alloc_temps rt ~bytes =
  let costs = Runtime.costs rt in
  let temp_bytes =
    int_of_float (float_of_int bytes *. costs.Costs.serde_temp_bytes_per_byte)
  in
  let chunks = temp_bytes / temp_chunk_bytes in
  for _ = 1 to chunks do
    (* Unreachable immediately: pure GC pressure. *)
    Runtime.alloc_dead rt ~size:temp_chunk_bytes
  done;
  let rem = temp_bytes mod temp_chunk_bytes in
  if rem > 0 then Runtime.alloc_dead rt ~size:rem

let closure_of root =
  let seen = Hashtbl.create 64 in
  let acc = ref [] in
  let stack = Stack.create () in
  Stack.push root stack;
  while not (Stack.is_empty stack) do
    let o = Stack.pop stack in
    if not (Hashtbl.mem seen o.Obj_.id) then begin
      Hashtbl.replace seen o.Obj_.id ();
      (match o.Obj_.kind with
      | Obj_.Jvm_metadata ->
          raise
            (Not_serializable
               (Printf.sprintf "object #%d references JVM metadata" o.Obj_.id))
      | Obj_.Weak_reference | Obj_.Data | Obj_.Array_data | Obj_.Temp -> ());
      acc := o :: !acc;
      Obj_.iter_refs (fun c -> Stack.push c stack) o
    end
  done;
  (* The root was visited first; keep it at the head of the list. *)
  List.rev !acc

let serialize rt root =
  let objs = closure_of root in
  let payload =
    List.fold_left (fun acc (o : Obj_.t) -> acc + o.Obj_.size) 0 objs
  in
  let effective =
    float_of_int payload *. (1.0 -. transient_fraction) *. serialized_fraction
  in
  let bytes = int_of_float effective in
  let objects = List.length objs in
  charge_sd rt ~bytes:payload ~objects;
  alloc_temps rt ~bytes;
  {
    bytes;
    objects;
    elem_sizes = List.map (fun (o : Obj_.t) -> o.Obj_.size) objs;
  }

(* Allocate the group's objects back on the heap; shared by the normal
   deserialization path and by lineage-style recomputation (which charges
   compute time instead of S/D time). *)
let materialize rt s =
  match s.elem_sizes with
  | [] -> invalid_arg "Serializer.deserialize: empty group"
  | root_size :: elems ->
      let root = Runtime.alloc rt ~size:root_size () in
      (* Pin the group while it is under construction: a GC triggered by
         an element allocation must not reclaim it. The caller unpins. *)
      Runtime.add_root rt root;
      List.iter
        (fun size ->
          let o = Runtime.alloc rt ~size () in
          Runtime.write_ref rt root o)
        elems;
      root

let deserialize rt s =
  charge_sd rt ~bytes:s.bytes ~objects:s.objects;
  alloc_temps rt ~bytes:s.bytes;
  materialize rt s

let rebuild rt s = materialize rt s

let charge_stream rt ~bytes ~objects =
  charge_sd rt ~bytes ~objects;
  alloc_temps rt ~bytes
