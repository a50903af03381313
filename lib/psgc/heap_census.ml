open Th_sim
module Obj_ = Th_objmodel.Heap_object
module H1_heap = Th_minijvm.H1_heap

type entry = { kind : Obj_.kind; count : int; bytes : int }

let kind_name = function
  | Obj_.Data -> "data"
  | Obj_.Array_data -> "array"
  | Obj_.Jvm_metadata -> "jvm-metadata"
  | Obj_.Weak_reference -> "weak-ref"
  | Obj_.Temp -> "temp"

let of_runtime (rt : Rt.t) =
  let heap = rt.Rt.heap in
  let acc : (Obj_.kind, int * int) Hashtbl.t = Hashtbl.create 8 in
  let add kind ~count ~bytes =
    let c, b =
      match Hashtbl.find_opt acc kind with Some cb -> cb | None -> (0, 0)
    in
    Hashtbl.replace acc kind (c + count, b + bytes)
  in
  let visit (o : Obj_.t) = add o.Obj_.kind ~count:1 ~bytes:(Obj_.total_size o) in
  Vec.iter visit heap.H1_heap.eden;
  Vec.iter visit heap.H1_heap.survivor;
  Vec.iter visit heap.H1_heap.old_objs;
  (* Dead-on-arrival allocations are [Temp] objects without records. *)
  if heap.H1_heap.dead_young_count > 0 then
    add Obj_.Temp ~count:heap.H1_heap.dead_young_count
      ~bytes:heap.H1_heap.dead_young_bytes;
  (* Order-insensitive: the fold only accumulates; the sort below fixes
     the order, with the kind name breaking byte-count ties so the result
     never depends on hash iteration. th-lint: allow hashtbl-order *)
  Hashtbl.fold (fun kind (count, bytes) l -> { kind; count; bytes } :: l) acc []
  |> List.sort (fun a b ->
         match Int.compare b.bytes a.bytes with
         | 0 -> String.compare (kind_name a.kind) (kind_name b.kind)
         | c -> c)

let total_bytes entries =
  List.fold_left (fun acc e -> acc + e.bytes) 0 entries

let pp f entries =
  List.iter
    (fun e ->
      Format.fprintf f "%-14s %8d objs  %s@." (kind_name e.kind) e.count
        (Size.to_string e.bytes))
    entries
