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

(* Counts go into two arrays indexed by kind, so a census allocates
   nothing per object. *)
let kinds =
  Obj_.[ Data; Array_data; Jvm_metadata; Weak_reference; Temp ]

let kind_index = function
  | Obj_.Data -> 0
  | Obj_.Array_data -> 1
  | Obj_.Jvm_metadata -> 2
  | Obj_.Weak_reference -> 3
  | Obj_.Temp -> 4

let count_space counts bytes vec =
  for i = 0 to Vec.length vec - 1 do
    let o : Obj_.t = Vec.get vec i in
    let k = kind_index o.Obj_.kind in
    counts.(k) <- counts.(k) + 1;
    bytes.(k) <- bytes.(k) + Obj_.total_size o
  done

let of_runtime (rt : Rt.t) =
  let heap = rt.Rt.heap in
  let counts = Array.make (List.length kinds) 0 in
  let bytes = Array.make (List.length kinds) 0 in
  count_space counts bytes heap.H1_heap.eden;
  count_space counts bytes heap.H1_heap.survivor;
  count_space counts bytes heap.H1_heap.old_objs;
  (* Dead-on-arrival allocations are [Temp] objects without records. *)
  if heap.H1_heap.dead_young_count > 0 then begin
    let temp = kind_index Obj_.Temp in
    counts.(temp) <- counts.(temp) + heap.H1_heap.dead_young_count;
    bytes.(temp) <- bytes.(temp) + heap.H1_heap.dead_young_bytes
  end;
  (* The kind name breaks byte-count ties, so the order is total. *)
  List.filter_map
    (fun kind ->
      let k = kind_index kind in
      if counts.(k) = 0 then None
      else Some { kind; count = counts.(k); bytes = bytes.(k) })
    kinds
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
