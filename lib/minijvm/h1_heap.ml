open Th_sim
module Obj_ = Th_objmodel.Heap_object

type t = {
  eden_capacity : int;
  survivor_capacity : int;
  old_capacity : int;
  mutable eden_used : int;
  mutable survivor_used : int;
  mutable old_used : int;
  mutable old_top : int;
  eden : Obj_.t Vec.t;
  survivor : Obj_.t Vec.t;
  old_objs : Obj_.t Vec.t;
  cards : Card_table.t;
  mutable next_id : int;
  tenure_threshold : int;
  mutable dead_young_bytes : int;
  mutable dead_young_count : int;
}

type 'a attempt = Allocated of 'a | Eden_full | Old_full

let create ?(new_ratio = 2) ?(survivor_ratio = 8) ?(tenure_threshold = 3)
    ?card_size ~heap_bytes () =
  if heap_bytes <= 0 then invalid_arg "H1_heap.create: heap_bytes";
  let young = heap_bytes / (new_ratio + 1) in
  let survivor_capacity = young / (survivor_ratio + 2) in
  let eden_capacity = young - (2 * survivor_capacity) in
  let old_capacity = heap_bytes - young in
  {
    eden_capacity;
    survivor_capacity;
    old_capacity;
    eden_used = 0;
    survivor_used = 0;
    old_used = 0;
    old_top = 0;
    eden = Vec.create ();
    survivor = Vec.create ();
    old_objs = Vec.create ();
    cards = Card_table.create ?card_size ~capacity_bytes:old_capacity ();
    next_id = 0;
    tenure_threshold;
    dead_young_bytes = 0;
    dead_young_count = 0;
  }

let heap_bytes t = t.eden_capacity + (2 * t.survivor_capacity) + t.old_capacity

let young_bytes t = t.eden_capacity + (2 * t.survivor_capacity)

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let old_alloc_addr t bytes =
  if t.old_top + bytes > t.old_capacity then None
  else begin
    let addr = t.old_top in
    t.old_top <- t.old_top + bytes;
    t.old_used <- t.old_used + bytes;
    Some addr
  end

(* Append an old-generation object (location, address and accounting
   already set) to [old_objs] and the object-start index, which both
   stay address-sorted because every caller bumps [old_top]. *)
let push_old t (o : Obj_.t) =
  Vec.push t.old_objs o;
  Card_table.note_object_start t.cards ~addr:o.Obj_.addr

(* [Obj_.total_size] of an object with a [size]-byte payload. *)
let total_size_of size = size + Obj_.header_bytes + Obj_.label_word_bytes

let pretenured t ~size = total_size_of size > t.eden_capacity / 2

let alloc t ~kind ~size =
  let id = fresh_id t in
  let o = Obj_.create ~kind ~id ~size () in
  let bytes = Obj_.total_size o in
  if pretenured t ~size then begin
    (* PS allocates large objects directly in the old generation. *)
    match old_alloc_addr t bytes with
    | None -> Old_full
    | Some addr ->
        o.Obj_.loc <- Obj_.Old;
        o.Obj_.addr <- addr;
        push_old t o;
        Allocated o
  end
  else if t.eden_used + bytes > t.eden_capacity then Eden_full
  else begin
    t.eden_used <- t.eden_used + bytes;
    Vec.push t.eden o;
    Allocated o
  end

let alloc_dead t ~size =
  if pretenured t ~size then
    invalid_arg "H1_heap.alloc_dead: size takes the old-generation path";
  ignore (fresh_id t : int);
  let bytes = total_size_of size in
  if t.eden_used + bytes > t.eden_capacity then Eden_full
  else begin
    t.eden_used <- t.eden_used + bytes;
    t.dead_young_bytes <- t.dead_young_bytes + bytes;
    t.dead_young_count <- t.dead_young_count + 1;
    Allocated ()
  end

let free_dead_young t =
  t.eden_used <- t.eden_used - t.dead_young_bytes;
  t.dead_young_bytes <- 0;
  t.dead_young_count <- 0

let promote t o ~addr =
  let bytes = Obj_.total_size o in
  (match o.Obj_.loc with
  | Obj_.Eden -> t.eden_used <- t.eden_used - bytes
  | Obj_.Survivor -> t.survivor_used <- t.survivor_used - bytes
  | Obj_.Old | Obj_.In_h2 | Obj_.Freed ->
      invalid_arg "H1_heap.promote: object is not young");
  o.Obj_.loc <- Obj_.Old;
  o.Obj_.addr <- addr;
  push_old t o

let filter_old t keep =
  Card_table.reset_index t.cards;
  Vec.filter_in_place
    (fun (o : Obj_.t) ->
      if keep o then begin
        Card_table.note_object_start t.cards ~addr:o.Obj_.addr;
        true
      end
      else false)
    t.old_objs

(* After a full collection the space vectors hold only live entries, but
   the slack of their backing arrays still references every object
   filtered out since the last reallocation — dead objects would stay
   reachable from the OCaml heap forever. Major GCs are rare, so the
   reallocation cost is negligible. *)
let compact_after_major t =
  Vec.shrink_to_fit t.old_objs;
  Vec.shrink_to_fit t.eden;
  Vec.shrink_to_fit t.survivor

let to_survivor t o =
  let bytes = Obj_.total_size o in
  (match o.Obj_.loc with
  | Obj_.Eden -> t.eden_used <- t.eden_used - bytes
  | Obj_.Survivor -> ()
  | Obj_.Old | Obj_.In_h2 | Obj_.Freed ->
      invalid_arg "H1_heap.to_survivor: object is not young");
  if o.Obj_.loc = Obj_.Eden then begin
    o.Obj_.loc <- Obj_.Survivor;
    t.survivor_used <- t.survivor_used + bytes;
    Vec.push t.survivor o
  end

let free_object t o =
  let bytes =
    match o.Obj_.loc with
    | Obj_.Old -> Obj_.footprint o
    | _ -> Obj_.total_size o
  in
  (match o.Obj_.loc with
  | Obj_.Eden -> t.eden_used <- t.eden_used - bytes
  | Obj_.Survivor -> t.survivor_used <- t.survivor_used - bytes
  | Obj_.Old -> t.old_used <- t.old_used - bytes
  | Obj_.In_h2 -> invalid_arg "H1_heap.free_object: object lives in H2"
  | Obj_.Freed -> invalid_arg "H1_heap.free_object: double free");
  o.Obj_.loc <- Obj_.Freed

let live_bytes t = t.eden_used + t.survivor_used + t.old_used

let old_occupancy t =
  if t.old_capacity = 0 then 0.0
  else float_of_int t.old_used /. float_of_int t.old_capacity

let occupancy t =
  float_of_int (live_bytes t) /. float_of_int (heap_bytes t)
