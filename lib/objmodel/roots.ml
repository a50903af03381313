open Th_sim

type t = {
  objs : Heap_object.t Vec.t;
  mutable needs_compact : bool;
}

let create () = { objs = Vec.create (); needs_compact = false }

let add t o =
  o.Heap_object.root_pin <- o.Heap_object.root_pin + 1;
  if o.Heap_object.root_pin = 1 then Vec.push t.objs o

let remove t o =
  if o.Heap_object.root_pin > 0 then begin
    o.Heap_object.root_pin <- o.Heap_object.root_pin - 1;
    if o.Heap_object.root_pin = 0 then t.needs_compact <- true
  end

let is_root (o : Heap_object.t) = o.Heap_object.root_pin > 0

let compact t =
  if t.needs_compact then begin
    Vec.filter_in_place is_root t.objs;
    (* The slack would keep removed roots reachable after they die. *)
    Vec.release_slack t.objs;
    t.needs_compact <- false
  end

let iter f t =
  compact t;
  Vec.iter f t.objs

let objects t =
  compact t;
  t.objs

let to_list t =
  compact t;
  Vec.to_list t.objs

let count t =
  compact t;
  Vec.length t.objs
