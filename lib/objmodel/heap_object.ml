type kind = Data | Array_data | Jvm_metadata | Weak_reference | Temp

type location = Eden | Survivor | Old | In_h2 | Freed

(* Collector-first layout: the fields every full collection reads for
   every object sit in the record's first 80 bytes (the block header
   included), so a mark or compaction walk touches one or two cache
   lines per object instead of three. *)
type t = {
  mutable loc : location;
  mutable mark : int;
  mutable nrefs : int;
  mutable refs : t array;
  size : int;
  mutable addr : int;
  mutable new_addr : int;
  mutable region_slack : int;
  mutable age : int;
  id : int;
  kind : kind;
  mutable h2_region : int;
  mutable label : int;
  mutable site : int;
  mutable closure_mark : int;
  mutable root_pin : int;
}

let header_bytes = 16

let label_word_bytes = 8

let create ?(kind = Data) ~id ~size () =
  if size < 0 then invalid_arg "Heap_object.create: negative size";
  {
    id;
    kind;
    size;
    refs = [||];
    nrefs = 0;
    loc = Eden;
    addr = -1;
    h2_region = -1;
    label = -1;
    site = -1;
    age = 0;
    mark = 0;
    closure_mark = 0;
    new_addr = -1;
    root_pin = 0;
    region_slack = 0;
  }

let total_size t = t.size + header_bytes + label_word_bytes

let footprint t = total_size t + t.region_slack

let grow_refs t =
  let cap = Array.length t.refs in
  let cap' = if cap = 0 then 2 else cap * 2 in
  let refs' = Array.make cap' t in
  Array.blit t.refs 0 refs' 0 t.nrefs;
  t.refs <- refs'

let add_ref parent child =
  if parent.nrefs = Array.length parent.refs then grow_refs parent;
  parent.refs.(parent.nrefs) <- child;
  parent.nrefs <- parent.nrefs + 1

let set_ref parent i child =
  if i < 0 || i >= parent.nrefs then invalid_arg "Heap_object.set_ref";
  parent.refs.(i) <- child

let remove_ref parent child =
  let rec find i = if i >= parent.nrefs then -1
    else if parent.refs.(i) == child then i
    else find (i + 1)
  in
  let i = find 0 in
  if i >= 0 then begin
    for j = i to parent.nrefs - 2 do
      parent.refs.(j) <- parent.refs.(j + 1)
    done;
    parent.nrefs <- parent.nrefs - 1;
    (* The vacated slot would keep the removed child reachable in the
       host heap after it dies; the slack references the parent itself,
       as [grow_refs] fills it. *)
    parent.refs.(parent.nrefs) <- parent
  end

let clear_refs t =
  Array.fill t.refs 0 t.nrefs t;
  t.nrefs <- 0

let iter_refs f t =
  for i = 0 to t.nrefs - 1 do
    f t.refs.(i)
  done

let ref_count t = t.nrefs

let refs_list t =
  let rec loop i acc =
    if i < 0 then acc else loop (i - 1) (t.refs.(i) :: acc)
  in
  loop (t.nrefs - 1) []

let is_young t = match t.loc with Eden | Survivor -> true | Old | In_h2 | Freed -> false

let rec young_ref_from t i =
  i < t.nrefs && (is_young t.refs.(i) || young_ref_from t (i + 1))

let has_young_ref t = young_ref_from t 0

let is_in_h1 t = match t.loc with Eden | Survivor | Old -> true | In_h2 | Freed -> false

let is_freed t = t.loc = Freed

let excluded_from_closure t =
  match t.kind with
  | Jvm_metadata | Weak_reference -> true
  | Data | Array_data | Temp -> false

let reachable ~roots ~fence_h2 =
  let seen : (int, t) Hashtbl.t = Hashtbl.create 1024 in
  let stack = Stack.create () in
  let visit o =
    if not (Hashtbl.mem seen o.id) then begin
      Hashtbl.replace seen o.id o;
      Stack.push o stack
    end
  in
  List.iter visit roots;
  while not (Stack.is_empty stack) do
    let o = Stack.pop stack in
    let fenced = fence_h2 && o.loc = In_h2 in
    if not fenced then iter_refs visit o
  done;
  seen

let pp f t =
  let loc =
    match t.loc with
    | Eden -> "eden"
    | Survivor -> "survivor"
    | Old -> Printf.sprintf "old@%d" t.addr
    | In_h2 -> Printf.sprintf "h2[r%d]@%d" t.h2_region t.addr
    | Freed -> "freed"
  in
  Format.fprintf f "#%d(%s, %dB, %d refs%s)" t.id loc (total_size t) t.nrefs
    (if t.label >= 0 then Printf.sprintf ", label %d" t.label else "")
